//! The evaluation corpus: the 49 distinct persistent-data code fragments of
//! the paper's Appendix A, expressed in MiniJava over the Wilos and itracker
//! domain models, plus data generators for the Fig. 14 performance
//! experiments and the Sec. 7.3 advanced idioms.
//!
//! Each fragment record carries the paper's metadata — fragment number,
//! application, class name, source line, operation category (A–O), expected
//! status (`X` translated / `†` rejected / `*` failed) — and a MiniJava
//! source that exercises the same imperative idiom and the same
//! rejection/failure trigger as the original Java. The corpus tests assert
//! that running the QBS pipeline over all 49 fragments reproduces the
//! Fig. 13 table exactly: Wilos 33/21/9/3, itracker 16/12/0/4.

mod advanced;
mod datagen;
mod fragments;
mod schema;
mod workloads;

pub use advanced::{advanced_idioms, AdvancedIdiom};
pub use datagen::{populate_itracker, populate_universe, populate_wilos, WilosConfig};
pub use fragments::{
    all_fragments, grouped_fragments, App, Category, CorpusFragment, ExpectedStatus,
};
pub use schema::{itracker_model, universe_schemas, wilos_model, wilos_registry};
pub use workloads::{
    aggregation_pageload, inferred_sql, join_pageload, selection_pageload, Mode,
};
