//! Synthesis of loop invariants and postconditions (paper Sec. 4).
//!
//! The synthesizer fills the unknown predicates of a fragment's verification
//! conditions with TOR expressions. Following the paper:
//!
//! * **Templates are generated from code patterns** (Sec. 4.5 "QBS initially
//!   scans the input code fragment for specific patterns and creates simple
//!   templates"): [`analyze`] recovers the loop structure (counters, bounds,
//!   iterated sources, accumulated products) and [`mine`] harvests selection
//!   / join / containment predicates from the fragment's branch conditions.
//! * **Candidates are enumerated in increasing complexity** (incremental
//!   solving, Sec. 4.5): level 1 tries expressions with one relational
//!   operator, later levels add operators and predicate conjuncts.
//! * **Symmetries are broken** by construction: only translatable shapes are
//!   generated (no nested `σ`, predicates in canonical atom order), which the
//!   paper reports halves solving time.
//! * **Validation is CEGIS + proof**: candidates are screened against a
//!   counterexample cache, bounded-checked, then certified by the symbolic
//!   prover; candidates the prover cannot certify fall back to extended
//!   bounded checking (recorded in the outcome), mirroring the paper's
//!   bounded-then-Z3 pipeline.
//!
//! Loop invariants are *derived* from each postcondition template by the
//! staging substitution of Sec. 4.3/Fig. 10-12: the completed prefix uses
//! `top_i(src)`, a partially processed inner loop contributes
//! `⋈′(get_i(src1), top_j(src2))`, finished producers appear in full, and
//! not-yet-started producers are empty.

mod derive;
mod mine;
mod pattern;
mod postcond;
mod solve;

pub use derive::derive_candidate;
pub use mine::{mine, MinedAtoms};
pub use pattern::{analyze, Bound, LoopInfo, ProductKind, Shape, ShapeError};
pub use postcond::{product_templates, Template};
pub use solve::{
    synthesize, synthesize_with_hooks, Interrupt, InterruptCheck, ProofStatus, SynthConfig,
    SynthFailure, SynthHooks, SynthOutcome, SynthStats,
};
