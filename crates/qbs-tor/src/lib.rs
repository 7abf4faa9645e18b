//! The Theory of Ordered Relations (TOR) from the QBS paper (Sec. 3).
//!
//! The TOR is "essentially relational algebra defined in terms of lists
//! instead of sets": its operators (`get`, `top`, `π`, `σ`, `⋈`, `sort`,
//! `unique`, aggregates, `append`/concatenation, `contains`) define both the
//! *contents* and the *order* of their outputs. QBS uses TOR expressions for
//! loop invariants and postconditions; postconditions in *translatable form*
//! convert directly to SQL (paper Fig. 8).
//!
//! This crate provides:
//!
//! * the expression AST ([`TorExpr`], [`Pred`], [`JoinPred`]) — paper Fig. 6;
//! * an axiomatic evaluator ([`eval`]) implementing the Appendix C axioms,
//!   shared by the bounded verifier and the differential tests;
//! * type inference ([`infer_type`]) used by the synthesizer's enumerator;
//! * the [`trans`] normalization into translatable expressions (Appendix B),
//!   which applies the sound Thm. 2 equivalences;
//! * the [`order_fields`] function (paper Fig. 9) that computes the `ORDER BY`
//!   list preserving nested record order.
//!
//! # Example
//!
//! ```
//! use qbs_common::{Schema, FieldType};
//! use qbs_tor::{TorExpr, TypeEnv, infer_type, TorType};
//!
//! let users = Schema::builder("users")
//!     .field("id", FieldType::Int)
//!     .field("roleId", FieldType::Int)
//!     .finish();
//! let mut tenv = TypeEnv::new();
//! tenv.bind_rel("users", users.clone());
//! let e = TorExpr::size(TorExpr::var("users"));
//! assert_eq!(infer_type(&e, &tenv).unwrap(), TorType::Int);
//! ```

mod env;
#[cfg(test)]
mod equiv;
mod eval;
mod expr;
mod pred;
mod trans;
mod ty;

pub use env::{DynValue, Env};
pub use eval::{eval, EvalError};
pub use expr::{AggKind, BinOp, CmpOp, GroupSpec, QuerySpec, TorExpr};
pub use pred::{JoinAtom, JoinPred, Operand, Pred, PredAtom, Probe};
pub use trans::{
    order_fields, trans, trans_rel, BaseExpr, GroupedExpr, PosAtom, PosOperand, PosProbe,
    ScalarQuery, ScalarRhs, SortedExpr, TransError, TransExpr, TransResult, ROWID,
};
pub use ty::{infer_type, TorType, TypeEnv, TypeError};
