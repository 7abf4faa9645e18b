//! Translatable expressions and the `Trans` normalization (paper Sec. 3.2
//! and Appendix B).
//!
//! A TOR expression can be compiled to SQL when it fits the grammar
//!
//! ```text
//! b ∈ baseExp   ::= Query(...) | top_e(s) | ⋈_True(b1, b2) | agg(t)
//! s ∈ sortedExp ::= π_ℓπ(sort_ℓs(σ_φ(b)))
//! t ∈ transExp  ::= s | top_e(s)           (unique(t) at the outermost level)
//! ```
//!
//! [`trans`] maps any `append`/`unique`-free expression into this form using
//! the algebraic equivalences of Thm. 2. Internally, field references are
//! resolved to **positions** in the base schema so that projection
//! composition and cross-product offsetting are mechanical; the SQL printer
//! maps positions back to column names.
//!
//! ## Soundness deviations from the paper
//!
//! Thm. 2 as printed includes `top_e(σ_φ(r)) = σ_φ(top_e(r))`, which does not
//! hold for ordered lists (filtering after a limit is not limiting after a
//! filter), so that rewrite is omitted on purpose. A selection applied to a
//! `top` stays *outside* the limit instead, by nesting the `top` as a
//! sub-query base — still within the grammar, and semantics-preserving.

use crate::expr::{AggKind, BinOp, CmpOp, GroupSpec, QuerySpec, TorExpr};
use crate::pred::{Operand, Pred, PredAtom, Probe};
use crate::ty::{infer_type, TorType, TypeEnv, TypeError};
use qbs_common::{CommonError, Field, FieldRef, Ident, Schema, SchemaRef, Value};
use std::fmt;

/// Errors from [`trans`].
#[derive(Clone, Debug, PartialEq)]
pub enum TransError {
    /// The expression falls outside the translatable fragment (`append`,
    /// nested `unique`, bare `get`, unresolved relation variables, …).
    NotTranslatable(String),
    /// The expression is ill-typed.
    Type(TypeError),
    /// A field reference failed to resolve.
    Field(CommonError),
}

impl fmt::Display for TransError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransError::NotTranslatable(what) => write!(f, "not translatable to SQL: {what}"),
            TransError::Type(e) => write!(f, "{e}"),
            TransError::Field(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TransError {}

impl From<TypeError> for TransError {
    fn from(e: TypeError) -> Self {
        TransError::Type(e)
    }
}

impl From<CommonError> for TransError {
    fn from(e: CommonError) -> Self {
        TransError::Field(e)
    }
}

type Result<T> = std::result::Result<T, TransError>;

/// Operand of a positional predicate atom.
#[derive(Clone, Debug, PartialEq)]
pub enum PosOperand {
    /// Literal constant.
    Const(Value),
    /// Another column (by base-schema position).
    Col(usize),
    /// Program variable — a bind parameter in the generated SQL.
    Param(Ident),
}

/// What a positional `contains` atom probes with.
#[derive(Clone, Debug, PartialEq)]
pub enum PosProbe {
    /// The whole row.
    Record,
    /// One column (by base-schema position).
    Col(usize),
}

/// One conjunct of a positional filter.
#[derive(Clone, Debug, PartialEq)]
pub enum PosAtom {
    /// `col op operand`.
    Cmp {
        /// Base-schema position of the left column.
        lhs: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        rhs: PosOperand,
    },
    /// `probe IN (subquery)`.
    Contains {
        /// Row or column probed.
        probe: PosProbe,
        /// The sub-query searched.
        rel: Box<TransExpr>,
    },
}

/// A base expression `b` of the translatable grammar.
#[derive(Clone, Debug, PartialEq)]
pub enum BaseExpr {
    /// A table retrieval.
    Query(QuerySpec),
    /// `top_e(s)` used as a base (becomes a `FROM (… LIMIT e)` sub-query).
    Top(Box<SortedExpr>, Box<TorExpr>),
    /// Cross product `⋈_True(b1, b2)`.
    Cross(Box<BaseExpr>, Box<BaseExpr>),
    /// An aggregate used as a (single-row, single-column) base.
    Agg(AggKind, Box<TransExpr>),
}

impl BaseExpr {
    /// The schema of the rows this base produces. `Query` fields are
    /// qualified by their table name so that cross products stay resolvable.
    pub fn schema(&self) -> SchemaRef {
        match self {
            BaseExpr::Query(q) => {
                let mut b = Schema::builder(q.table.clone());
                for f in q.schema.fields() {
                    let qf = if f.qualifier.is_none() {
                        Field::qualified(q.table.clone(), f.name.clone(), f.ty)
                    } else {
                        f.clone()
                    };
                    b = b.push(qf);
                }
                b.finish()
            }
            BaseExpr::Top(s, _) => s.output_schema(),
            BaseExpr::Cross(a, b) => Schema::join(&a.schema(), &b.schema()).into_ref(),
            BaseExpr::Agg(kind, _) => Schema::anonymous()
                .field(format!("{}", kind).as_str(), qbs_common::FieldType::Int)
                .finish(),
        }
    }
}

/// A sorted expression `s = π_ℓπ(sort_ℓs(σ_φ(b)))` with positions resolved
/// against the base schema.
#[derive(Clone, Debug, PartialEq)]
pub struct SortedExpr {
    /// Projection: output column `k` is base column `proj[k]`.
    pub proj: Vec<usize>,
    /// Sort key positions in the base schema (primary first).
    pub sort: Vec<usize>,
    /// Conjunctive filter over base columns.
    pub filter: Vec<PosAtom>,
    /// The base.
    pub base: BaseExpr,
}

impl SortedExpr {
    /// The identity sorted expression over a base: project everything, no
    /// sort, no filter.
    pub fn identity(base: BaseExpr) -> SortedExpr {
        let arity = base.schema().arity();
        SortedExpr { proj: (0..arity).collect(), sort: Vec::new(), filter: Vec::new(), base }
    }

    /// Schema of the projected output.
    pub fn output_schema(&self) -> SchemaRef {
        let base = self.base.schema();
        let mut b = Schema::anonymous();
        for &p in &self.proj {
            b = b.push(base.fields()[p].clone());
        }
        b.finish()
    }
}

/// A grouped aggregation in translatable form: `GROUP BY` over a sorted
/// input, with `HAVING` conjuncts over the grouped output.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupedExpr {
    /// The grouped input; its filter becomes `WHERE`.
    pub input: SortedExpr,
    /// Base-schema positions of the group key columns.
    pub keys: Vec<usize>,
    /// Output names of the key columns.
    pub key_names: Vec<Ident>,
    /// The per-group aggregate.
    pub agg: AggKind,
    /// Base-schema position of the aggregated column (`None` for `Count`).
    pub agg_col: Option<usize>,
    /// Output name of the aggregate column.
    pub val_name: Ident,
    /// `HAVING` conjuncts; positions index the grouped output layout
    /// (`keys…, val`).
    pub having: Vec<PosAtom>,
}

impl GroupedExpr {
    /// Schema of the grouped output: key columns (renamed) then the
    /// aggregate value.
    pub fn output_schema(&self) -> SchemaRef {
        let base = self.input.base.schema();
        let mut b = Schema::anonymous();
        for (&p, name) in self.keys.iter().zip(&self.key_names) {
            b = b.field(name.as_str(), base.fields()[p].ty);
        }
        b.field(self.val_name.as_str(), qbs_common::FieldType::Int).finish()
    }
}

/// A translatable relation-valued expression.
#[derive(Clone, Debug, PartialEq)]
pub enum TransExpr {
    /// `s`.
    Sorted(SortedExpr),
    /// `top_e(s)` — SQL `LIMIT`.
    Top(SortedExpr, Box<TorExpr>),
    /// `unique(t)` — SQL `SELECT DISTINCT`, outermost level only.
    Unique(Box<TransExpr>),
    /// `group[spec](s)` — SQL `GROUP BY` (with optional `HAVING`).
    Grouped(GroupedExpr),
}

impl TransExpr {
    /// Schema of the produced rows.
    pub fn output_schema(&self) -> SchemaRef {
        match self {
            TransExpr::Sorted(s) | TransExpr::Top(s, _) => s.output_schema(),
            TransExpr::Unique(t) => t.output_schema(),
            TransExpr::Grouped(g) => g.output_schema(),
        }
    }
}

/// The right-hand side of a scalar comparison in a [`ScalarQuery`].
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarRhs {
    /// Literal.
    Const(Value),
    /// Program variable (bind parameter).
    Param(Ident),
}

/// A scalar-producing translatable query: `agg(t)` optionally compared to a
/// constant (the paper's `SELECT COUNT(*) > 0 FROM …` existence idiom).
#[derive(Clone, Debug, PartialEq)]
pub struct ScalarQuery {
    /// The aggregate.
    pub agg: AggKind,
    /// The relation aggregated over.
    pub input: TransExpr,
    /// Optional trailing comparison, making the result boolean.
    pub compare: Option<(CmpOp, ScalarRhs)>,
}

/// Result of translating a postcondition right-hand side.
#[derive(Clone, Debug, PartialEq)]
pub enum TransResult {
    /// A relation-valued query.
    Rel(TransExpr),
    /// A scalar (or boolean) valued query.
    Scalar(ScalarQuery),
}

fn not_translatable<T>(what: impl Into<String>) -> Result<T> {
    Err(TransError::NotTranslatable(what.into()))
}

/// Resolves `refs` against `schema`, producing positions.
fn positions(refs: &[FieldRef], schema: &SchemaRef) -> Result<Vec<usize>> {
    refs.iter().map(|r| schema.index_of(r).map_err(TransError::from)).collect()
}

/// Converts a [`Pred`] whose references resolve against `elem` (an output
/// schema) into positional atoms against the base, going through `proj`.
fn lower_pred(
    pred: &Pred,
    elem: &SchemaRef,
    proj: &[usize],
    tenv: &TypeEnv,
) -> Result<Vec<PosAtom>> {
    let mut atoms = Vec::with_capacity(pred.atoms().len());
    for a in pred.atoms() {
        match a {
            PredAtom::Cmp { lhs, op, rhs } => {
                let l = proj[elem.index_of(lhs)?];
                let r = match rhs {
                    Operand::Const(v) => PosOperand::Const(v.clone()),
                    Operand::Field(fr) => PosOperand::Col(proj[elem.index_of(fr)?]),
                    Operand::Param(p) => PosOperand::Param(p.clone()),
                };
                atoms.push(PosAtom::Cmp { lhs: l, op: *op, rhs: r });
            }
            PredAtom::Contains { probe, rel } => {
                let sub = trans_rel(rel, tenv)?;
                let p = match probe {
                    Probe::Record => PosProbe::Record,
                    Probe::Field(fr) => PosProbe::Col(proj[elem.index_of(fr)?]),
                };
                atoms.push(PosAtom::Contains { probe: p, rel: Box::new(sub) });
            }
        }
    }
    Ok(atoms)
}

/// Converts any translatable relation expression into a [`SortedExpr`],
/// wrapping `top` forms as sub-query bases.
fn to_sorted(t: TransExpr) -> Result<SortedExpr> {
    match t {
        TransExpr::Sorted(s) => Ok(s),
        TransExpr::Top(s, e) => Ok(SortedExpr::identity(BaseExpr::Top(Box::new(s), e))),
        TransExpr::Unique(_) => {
            not_translatable("unique may only appear at the outermost level")
        }
        TransExpr::Grouped(_) => {
            not_translatable("grouped output may only be filtered (HAVING) or returned")
        }
    }
}

fn shift_operand(op: PosOperand, by: usize) -> PosOperand {
    match op {
        PosOperand::Col(c) => PosOperand::Col(c + by),
        other => other,
    }
}

fn shift_atoms(atoms: Vec<PosAtom>, by: usize) -> Vec<PosAtom> {
    atoms
        .into_iter()
        .map(|a| match a {
            PosAtom::Cmp { lhs, op, rhs } => {
                PosAtom::Cmp { lhs: lhs + by, op, rhs: shift_operand(rhs, by) }
            }
            PosAtom::Contains { probe, rel } => {
                let probe = match probe {
                    PosProbe::Col(c) => PosProbe::Col(c + by),
                    PosProbe::Record => PosProbe::Record,
                };
                PosAtom::Contains { probe, rel }
            }
        })
        .collect()
}

/// Resolves a [`GroupSpec`] against the element schema of its input,
/// producing base-schema key/aggregate positions through the input's
/// projection.
fn lower_group(spec: &GroupSpec, elem: &SchemaRef, s: SortedExpr) -> Result<GroupedExpr> {
    let mut keys = Vec::with_capacity(spec.keys.len());
    let mut key_names = Vec::with_capacity(spec.keys.len());
    for (name, src) in &spec.keys {
        keys.push(s.proj[elem.index_of(src)?]);
        key_names.push(name.clone());
    }
    let agg_col = match (spec.agg, &spec.agg_field) {
        (AggKind::Count, _) => None,
        (_, Some(fr)) => Some(s.proj[elem.index_of(fr)?]),
        (_, None) => {
            return not_translatable(format!("group {} without an aggregated field", spec.agg))
        }
    };
    Ok(GroupedExpr {
        input: s,
        keys,
        key_names,
        agg: spec.agg,
        agg_col,
        val_name: spec.val_name.clone(),
        having: Vec::new(),
    })
}

/// Translates a relation-valued TOR expression into translatable form
/// (the `Trans` function of Appendix B).
pub fn trans_rel(e: &TorExpr, tenv: &TypeEnv) -> Result<TransExpr> {
    match e {
        TorExpr::Query(q) => {
            Ok(TransExpr::Sorted(SortedExpr::identity(BaseExpr::Query(q.clone()))))
        }
        TorExpr::Var(v) => not_translatable(format!(
            "relation variable `{v}` was not substituted by its defining query"
        )),
        TorExpr::Proj(fields, inner) => {
            let elem = match infer_type(inner, tenv)? {
                TorType::Rel(s) => s,
                other => {
                    return not_translatable(format!("projection over non-relation ({other})"))
                }
            };
            let idx = positions(fields, &elem)?;
            match trans_rel(inner, tenv)? {
                TransExpr::Sorted(s) => {
                    let proj = idx.iter().map(|&k| s.proj[k]).collect();
                    Ok(TransExpr::Sorted(SortedExpr { proj, ..s }))
                }
                // π_ℓ(top_e(s)) = top_e(π_ℓ(s)) — sound for ordered lists.
                TransExpr::Top(s, e2) => {
                    let proj = idx.iter().map(|&k| s.proj[k]).collect();
                    Ok(TransExpr::Top(SortedExpr { proj, ..s }, e2))
                }
                TransExpr::Unique(_) => {
                    not_translatable("projection over unique is outside the grammar")
                }
                TransExpr::Grouped(_) => {
                    not_translatable("projection over a grouped output is outside the grammar")
                }
            }
        }
        TorExpr::Select(pred, inner) => {
            let elem = match infer_type(inner, tenv)? {
                TorType::Rel(s) => s,
                other => {
                    return not_translatable(format!("selection over non-relation ({other})"))
                }
            };
            match trans_rel(inner, tenv)? {
                TransExpr::Sorted(mut s) => {
                    let atoms = lower_pred(pred, &elem, &s.proj, tenv)?;
                    s.filter.extend(atoms);
                    Ok(TransExpr::Sorted(s))
                }
                // Keep the filter OUTSIDE the limit (see module docs):
                // σ_φ(top_e(s)) becomes σ_φ over the sub-query base.
                top @ TransExpr::Top(..) => {
                    let mut s = to_sorted(top)?;
                    let atoms = lower_pred(pred, &elem, &s.proj, tenv)?;
                    s.filter.extend(atoms);
                    Ok(TransExpr::Sorted(s))
                }
                TransExpr::Unique(_) => {
                    not_translatable("selection over unique is outside the grammar")
                }
                // σ over a grouped output is HAVING: atoms resolve against
                // the grouped layout (keys…, val).
                TransExpr::Grouped(mut g) => {
                    let out = g.output_schema();
                    let identity: Vec<usize> = (0..out.arity()).collect();
                    let atoms = lower_pred(pred, &out, &identity, tenv)?;
                    g.having.extend(atoms);
                    Ok(TransExpr::Grouped(g))
                }
            }
        }
        TorExpr::Join(pred, l, r) => {
            let (ls, rs) = match (infer_type(l, tenv)?, infer_type(r, tenv)?) {
                (TorType::Rel(a), TorType::Rel(b)) => (a, b),
                _ => {
                    return not_translatable(
                        "join of non-relations (record joins are invariant-only)",
                    )
                }
            };
            let sl = to_sorted(trans_rel(l, tenv)?)?;
            let sr = to_sorted(trans_rel(r, tenv)?)?;
            let left_arity = sl.base.schema().arity();
            let base = BaseExpr::Cross(Box::new(sl.base), Box::new(sr.base));
            let mut filter = sl.filter;
            filter.extend(shift_atoms(sr.filter, left_arity));
            for atom in pred.atoms() {
                let li = sl.proj[ls.index_of(&atom.left)?];
                let ri = left_arity + sr.proj[rs.index_of(&atom.right)?];
                filter.push(PosAtom::Cmp { lhs: li, op: atom.op, rhs: PosOperand::Col(ri) });
            }
            let mut sort = sl.sort;
            sort.extend(sr.sort.iter().map(|&p| p + left_arity));
            let mut proj = sl.proj;
            proj.extend(sr.proj.iter().map(|&p| p + left_arity));
            Ok(TransExpr::Sorted(SortedExpr { proj, sort, filter, base }))
        }
        TorExpr::Top(inner, count) => match trans_rel(inner, tenv)? {
            TransExpr::Sorted(s) => Ok(TransExpr::Top(s, Box::new((**count).clone()))),
            TransExpr::Top(s, e1) => {
                // top_e2(top_e1(s)) = top_min(e1,e2)(s) when both constant;
                // otherwise nest the inner top as a base.
                if let (TorExpr::Const(Value::Int(a)), TorExpr::Const(Value::Int(b))) =
                    (&*e1, &**count)
                {
                    let m = (*a).min(*b);
                    Ok(TransExpr::Top(s, Box::new(TorExpr::int(m))))
                } else {
                    let nested = SortedExpr::identity(BaseExpr::Top(Box::new(s), e1));
                    Ok(TransExpr::Top(nested, Box::new((**count).clone())))
                }
            }
            TransExpr::Unique(_) => not_translatable("top over unique is outside the grammar"),
            TransExpr::Grouped(_) => {
                not_translatable("top over a grouped output is outside the grammar")
            }
        },
        TorExpr::Sort(fields, inner) => {
            let elem = match infer_type(inner, tenv)? {
                TorType::Rel(s) => s,
                other => return not_translatable(format!("sort over non-relation ({other})")),
            };
            let idx = positions(fields, &elem)?;
            match trans_rel(inner, tenv)? {
                TransExpr::Sorted(s) => {
                    // Outer sort keys take precedence; the previous keys
                    // break ties (stable sort composition).
                    let mut sort: Vec<usize> = idx.iter().map(|&k| s.proj[k]).collect();
                    sort.extend(s.sort.iter().copied());
                    Ok(TransExpr::Sorted(SortedExpr { sort, ..s }))
                }
                top @ TransExpr::Top(..) => {
                    let s = to_sorted(top)?;
                    let mut sort: Vec<usize> = idx.iter().map(|&k| s.proj[k]).collect();
                    sort.extend(s.sort.iter().copied());
                    Ok(TransExpr::Sorted(SortedExpr { sort, ..s }))
                }
                TransExpr::Unique(_) => {
                    not_translatable("sort over unique is outside the grammar")
                }
                TransExpr::Grouped(_) => {
                    not_translatable("sort over a grouped output is outside the grammar")
                }
            }
        }
        TorExpr::Unique(inner) => Ok(TransExpr::Unique(Box::new(trans_rel(inner, tenv)?))),
        TorExpr::Group(spec, inner) => {
            let elem = match infer_type(inner, tenv)? {
                TorType::Rel(s) => s,
                other => return not_translatable(format!("group over non-relation ({other})")),
            };
            let s = to_sorted(trans_rel(inner, tenv)?)?;
            let grouped = lower_group(spec, &elem, s)?;
            Ok(TransExpr::Grouped(grouped))
        }
        TorExpr::Append(..) | TorExpr::Concat(..) => {
            not_translatable("append/concatenation has no order-preserving SQL equivalent")
        }
        TorExpr::Get(..) => not_translatable("get denotes a single record, not a relation"),
        other => not_translatable(format!("expression `{other}` is outside the grammar")),
    }
}

/// Translates a postcondition right-hand side — relation- or scalar-valued —
/// into SQL-ready form.
///
/// # Errors
///
/// Returns [`TransError::NotTranslatable`] for expressions outside the
/// translatable fragment (`append`, nested `unique`, bare `get`, …).
///
/// # Example
///
/// ```
/// use qbs_common::{Schema, FieldType};
/// use qbs_tor::{trans, QuerySpec, TorExpr, TypeEnv, TransResult};
///
/// let users = Schema::builder("users").field("id", FieldType::Int).finish();
/// let q = TorExpr::Query(QuerySpec::table_scan("users", users));
/// let r = trans(&TorExpr::size(q), &TypeEnv::new()).unwrap();
/// assert!(matches!(r, TransResult::Scalar(_)));
/// ```
pub fn trans(e: &TorExpr, tenv: &TypeEnv) -> Result<TransResult> {
    match e {
        TorExpr::Agg(kind, inner) => Ok(TransResult::Scalar(ScalarQuery {
            agg: *kind,
            input: trans_rel(inner, tenv)?,
            compare: None,
        })),
        TorExpr::Size(inner) => Ok(TransResult::Scalar(ScalarQuery {
            agg: AggKind::Count,
            input: trans_rel(inner, tenv)?,
            compare: None,
        })),
        TorExpr::Binary(BinOp::Cmp(op), a, b) => {
            // agg(t) op const / param — e.g. the existence idiom COUNT(*) > 0.
            let (agg_side, op, rhs) = match (&**a, &**b) {
                (TorExpr::Agg(..) | TorExpr::Size(..), rhs) => (&**a, *op, rhs),
                (lhs, TorExpr::Agg(..) | TorExpr::Size(..)) => (&**b, op.flip(), lhs),
                _ => return not_translatable("comparison without an aggregate side"),
            };
            let rhs = match rhs {
                TorExpr::Const(v) => ScalarRhs::Const(v.clone()),
                TorExpr::Var(v) => ScalarRhs::Param(v.clone()),
                other => return not_translatable(format!("comparison right side `{other}`")),
            };
            match trans(agg_side, tenv)? {
                TransResult::Scalar(mut s) if s.compare.is_none() => {
                    s.compare = Some((op, rhs));
                    Ok(TransResult::Scalar(s))
                }
                _ => not_translatable("nested comparisons"),
            }
        }
        _ => Ok(TransResult::Rel(trans_rel(e, tenv)?)),
    }
}

/// The hidden column name standing for "record order in the database"
/// (paper Fig. 9: `Order(Query(...)) = [record order in DB]`). The engine in
/// `qbs-db` materializes it as an implicit monotone row id.
pub const ROWID: &str = "rowid";

fn base_order(b: &BaseExpr) -> Vec<FieldRef> {
    match b {
        BaseExpr::Query(q) => vec![FieldRef::qualified(q.table.clone(), ROWID)],
        BaseExpr::Top(s, _) => sorted_order(s),
        BaseExpr::Cross(a, b) => {
            let mut v = base_order(a);
            v.extend(base_order(b));
            v
        }
        BaseExpr::Agg(..) => Vec::new(),
    }
}

fn sorted_order(s: &SortedExpr) -> Vec<FieldRef> {
    let schema = s.base.schema();
    let mut v: Vec<FieldRef> = s
        .sort
        .iter()
        .map(|&p| {
            let f = &schema.fields()[p];
            FieldRef { qualifier: f.qualifier.clone(), name: f.name.clone() }
        })
        .collect();
    v.extend(base_order(&s.base));
    v
}

/// The `Order` function of Fig. 9: the list of fields that fix the record
/// order of a translatable expression, to be emitted as the outer `ORDER BY`.
///
/// `Order(Query(t))` is the hidden `t.rowid` column; `Order(sort_ℓ(e))`
/// prepends `ℓ`; joins concatenate; aggregates contribute nothing.
pub fn order_fields(t: &TransExpr) -> Vec<FieldRef> {
    match t {
        TransExpr::Sorted(s) | TransExpr::Top(s, _) => sorted_order(s),
        TransExpr::Unique(inner) => order_fields(inner),
        // Grouped output has no rowid-derived order; like aggregates, it
        // contributes nothing (the engine's hash aggregate fixes the order
        // to first key occurrence, compared as a multiset downstream).
        TransExpr::Grouped(_) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::JoinPred;
    use qbs_common::FieldType;

    fn users() -> SchemaRef {
        Schema::builder("users")
            .field("id", FieldType::Int)
            .field("roleId", FieldType::Int)
            .finish()
    }

    fn roles() -> SchemaRef {
        Schema::builder("roles")
            .field("roleId", FieldType::Int)
            .field("label", FieldType::Str)
            .finish()
    }

    fn q(table: &str, s: SchemaRef) -> TorExpr {
        TorExpr::Query(QuerySpec::table_scan(table, s))
    }

    #[test]
    fn query_is_identity_sorted() {
        let t = trans_rel(&q("users", users()), &TypeEnv::new()).unwrap();
        match t {
            TransExpr::Sorted(s) => {
                assert_eq!(s.proj, vec![0, 1]);
                assert!(s.filter.is_empty());
                assert!(s.sort.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_then_project_compose() {
        let tenv = TypeEnv::new();
        let p = Pred::truth().and_cmp("roleId".into(), CmpOp::Eq, Operand::Const(10.into()));
        let e = TorExpr::proj(vec!["id".into()], TorExpr::select(p, q("users", users())));
        match trans_rel(&e, &tenv).unwrap() {
            TransExpr::Sorted(s) => {
                assert_eq!(s.proj, vec![0]);
                assert_eq!(s.filter.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn join_becomes_cross_with_filter() {
        let tenv = TypeEnv::new();
        let e = TorExpr::join(
            JoinPred::eq("roleId", "roleId"),
            q("users", users()),
            q("roles", roles()),
        );
        match trans_rel(&e, &tenv).unwrap() {
            TransExpr::Sorted(s) => {
                assert!(matches!(s.base, BaseExpr::Cross(..)));
                assert_eq!(s.proj, vec![0, 1, 2, 3]);
                // users.roleId (pos 1) = roles.roleId (pos 2)
                assert_eq!(
                    s.filter,
                    vec![PosAtom::Cmp { lhs: 1, op: CmpOp::Eq, rhs: PosOperand::Col(2) }]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn projection_after_join_maps_positions() {
        let tenv = TypeEnv::new();
        let join = TorExpr::join(
            JoinPred::eq("roleId", "roleId"),
            q("users", users()),
            q("roles", roles()),
        );
        // Keep only the user columns (the paper's running example).
        let e = TorExpr::proj(vec!["users.id".into(), "users.roleId".into()], join);
        match trans_rel(&e, &tenv).unwrap() {
            TransExpr::Sorted(s) => assert_eq!(s.proj, vec![0, 1]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn top_of_top_takes_min_of_constants() {
        let tenv = TypeEnv::new();
        let e =
            TorExpr::top(TorExpr::top(q("users", users()), TorExpr::int(7)), TorExpr::int(3));
        match trans_rel(&e, &tenv).unwrap() {
            TransExpr::Top(_, e) => assert_eq!(*e, TorExpr::int(3)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_over_top_keeps_filter_outside_limit() {
        let tenv = TypeEnv::new();
        let p = Pred::truth().and_cmp("id".into(), CmpOp::Gt, Operand::Const(0.into()));
        let e = TorExpr::select(p, TorExpr::top(q("users", users()), TorExpr::int(5)));
        match trans_rel(&e, &tenv).unwrap() {
            TransExpr::Sorted(s) => {
                assert!(matches!(s.base, BaseExpr::Top(..)), "limit must nest under filter");
                assert_eq!(s.filter.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn append_is_rejected() {
        let tenv = TypeEnv::new();
        let e = TorExpr::concat(q("users", users()), q("users", users()));
        assert!(matches!(trans_rel(&e, &tenv), Err(TransError::NotTranslatable(_))));
    }

    #[test]
    fn unique_only_at_outermost() {
        let tenv = TypeEnv::new();
        let ok = TorExpr::unique(TorExpr::proj(vec!["roleId".into()], q("users", users())));
        assert!(matches!(trans_rel(&ok, &tenv), Ok(TransExpr::Unique(_))));
        let bad = TorExpr::proj(vec!["roleId".into()], TorExpr::unique(q("users", users())));
        assert!(trans_rel(&bad, &tenv).is_err());
    }

    #[test]
    fn scalar_count_with_comparison() {
        let tenv = TypeEnv::new();
        let e = TorExpr::cmp(
            CmpOp::Gt,
            TorExpr::agg(AggKind::Count, q("users", users())),
            TorExpr::int(0),
        );
        match trans(&e, &tenv).unwrap() {
            TransResult::Scalar(s) => {
                assert_eq!(s.agg, AggKind::Count);
                assert_eq!(s.compare, Some((CmpOp::Gt, ScalarRhs::Const(0.into()))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn order_fields_of_join_concatenates_rowids() {
        let tenv = TypeEnv::new();
        let e = TorExpr::join(
            JoinPred::eq("roleId", "roleId"),
            q("users", users()),
            q("roles", roles()),
        );
        let t = trans_rel(&e, &tenv).unwrap();
        let ord = order_fields(&t);
        assert_eq!(
            ord,
            vec![FieldRef::qualified("users", ROWID), FieldRef::qualified("roles", ROWID),]
        );
    }

    #[test]
    fn order_fields_of_sort_prepends_keys() {
        let tenv = TypeEnv::new();
        let e = TorExpr::sort(vec!["id".into()], q("users", users()));
        let t = trans_rel(&e, &tenv).unwrap();
        let ord = order_fields(&t);
        assert_eq!(ord[0], FieldRef::qualified("users", "id"));
        assert_eq!(ord[1], FieldRef::qualified("users", ROWID));
    }
}
