//! The sound Thm. 2 equivalences, checked where they are applied: each test
//! builds the nested side of one equivalence and asserts that
//! [`trans_rel`](crate::trans_rel) lowers it to the flat side, a single
//! `π(sort(σ(Query)))` over the base table.
//!
//! * `σ_φ2(σ_φ1(r)) = σ_φ1∧φ2(r)`;
//! * `π_ℓ2(π_ℓ1(r)) = π_ℓ1∘ℓ2(r)`;
//! * `σ_φ(π_ℓ(r)) = π_ℓ(σ_φ′(r))`, with `φ′` resolved against the base;
//! * `σ_φ(sort_ℓ(r)) = sort_ℓ(σ_φ(r))`;
//! * `top_e2(top_e1(r)) = top_min(e1,e2)(r)` for constant counts.
//!
//! The printed `top_e(σ_φ(r)) = σ_φ(top_e(r))` is unsound and not applied;
//! `trans::tests::select_over_top_keeps_filter_outside_limit` covers it.

#[cfg(test)]
mod tests {
    use crate::expr::{CmpOp, QuerySpec, TorExpr};
    use crate::pred::{Operand, Pred};
    use crate::trans::{trans_rel, BaseExpr, PosAtom, PosOperand, SortedExpr, TransExpr};
    use crate::ty::TypeEnv;
    use qbs_common::{FieldType, Schema, SchemaRef};

    fn t_schema() -> SchemaRef {
        Schema::builder("t").field("a", FieldType::Int).field("b", FieldType::Int).finish()
    }

    fn q() -> TorExpr {
        TorExpr::Query(QuerySpec::table_scan("t", t_schema()))
    }

    fn pa(op: CmpOp, c: i64) -> Pred {
        Pred::truth().and_cmp("a".into(), op, Operand::Const(c.into()))
    }

    /// `a op c` against base column 0 (`t.a`).
    fn on_a(op: CmpOp, c: i64) -> PosAtom {
        PosAtom::Cmp { lhs: 0, op, rhs: PosOperand::Const(c.into()) }
    }

    /// Lowers `e`, which must translate to a single sorted expression
    /// directly over the table scan.
    fn flat(e: &TorExpr) -> SortedExpr {
        match trans_rel(e, &TypeEnv::new()).unwrap() {
            TransExpr::Sorted(s) => {
                assert!(matches!(s.base, BaseExpr::Query(_)), "nested base in {e}");
                s
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_selects_fuse() {
        let e = TorExpr::select(pa(CmpOp::Lt, 9), TorExpr::select(pa(CmpOp::Gt, 0), q()));
        let s = flat(&e);
        assert_eq!(s.filter, vec![on_a(CmpOp::Gt, 0), on_a(CmpOp::Lt, 9)]);
        assert_eq!(s.proj, vec![0, 1]);
    }

    #[test]
    fn select_pushes_through_projection() {
        // `a` is column 1 of π_[b,a] but column 0 of the base.
        let e =
            TorExpr::select(pa(CmpOp::Gt, 0), TorExpr::proj(vec!["b".into(), "a".into()], q()));
        let s = flat(&e);
        assert_eq!(s.proj, vec![1, 0]);
        assert_eq!(s.filter, vec![on_a(CmpOp::Gt, 0)]);
    }

    #[test]
    fn projections_compose() {
        let e =
            TorExpr::proj(vec!["a".into()], TorExpr::proj(vec!["b".into(), "a".into()], q()));
        let s = flat(&e);
        assert_eq!(s.proj, vec![0]);
        assert!(s.filter.is_empty() && s.sort.is_empty());
    }

    #[test]
    fn tops_fuse_to_min() {
        let e = TorExpr::top(TorExpr::top(q(), TorExpr::int(7)), TorExpr::int(3));
        match trans_rel(&e, &TypeEnv::new()).unwrap() {
            TransExpr::Top(s, n) => {
                assert_eq!(*n, TorExpr::int(3));
                assert!(matches!(s.base, BaseExpr::Query(_)), "inner top must not nest");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_pushes_through_sort() {
        let e = TorExpr::select(pa(CmpOp::Gt, 0), TorExpr::sort(vec!["b".into()], q()));
        let s = flat(&e);
        assert_eq!(s.sort, vec![1]);
        assert_eq!(s.filter, vec![on_a(CmpOp::Gt, 0)]);
    }

    #[test]
    fn deep_rewrites_reach_fixpoint() {
        // π_[a](σ(π_[b,a](σ(sort_[b](σ(q)))))) lowers to one flat
        // π(sort(σ(q))) with three conjuncts.
        let e = TorExpr::proj(
            vec!["a".into()],
            TorExpr::select(
                pa(CmpOp::Lt, 9),
                TorExpr::proj(
                    vec!["b".into(), "a".into()],
                    TorExpr::select(
                        pa(CmpOp::Ne, 5),
                        TorExpr::sort(vec!["b".into()], TorExpr::select(pa(CmpOp::Gt, 0), q())),
                    ),
                ),
            ),
        );
        let s = flat(&e);
        assert_eq!(s.proj, vec![0]);
        assert_eq!(s.sort, vec![1]);
        assert_eq!(s.filter, vec![on_a(CmpOp::Gt, 0), on_a(CmpOp::Ne, 5), on_a(CmpOp::Lt, 9)]);
    }
}
