//! Property-based tests: the Thm. 2 equivalences and Appendix C axioms hold
//! under the axiomatic evaluator for arbitrary small relations.

use proptest::prelude::*;
use qbs_common::{FieldType, Record, Relation, Schema, SchemaRef, Value};
use qbs_tor::{eval, AggKind, CmpOp, DynValue, Env, JoinPred, Operand, Pred, TorExpr};

fn t_schema() -> SchemaRef {
    Schema::builder("t").field("a", FieldType::Int).field("b", FieldType::Int).finish()
}

fn u_schema() -> SchemaRef {
    Schema::builder("u").field("a", FieldType::Int).field("c", FieldType::Int).finish()
}

prop_compose! {
    fn arb_rel(schema: SchemaRef)(rows in prop::collection::vec((0i64..4, 0i64..4), 0..6))
        -> Relation
    {
        let records = rows
            .into_iter()
            .map(|(a, b)| Record::new(schema.clone(), vec![Value::from(a), Value::from(b)]))
            .collect();
        Relation::from_records(schema.clone(), records).expect("schema matches")
    }
}

fn env_with(r: Relation, s: Option<Relation>) -> Env {
    let mut env = Env::new();
    env.bind("r", r);
    if let Some(s) = s {
        env.bind("s", s);
    }
    env
}

fn pred_gt(field: &str, c: i64) -> Pred {
    Pred::truth().and_cmp(field.into(), CmpOp::Gt, Operand::Const(c.into()))
}

fn assert_equiv(e1: &TorExpr, e2: &TorExpr, env: &Env) {
    let v1 = eval(e1, env).expect("lhs evaluates");
    let v2 = eval(e2, env).expect("rhs evaluates");
    match (&v1, &v2) {
        (DynValue::Rel(a), DynValue::Rel(b)) => {
            let ra: Vec<_> = a.iter().map(|r| r.values().to_vec()).collect();
            let rb: Vec<_> = b.iter().map(|r| r.values().to_vec()).collect();
            assert_eq!(ra, rb, "{e1} vs {e2}");
        }
        _ => assert_eq!(v1, v2, "{e1} vs {e2}"),
    }
}

proptest! {
    /// σφ2(σφ1(r)) = σφ1∧φ2(r)
    #[test]
    fn select_select_fuses(rel in arb_rel(t_schema())) {
        let env = env_with(rel, None);
        let nested = TorExpr::select(pred_gt("a", 1), TorExpr::select(pred_gt("b", 2), TorExpr::var("r")));
        let fused = TorExpr::select(pred_gt("b", 2).and_pred(&pred_gt("a", 1)), TorExpr::var("r"));
        assert_equiv(&nested, &fused, &env);
    }

    /// σφ(πℓ(r)) = πℓ(σφ′(r))
    #[test]
    fn select_projection_commute(rel in arb_rel(t_schema())) {
        let env = env_with(rel, None);
        let lhs = TorExpr::select(pred_gt("a", 1), TorExpr::proj(vec!["a".into()], TorExpr::var("r")));
        let rhs = TorExpr::proj(vec!["a".into()], TorExpr::select(pred_gt("a", 1), TorExpr::var("r")));
        assert_equiv(&lhs, &rhs, &env);
    }

    /// tope(πℓ(r)) = πℓ(tope(r))
    #[test]
    fn top_projection_commute(rel in arb_rel(t_schema()), n in 0i64..8) {
        let env = env_with(rel, None);
        let lhs = TorExpr::top(TorExpr::proj(vec!["b".into()], TorExpr::var("r")), TorExpr::int(n));
        let rhs = TorExpr::proj(vec!["b".into()], TorExpr::top(TorExpr::var("r"), TorExpr::int(n)));
        assert_equiv(&lhs, &rhs, &env);
    }

    /// tope2(tope1(r)) = topmin(e1,e2)(r)
    #[test]
    fn top_top_fuses(rel in arb_rel(t_schema()), n in 0i64..8, m in 0i64..8) {
        let env = env_with(rel, None);
        let lhs = TorExpr::top(TorExpr::top(TorExpr::var("r"), TorExpr::int(n)), TorExpr::int(m));
        let rhs = TorExpr::top(TorExpr::var("r"), TorExpr::int(n.min(m)));
        assert_equiv(&lhs, &rhs, &env);
    }

    /// ⋈ϕ(r1, r2) = σϕ′(⋈True(r1, r2))
    #[test]
    fn join_is_filtered_cross(r in arb_rel(t_schema()), s in arb_rel(u_schema())) {
        let env = env_with(r, Some(s));
        let lhs = TorExpr::join(JoinPred::eq("a", "a"), TorExpr::var("r"), TorExpr::var("s"));
        let cross = TorExpr::join(JoinPred::truth(), TorExpr::var("r"), TorExpr::var("s"));
        let rhs = TorExpr::select(
            Pred::truth().and_cmp("t.a".into(), CmpOp::Eq, Operand::Field("u.a".into())),
            cross,
        );
        assert_equiv(&lhs, &rhs, &env);
    }

    /// ⋈ϕ(πℓ1(r1), πℓ2(r2)) = πℓ′(⋈ϕ(r1, r2))
    #[test]
    fn join_projection_commute(r in arb_rel(t_schema()), s in arb_rel(u_schema())) {
        let env = env_with(r, Some(s));
        let lhs = TorExpr::join(
            JoinPred::eq("a", "a"),
            TorExpr::proj(vec!["a".into()], TorExpr::var("r")),
            TorExpr::proj(vec!["a".into()], TorExpr::var("s")),
        );
        let rhs = TorExpr::proj(
            vec!["t.a".into(), "u.a".into()],
            TorExpr::join(JoinPred::eq("a", "a"), TorExpr::var("r"), TorExpr::var("s")),
        );
        assert_equiv(&lhs, &rhs, &env);
    }

    /// size axiom: size(top_n(r)) = min(n, size(r)); get/top consistency.
    #[test]
    fn top_get_size_axioms(rel in arb_rel(t_schema()), n in 0i64..8) {
        let env = env_with(rel.clone(), None);
        let top_n = eval(&TorExpr::top(TorExpr::var("r"), TorExpr::int(n)), &env).unwrap();
        let got = top_n.as_relation().unwrap();
        prop_assert_eq!(got.len() as i64, n.min(rel.len() as i64));
        for i in 0..got.len() {
            let g = eval(&TorExpr::get(TorExpr::var("r"), TorExpr::int(i as i64)), &env).unwrap();
            prop_assert_eq!(g.as_record().unwrap().values(), got.get(i).unwrap().values());
        }
    }

    /// append is concatenation with a singleton: axioms of Appendix C.
    #[test]
    fn append_extends_by_one(rel in arb_rel(t_schema())) {
        let env = env_with(rel.clone(), None);
        if rel.is_empty() { return Ok(()); }
        let appended = eval(
            &TorExpr::append(TorExpr::var("r"), TorExpr::get(TorExpr::var("r"), TorExpr::int(0))),
            &env,
        ).unwrap();
        let out = appended.as_relation().unwrap();
        prop_assert_eq!(out.len(), rel.len() + 1);
        prop_assert_eq!(out.get(rel.len()).unwrap().values(), rel.get(0).unwrap().values());
    }

    /// unique keeps first occurrences; distinct cardinality ≤ input.
    #[test]
    fn unique_is_idempotent(rel in arb_rel(t_schema())) {
        let env = env_with(rel, None);
        let once = eval(&TorExpr::unique(TorExpr::var("r")), &env).unwrap();
        let twice = eval(&TorExpr::unique(TorExpr::unique(TorExpr::var("r"))), &env).unwrap();
        prop_assert_eq!(once, twice);
    }

    /// sum/max/min over a projection agree with a direct fold.
    #[test]
    fn aggregates_agree_with_fold(rel in arb_rel(t_schema())) {
        let env = env_with(rel.clone(), None);
        let col = TorExpr::proj(vec!["a".into()], TorExpr::var("r"));
        let vals: Vec<i64> = rel.iter().map(|r| r.value_at(0).as_int().unwrap()).collect();
        let sum = eval(&TorExpr::agg(AggKind::Sum, col.clone()), &env).unwrap().as_int().unwrap();
        prop_assert_eq!(sum, vals.iter().sum::<i64>());
        let max = eval(&TorExpr::agg(AggKind::Max, col.clone()), &env).unwrap().as_int().unwrap();
        prop_assert_eq!(max, vals.iter().copied().fold(i64::MIN, i64::max));
        let min = eval(&TorExpr::agg(AggKind::Min, col), &env).unwrap().as_int().unwrap();
        prop_assert_eq!(min, vals.iter().copied().fold(i64::MAX, i64::min));
    }

    /// sorting is stable: equal keys preserve input order.
    #[test]
    fn sort_stability(rel in arb_rel(t_schema())) {
        let env = env_with(rel.clone(), None);
        let sorted = eval(&TorExpr::sort(vec!["a".into()], TorExpr::var("r")), &env).unwrap();
        let out = sorted.as_relation().unwrap();
        // Per key, the subsequence of `b` values must match input order.
        for key in 0..4i64 {
            let input_bs: Vec<_> = rel.iter()
                .filter(|r| r.value_at(0).as_int() == Some(key))
                .map(|r| r.value_at(1).clone())
                .collect();
            let output_bs: Vec<_> = out.iter()
                .filter(|r| r.value_at(0).as_int() == Some(key))
                .map(|r| r.value_at(1).clone())
                .collect();
            prop_assert_eq!(input_bs, output_bs);
        }
    }
}
