//! Metamorphic relations over the plan executor. Each check runs related
//! queries through the *same* engine and demands an identity between
//! their results, so the executor needs no second implementation as its
//! test oracle. This is the style of Ternary Logic Partitioning (Rigger &
//! Su, "Finding Bugs in Database Systems via Query Partitioning", OOPSLA
//! 2020); qbs-db has no NULL, so every partition is two-way and exact.
//!
//! * **ordering** — `ORDER BY k [DESC]` output is sorted on `k` and is a
//!   permutation of the unordered query's rows;
//! * **DISTINCT** — the output has no duplicates and the same set of rows
//!   as without DISTINCT;
//! * **paging** — under an `ORDER BY`, the pages `LIMIT a OFFSET b` for
//!   b = 0, a, 2a, … concatenate to the unpaged result;
//! * **partition** — `rows(Q WHERE w)` = `rows(Q WHERE w AND p)` ⊎
//!   `rows(Q WHERE w AND NOT p)` on unpaged queries (a set union under
//!   DISTINCT);
//! * **grouping** — the per-group `COUNT`s sum to the `COUNT(*)` of the
//!   WHERE, and `HAVING h` equals filtering the groups of the same query
//!   without HAVING;
//! * **binding** — a statement with bind parameters returns the same rows
//!   as the same statement with the literals inlined
//!   (`render_query_bound`);
//! * **join keys** — an equi-join (a hash join) returns the same rows, in
//!   the same order, as the same join spelled `a <= b AND a >= b` (a
//!   nested loop).
//!
//! Generated queries run over the corpus `users`, `roles` and `projects`
//! tables of three seeded universes. The translated corpus statements run
//! under partition, binding and join keys on the same three universes;
//! the corpus is synthesized once per test binary.

use proptest::prelude::*;
use qbs::FragmentStatus;
use qbs_batch::{BatchConfig, BatchInput, BatchRunner};
use qbs_common::{Ident, Record, Relation, Value};
use qbs_corpus::{populate_universe, ExpectedStatus};
use qbs_db::{rows_diff, Connection, Params, QueryOutput, RowsEquivalence};
use qbs_sql::{parse, render_query_bound, Dialect, FromItem, OrderKey, SqlExpr, SqlQuery};
use qbs_sql::{SelectItem, SqlSelect};
use qbs_tor::CmpOp;
use std::sync::OnceLock;

/// One connection per seeded universe (seeds 1, 2, 3), shared by every
/// test of this binary.
fn conn(seed: u64) -> &'static Connection {
    static CONNS: OnceLock<Vec<Connection>> = OnceLock::new();
    let conns =
        CONNS.get_or_init(|| (1..=3).map(|s| Connection::open(populate_universe(s))).collect());
    &conns[seed as usize - 1]
}

/// Every translated corpus statement, synthesized once.
fn corpus() -> &'static [(String, SqlQuery)] {
    static CORPUS: OnceLock<Vec<(String, SqlQuery)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        // Only the fragments the paper translates: the others exhaust the
        // search and would dominate this binary's run time.
        let inputs: Vec<BatchInput> = qbs_corpus::all_fragments()
            .iter()
            .filter(|f| f.expected == ExpectedStatus::Translated)
            .map(BatchInput::from)
            .collect();
        let report = BatchRunner::new(BatchConfig::new()).run(&inputs);
        let out: Vec<(String, SqlQuery)> = report
            .fragments
            .into_iter()
            .filter_map(|fr| match fr.status {
                FragmentStatus::Translated { sql, .. } => Some((fr.method, sql)),
                _ => None,
            })
            .collect();
        assert_eq!(out.len(), 33, "the paper's 33 translated fragments");
        out
    })
}

fn try_run(conn: &Connection, q: &SqlQuery, params: &Params) -> Result<QueryOutput, String> {
    let stmt = conn.prepare_query(q);
    conn.execute(&stmt, params).map_err(|e| format!("{q}: {e}"))
}

fn run(conn: &Connection, q: &SqlQuery, params: &Params) -> QueryOutput {
    try_run(conn, q, params).unwrap_or_else(|e| panic!("{e}"))
}

fn rows(conn: &Connection, q: &SqlSelect, params: &Params) -> Relation {
    match run(conn, &SqlQuery::Select(q.clone()), params) {
        QueryOutput::Rows(out) => out.rows,
        other => panic!("{q}: expected rows, got {other:?}"),
    }
}

fn values(r: &Relation) -> Vec<Vec<Value>> {
    r.iter().map(|rec| rec.values().to_vec()).collect()
}

/// `rows` as a relation under `like`'s schema (for comparing row lists
/// assembled from several results).
fn relation(like: &Relation, rows: Vec<Vec<Value>>) -> Relation {
    let schema = like.schema().clone();
    let records = rows.into_iter().map(|r| Record::new(schema.clone(), r)).collect();
    Relation::from_records(schema, records).expect("same arity")
}

/// The rows of `r` with duplicates removed (first occurrence kept).
fn dedup(r: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = Vec::new();
    for row in r {
        if !out.contains(&row) {
            out.push(row);
        }
    }
    out
}

#[track_caller]
fn agree(left: &Relation, right: &Relation, eq: RowsEquivalence, what: &str) {
    if let Some(diff) = rows_diff(left, right, eq) {
        panic!("{what}: {diff}");
    }
}

fn select(sql: &str) -> SqlSelect {
    match parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
        SqlQuery::Select(s) => s,
        other => panic!("{sql}: expected a relational query, got {other:?}"),
    }
}

fn and(w: &Option<SqlExpr>, p: SqlExpr) -> Option<SqlExpr> {
    Some(match w {
        Some(w) => SqlExpr::And(vec![w.clone(), p]),
        None => p,
    })
}

const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
const INT_FIELDS: [&str; 2] = ["id", "roleId"];

fn cmp(field: &str, op: usize, v: Value) -> SqlExpr {
    SqlExpr::cmp(SqlExpr::col(field), OPS[op], SqlExpr::Lit(v))
}

/// The flag binding every generated query may reference.
fn flag_params() -> Params {
    let mut params = Params::new();
    params.insert("flag".into(), Value::from(true));
    params
}

/// Partition: `rows(q)` equals the union of `q` restricted to `p` and to
/// `NOT p` — as multisets, or as sets under DISTINCT. `q` is unpaged.
#[track_caller]
fn check_partition(conn: &Connection, q: &SqlSelect, p: SqlExpr, params: &Params, what: &str) {
    let whole = rows(conn, q, params);
    let mut yes = q.clone();
    yes.where_clause = and(&q.where_clause, p.clone());
    let mut no = q.clone();
    no.where_clause = and(&q.where_clause, SqlExpr::Not(Box::new(p)));
    let mut union = values(&rows(conn, &yes, params));
    union.extend(values(&rows(conn, &no, params)));
    let (whole, union) = if q.distinct {
        (relation(&whole, dedup(values(&whole))), relation(&whole, dedup(union)))
    } else {
        (whole.clone(), relation(&whole, union))
    };
    agree(&whole, &union, RowsEquivalence::Multiset, &format!("partition of {what}"));
}

/// Paging: pages of `page` rows concatenate to the unpaged result, and the
/// drawn `LIMIT limit OFFSET offset` window is the matching slice of it.
#[track_caller]
fn check_paging(
    conn: &Connection,
    q: &SqlSelect,
    page: usize,
    window: (Option<i64>, Option<i64>),
    params: &Params,
) {
    let full = rows(conn, q, params);
    let paged = |limit: Option<i64>, offset: Option<i64>| {
        let mut p = q.clone();
        p.limit = limit.map(SqlExpr::int);
        p.offset = offset.map(SqlExpr::int);
        values(&rows(conn, &p, params))
    };
    let mut pages = Vec::new();
    let mut b = 0;
    loop {
        let got = paged(Some(page as i64), Some(b as i64));
        let last = got.len() < page;
        pages.extend(got);
        if last {
            break;
        }
        b += page;
    }
    agree(&full, &relation(&full, pages), RowsEquivalence::Ordered, &format!("pages of {q}"));
    let (limit, offset) = window;
    let skip = offset.unwrap_or(0) as usize;
    let take = limit.map_or(usize::MAX, |n| n as usize);
    let expected: Vec<Vec<Value>> = values(&full).into_iter().skip(skip).take(take).collect();
    let got = paged(limit, offset);
    agree(
        &relation(&full, expected),
        &relation(&full, got),
        RowsEquivalence::Ordered,
        &format!("window {window:?} of {q}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated single-table queries over `users` — vectorized and
    /// row-path filters, a `:flag` template, DISTINCT, ORDER BY, paging —
    /// satisfy ordering, DISTINCT, paging and partition.
    #[test]
    fn generated_queries_satisfy_the_relations(
        seed in 1i64..4,
        field in 0usize..2,
        op in 0usize..6,
        pivot in 0i64..70,
        bool_atom in 0usize..3,
        narrow in 0usize..2,
        distinct in 0usize..2,
        desc in 0usize..2,
        by_rowid in 0usize..2,
        page in 2usize..12,
        limit in prop::option::of(0i64..10),
        offset in prop::option::of(0i64..10),
        p_field in 0usize..3,
        p_op in 0usize..6,
        p_pivot in 0i64..70,
    ) {
        let conn = conn(seed as u64);
        let params = flag_params();
        let cols = if narrow == 1 { "roleId, enabled" } else { "id, roleId, enabled" };
        let mut q = select(&format!("SELECT {cols} FROM users"));
        let mut w = vec![cmp(INT_FIELDS[field], op, Value::from(pivot))];
        match bool_atom {
            1 => w.push(cmp("enabled", 0, Value::from(true))),
            2 => w.push(SqlExpr::cmp(SqlExpr::col("enabled"), CmpOp::Eq, SqlExpr::Param("flag".into()))),
            _ => {}
        }
        q.where_clause = Some(SqlExpr::And(w));
        q.distinct = distinct == 1;
        let all = rows(conn, &q, &params);

        // DISTINCT: no duplicates, and the set of the query without it.
        if q.distinct {
            let got = values(&all);
            prop_assert_eq!(dedup(got.clone()), got, "duplicates under DISTINCT: {}", q);
            let mut bag = q.clone();
            bag.distinct = false;
            let bag = values(&rows(conn, &bag, &params));
            agree(&all, &relation(&all, dedup(bag)), RowsEquivalence::Multiset, "DISTINCT set");
        }

        // Ordering: sorted on the (projected) key, a permutation of `all`.
        let key = if narrow == 1 { 0 } else { field };
        let key_name = if narrow == 1 { "roleId" } else { INT_FIELDS[field] };
        let mut ordered = q.clone();
        ordered.order_by = vec![OrderKey { expr: SqlExpr::col(key_name), asc: desc == 0 }];
        let sorted = rows(conn, &ordered, &params);
        let keys: Vec<i64> = sorted.iter().map(|r| r.value_at(key).as_int().unwrap()).collect();
        let in_order = keys.windows(2).all(|w| if desc == 0 { w[0] <= w[1] } else { w[0] >= w[1] });
        prop_assert!(in_order, "{} is not sorted on {}: {:?}", ordered, key_name, keys);
        agree(&all, &sorted, RowsEquivalence::Multiset, &format!("ordering of {ordered}"));

        // Paging under ORDER BY id, or ORDER BY users.rowid (whose sort is
        // elided, so the limit is pushed into the scan).
        let mut total = q.clone();
        total.order_by = vec![if by_rowid == 1 {
            OrderKey { expr: SqlExpr::qcol("users", "rowid"), asc: true }
        } else {
            OrderKey { expr: SqlExpr::col("id"), asc: desc == 0 }
        }];
        check_paging(conn, &total, page, (limit, offset), &params);

        // Partition on a drawn predicate.
        let p = match p_field {
            2 => cmp("enabled", 0, Value::from(true)),
            f => cmp(INT_FIELDS[f], p_op, Value::from(p_pivot)),
        };
        check_partition(conn, &q, p.clone(), &params, &q.to_string());
        check_partition(conn, &total, p, &params, &total.to_string());
    }

    /// Generated grouped queries — one or two keys, every aggregate kind,
    /// optional WHERE, HAVING on an output column — satisfy grouping and,
    /// under ORDER BY on the keys, paging.
    #[test]
    fn generated_grouped_queries_satisfy_the_relations(
        seed in 1i64..4,
        agg in 0usize..4,
        two_keys in 0usize..2,
        filtered in 0usize..2,
        pivot in 0i64..70,
        on_count in 0usize..2,
        threshold in 0i64..5,
        desc in 0usize..2,
        page in 1usize..5,
        limit in prop::option::of(0i64..5),
    ) {
        let conn = conn(seed as u64);
        let params = Params::new();
        let aggs = ["COUNT(*)", "SUM(id)", "MAX(id)", "MIN(id)"];
        let keys = if two_keys == 1 { "roleId, enabled" } else { "roleId" };
        let nkeys = if two_keys == 1 { 2 } else { 1 };
        let w = if filtered == 1 { format!(" WHERE id > {pivot}") } else { String::new() };
        let grouped = format!("SELECT {keys}, {} AS v, COUNT(*) AS n FROM users{w} GROUP BY {keys}", aggs[agg]);
        let q = select(&grouped);
        let groups = rows(conn, &q, &params);

        // The per-group counts sum to the COUNT(*) of the WHERE.
        let counted: i64 = groups.iter().map(|r| r.value_at(nkeys + 1).as_int().unwrap()).sum();
        let total = match run(conn, &parse(&format!("SELECT COUNT(*) FROM users{w}")).unwrap(), &params) {
            QueryOutput::Scalar { value, .. } => value.as_int().unwrap(),
            other => panic!("expected a scalar, got {other:?}"),
        };
        prop_assert_eq!(counted, total, "group counts of {}", q);

        // HAVING equals filtering the groups without it.
        let (column, agg_sql, cut) = if on_count == 1 {
            (nkeys + 1, "COUNT(*)", threshold)
        } else {
            (nkeys, aggs[agg], threshold * 40)
        };
        let having = select(&format!("{grouped} HAVING {agg_sql} > {cut}"));
        let kept: Vec<Vec<Value>> = values(&groups)
            .into_iter()
            .filter(|r| r[column].as_int().unwrap() > cut)
            .collect();
        agree(
            &relation(&groups, kept),
            &rows(conn, &having, &params),
            RowsEquivalence::Ordered,
            &format!("HAVING of {having}"),
        );

        // Paging under ORDER BY on the keys.
        let mut ordered = having.clone();
        let dir = if desc == 1 { "DESC" } else { "ASC" };
        ordered.order_by = select(&format!("SELECT {keys} FROM users ORDER BY {keys} {dir}")).order_by;
        check_paging(conn, &ordered, page, (limit, None), &params);
    }

    /// A statement with bind parameters — template kernels, index probes,
    /// LIMIT — returns the rows of the same statement with its literals
    /// inlined.
    #[test]
    fn bound_parameters_match_inlined_literals(
        seed in 1i64..4,
        field in 0usize..2,
        op in 0usize..6,
        pivot in 0i64..70,
        with_flag in 0usize..2,
        flag in 0usize..2,
        order in 0usize..2,
        cap in prop::option::of(0i64..10),
    ) {
        let conn = conn(seed as u64);
        let mut q = select("SELECT id, roleId, enabled FROM users");
        let mut w = vec![SqlExpr::cmp(SqlExpr::col(INT_FIELDS[field]), OPS[op], SqlExpr::Param("pivot".into()))];
        if with_flag == 1 {
            w.push(SqlExpr::cmp(SqlExpr::col("enabled"), CmpOp::Eq, SqlExpr::Param("flag".into())));
        }
        q.where_clause = Some(SqlExpr::And(w));
        if order == 1 {
            q.order_by = vec![OrderKey { expr: SqlExpr::col("id"), asc: false }];
        }
        let mut params = Params::new();
        params.insert("pivot".into(), Value::from(pivot));
        params.insert("flag".into(), Value::from(flag == 1));
        if let Some(n) = cap {
            q.limit = Some(SqlExpr::Param("cap".into()));
            params.insert("cap".into(), Value::from(n));
        }
        check_binding(conn, &SqlQuery::Select(q), &params);
    }

    /// Equi-joins agree with the same join spelled as two inequalities.
    #[test]
    fn equi_joins_match_their_nested_loop_spelling(
        seed in 1i64..4,
        shape in 0usize..2,
        filtered in 0usize..2,
        pivot in 0i64..70,
        order in 0usize..2,
    ) {
        let conn = conn(seed as u64);
        let (from, l, r) = if shape == 0 {
            ("SELECT users.id, roles.name FROM users, roles", ("users", "roleId"), ("roles", "roleId"))
        } else {
            ("SELECT projects.name, users.login FROM projects, users", ("projects", "managerId"), ("users", "id"))
        };
        let mut q = select(from);
        let mut w = vec![SqlExpr::cmp(SqlExpr::qcol(l.0, l.1), CmpOp::Eq, SqlExpr::qcol(r.0, r.1))];
        if filtered == 1 {
            w.push(SqlExpr::cmp(SqlExpr::qcol(l.0, "id"), CmpOp::Gt, SqlExpr::int(pivot)));
        }
        q.where_clause = Some(SqlExpr::And(w));
        if order == 1 {
            q.order_by = vec![OrderKey { expr: SqlExpr::qcol(r.0, "rowid"), asc: false }];
        }
        prop_assert!(check_join_keys(conn, &SqlQuery::Select(q), &Params::new()));
    }
}

/// Binding: the parameterized statement, executed with `params`, returns
/// what the same statement with `params` inlined as literals returns.
#[track_caller]
fn check_binding(conn: &Connection, q: &SqlQuery, params: &Params) {
    let (text, unbound) = render_query_bound(q, Dialect::Generic, params);
    assert!(unbound.is_empty(), "{q}: unbound {unbound:?}");
    let inlined = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let what = format!("binding of {q} against {text}");
    match (run(conn, q, params), run(conn, &inlined, &Params::new())) {
        (QueryOutput::Rows(bound), QueryOutput::Rows(lit)) => {
            agree(&lit.rows, &bound.rows, RowsEquivalence::Ordered, &what)
        }
        (QueryOutput::Scalar { value: b, .. }, QueryOutput::Scalar { value: l, .. }) => {
            assert_eq!(l, b, "{what}")
        }
        (b, l) => panic!("{what}: output shapes differ: {b:?} vs {l:?}"),
    }
}

/// Join keys: every `a.x = b.y` conjunct of the top-level WHERE (two
/// aliases) rewritten to `a.x <= b.y AND a.x >= b.y` leaves the rows and
/// their order unchanged. Returns whether any conjunct was rewritten.
#[track_caller]
fn check_join_keys(conn: &Connection, q: &SqlQuery, params: &Params) -> bool {
    fn spell(e: &SqlExpr, changed: &mut bool) -> SqlExpr {
        match e {
            SqlExpr::Cmp(a, CmpOp::Eq, b) => match (&**a, &**b) {
                (
                    SqlExpr::Column { qualifier: Some(x), .. },
                    SqlExpr::Column { qualifier: Some(y), .. },
                ) if x != y => {
                    *changed = true;
                    SqlExpr::And(vec![
                        SqlExpr::cmp((**a).clone(), CmpOp::Le, (**b).clone()),
                        SqlExpr::cmp((**a).clone(), CmpOp::Ge, (**b).clone()),
                    ])
                }
                _ => e.clone(),
            },
            SqlExpr::And(ps) => SqlExpr::And(ps.iter().map(|p| spell(p, changed)).collect()),
            other => other.clone(),
        }
    }
    let mut changed = false;
    let mut loops = q.clone();
    let core = match &mut loops {
        SqlQuery::Select(s) => s,
        SqlQuery::Scalar(s) => &mut s.query,
    };
    core.where_clause = core.where_clause.as_ref().map(|w| spell(w, &mut changed));
    if changed {
        let what = format!("join keys of {q}");
        match (run(conn, q, params), run(conn, &loops, params)) {
            (QueryOutput::Rows(hash), QueryOutput::Rows(nested)) => {
                agree(&hash.rows, &nested.rows, RowsEquivalence::Ordered, &what)
            }
            (QueryOutput::Scalar { value: h, .. }, QueryOutput::Scalar { value: n, .. }) => {
                assert_eq!(h, n, "{what}")
            }
            (h, n) => panic!("{what}: output shapes differ: {h:?} vs {n:?}"),
        }
    }
    changed
}

/// The relational core of a corpus statement: the select itself, or a
/// scalar's aggregate input.
fn core(q: &SqlQuery) -> SqlSelect {
    match q {
        SqlQuery::Select(s) => s.clone(),
        SqlQuery::Scalar(s) => {
            let mut inner = s.query.clone();
            if let Some(col) = &s.column {
                inner.columns = vec![SelectItem { expr: col.clone(), alias: None }];
            }
            inner
        }
    }
}

/// A predicate splitting the rows of `alias`: `alias.c <= v`, with `c` the
/// table's first integer column and `v` its value in a seed-chosen row.
fn split_predicate(conn: &Connection, from: &FromItem, seed: u64) -> Option<SqlExpr> {
    let FromItem::Table { name, alias } = from else { return None };
    let db = conn.database();
    let table = db.table(name)?;
    let pos =
        table.schema().fields().iter().position(|f| f.ty == qbs_common::FieldType::Int)?;
    let column = table.schema().fields()[pos].name.clone();
    let row = table.row((seed as usize * 7) % table.len().max(1))?;
    Some(SqlExpr::cmp(
        SqlExpr::qcol(alias.clone(), column),
        CmpOp::Le,
        SqlExpr::Lit(row[pos].clone()),
    ))
}

/// Replaces every literal operand of a comparison, and a literal
/// LIMIT/OFFSET, with a fresh bind parameter; records the bindings.
fn parameterize(q: &mut SqlSelect, params: &mut Params) {
    fn lit(e: &mut SqlExpr, params: &mut Params) {
        match e {
            SqlExpr::Lit(v) => {
                let name = Ident::new(format!("b{}", params.len()));
                params.insert(name.clone(), v.clone());
                *e = SqlExpr::Param(name);
            }
            SqlExpr::Cmp(a, _, b) => {
                lit(a, params);
                lit(b, params);
            }
            SqlExpr::And(ps) | SqlExpr::Or(ps) => ps.iter_mut().for_each(|p| lit(p, params)),
            SqlExpr::Not(x) => lit(x, params),
            _ => {}
        }
    }
    for clause in [&mut q.where_clause, &mut q.limit, &mut q.offset].into_iter().flatten() {
        lit(clause, params);
    }
    for item in &mut q.from {
        if let FromItem::Subquery { query, .. } = item {
            parameterize(query, params);
        }
    }
}

/// The corpus statements the universe can execute, with their seed.
fn executable_corpus() -> Vec<(u64, &'static str, &'static SqlQuery)> {
    let mut out = Vec::new();
    for seed in 1..=3 {
        for (method, sql) in corpus() {
            if try_run(conn(seed), sql, &Params::new()).is_ok() {
                out.push((seed, method.as_str(), sql));
            }
        }
    }
    assert!(out.len() >= 30 * 3, "most corpus statements execute, got {}", out.len());
    out
}

/// Every corpus statement's relational core (unpaged, ungrouped)
/// partitions on a predicate over each of its tables.
#[test]
fn corpus_statements_partition() {
    let mut checked = 0;
    for (seed, method, sql) in executable_corpus() {
        let mut q = core(sql);
        if !q.group_by.is_empty() {
            continue;
        }
        q.limit = None;
        q.offset = None;
        for from in &q.from {
            if let Some(p) = split_predicate(conn(seed), from, seed) {
                check_partition(
                    conn(seed),
                    &q,
                    p,
                    &Params::new(),
                    &format!("{method} (seed {seed})"),
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 30 * 3, "partitioned {checked} statement tables");
}

/// Every corpus statement with its literals turned into bind parameters
/// returns what it returns with them inlined; its equi-joins agree with
/// their nested-loop spelling.
#[test]
fn corpus_statements_bind_and_join_alike() {
    let mut joins = 0;
    for (seed, _, sql) in executable_corpus() {
        let mut params = Params::new();
        let mut bound = sql.clone();
        match &mut bound {
            SqlQuery::Select(s) => parameterize(s, &mut params),
            SqlQuery::Scalar(s) => parameterize(&mut s.query, &mut params),
        }
        check_binding(conn(seed), &bound, &params);
        joins += usize::from(check_join_keys(conn(seed), sql, &Params::new()));
    }
    assert!(joins >= 3, "corpus equi-joins respelled: {joins}");
}
