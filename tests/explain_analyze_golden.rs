//! Golden `EXPLAIN ANALYZE` renderings for pinned corpus fragments.
//!
//! `AnalyzedPlan::render(false)` omits every wall-clock figure, so on a
//! fixed universe seed the output is fully deterministic: plan shape,
//! estimates, actual row counts, scan totals, and sub-query accounting.
//! These tests pin that rendering for five fragments spanning the
//! operator vocabulary — any planner, executor, or instrumentation
//! change that shifts what `explain_analyze` reports shows up as a
//! golden diff here. A sixth test shows that `explain_analyze` measures
//! the executor `execute` runs: the same counters, the same output.

use qbs::FragmentStatus;
use qbs_batch::{corpus_inputs, BatchConfig, BatchRunner};
use qbs_db::{Connection, Params, QueryOutput};
use qbs_sql::{SelectItem, SqlQuery};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Synthesizes the whole Appendix A corpus once and returns every
/// translated fragment's `(method, sql)`.
fn corpus_queries() -> &'static [(String, SqlQuery)] {
    static QUERIES: OnceLock<Vec<(String, SqlQuery)>> = OnceLock::new();
    QUERIES.get_or_init(|| {
        let report = BatchRunner::new(BatchConfig::new()).run(&corpus_inputs());
        report
            .fragments
            .into_iter()
            .filter_map(|fr| match fr.status {
                FragmentStatus::Translated { sql, .. } => Some((fr.method, sql)),
                _ => None,
            })
            .collect()
    })
}

/// Synthesizes the corpus once and returns each translated fragment's
/// deterministic analyze rendering over the seed-1 universe.
fn renders() -> &'static BTreeMap<String, String> {
    static RENDERS: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    RENDERS.get_or_init(|| {
        let queries = corpus_queries();
        let db = qbs_corpus::populate_universe(1);
        let conn = Connection::open(db.clone());
        let params = Params::new();
        let mut out = BTreeMap::new();
        for (method, sql) in queries {
            if db.execute(sql, &params).is_err() {
                continue;
            }
            let stmt = conn.prepare(&sql.to_string()).expect("corpus SQL re-parses");
            let analyzed = conn.explain_analyze(&stmt, &params).expect("executes");
            out.insert(method.clone(), analyzed.render(false));
        }
        out
    })
}

#[track_caller]
fn assert_golden(method: &str, expected: &str) {
    let got = &renders()[method];
    assert_eq!(got, expected, "\n--- {method} rendered ---\n{got}\n---");
}

/// An equality predicate on an indexed column becomes an index probe:
/// the scan reads exactly the matching rows, no full-table pass.
#[test]
fn index_probe_scan() {
    assert_golden(
        "fragment30",
        "scan users (table users, est 4 rows, index roleId = Lit(1)) \
         [actual 4 rows, scanned 4]\n\
         output: 4 rows; 4 scanned, 0 subqueries executed (0 cache hits)",
    );
}

/// A two-table fragment plans as a hash join; the join line carries its
/// own estimate and actual.
#[test]
fn hash_join_with_estimates() {
    assert_golden(
        "fragment22",
        "scan users (table users, est 60 rows) [actual 60 rows, scanned 60]\n\
         scan roles (table roles, est 12 rows) [actual 12 rows, scanned 12]\n\
         \x20 └ hash join (est 60 rows) [actual 60 rows]\n\
         output: 60 rows; 72 scanned, 0 subqueries executed (0 cache hits)",
    );
}

/// A `SELECT DISTINCT` fragment: the distinct pass shows its own row
/// reduction (56 scanned rows collapse to 10 distinct values).
#[test]
fn distinct_pass_reduces_rows() {
    assert_golden(
        "fragment8",
        "scan issues (table issues, est 56 rows) [actual 56 rows, scanned 56]\n\
         distinct [actual 10 rows]\n\
         output: 10 rows; 56 scanned, 0 subqueries executed (0 cache hits)",
    );
}

/// A hoisted predicate sub-query executes once and is answered from the
/// per-statement cache for every remaining outer row.
#[test]
fn hoisted_subquery_cache_accounting() {
    assert_golden(
        "fragment1",
        "scan issues (table issues, est 18 rows, filtered) [actual 56 rows, scanned 56]\n\
         output: 56 rows; 66 scanned, 1 subquery executed (55 cache hits)",
    );
}

/// A cardinality misestimate is visible on the node that caused it: the
/// planner expected 9 rows, the filter matched none.
#[test]
fn misestimate_is_visible_on_the_scan() {
    assert_golden(
        "fragment37",
        "scan activities (table activities, est 9 rows, filtered) \
         [actual 0 rows, scanned 96]\n\
         output: 0 rows; 96 scanned, 0 subqueries executed (0 cache hits)",
    );
}

/// For every corpus statement, EXPLAIN ANALYZE on one connection reports
/// the counters a plain `execute` on another reports, and its output row
/// count is the statement's (for a scalar, its relational core's).
#[test]
fn explain_analyze_matches_a_plain_execute() {
    let db = qbs_corpus::populate_universe(1);
    let params = Params::new();
    let mut compared = 0;
    for (method, sql) in corpus_queries() {
        if db.execute(sql, &params).is_err() {
            continue;
        }
        let plain = Connection::open(db.clone());
        let analyzing = Connection::open(db.clone());
        let stmt = plain.prepare_query(sql);
        let out = plain.execute(&stmt, &params).expect("executed above");
        let analyzed = analyzing
            .explain_analyze(&analyzing.prepare_query(sql), &params)
            .expect("executes");
        let (stats, rows) = match out {
            QueryOutput::Rows(out) => (out.stats, out.rows.len()),
            QueryOutput::Scalar { stats, .. } => {
                let SqlQuery::Scalar(s) = sql else { unreachable!() };
                let mut core = s.query.clone();
                if let Some(col) = &s.column {
                    core.columns = vec![SelectItem { expr: col.clone(), alias: None }];
                }
                let core = db.execute_select(&core, &params).expect("core executes");
                (stats, core.rows.len())
            }
        };
        assert_eq!(analyzed.stats, stats, "{method}: counters differ");
        assert_eq!(analyzed.actuals.output_rows, rows, "{method}: output rows differ");
        compared += 1;
    }
    assert!(compared >= 30, "compared {compared} corpus statements");
}
