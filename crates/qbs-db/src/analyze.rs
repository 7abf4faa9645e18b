//! `EXPLAIN ANALYZE`: per-operator actuals recorded during one run of a
//! [`PhysicalPlan`]'s compiled program, rendered next to the planner's
//! estimates.
//!
//! [`Connection::explain_analyze`](crate::Connection::explain_analyze)
//! runs a prepared statement's compiled program — the one `execute` runs —
//! with the VM's per-operator instrumentation switched on and returns an
//! [`AnalyzedPlan`]: the plan that ran, a [`PlanActuals`] with rows and
//! elapsed time per operator, and the execution's [`ExecStats`].
//! Rendering the result annotates the same tree `explain()` prints, so a
//! cardinality misestimate is visible as `est 100 rows … actual 3 rows` on
//! the node that caused it.

use crate::exec::ExecStats;
use crate::planner::PhysicalPlan;
use std::fmt;
use std::sync::Arc;

/// Actuals of one scan node.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScanActuals {
    /// Base-table rows read by this scan (nested sub-query scans
    /// included).
    pub rows_scanned: usize,
    /// Rows the scan emitted after its pushed filter.
    pub rows_out: usize,
    /// Wall-clock time in the scan.
    pub elapsed_ns: u64,
    /// True when an index probe answered the scan.
    pub via_index: bool,
}

/// Actuals of one non-scan operator (join step, residual filter, sort,
/// distinct).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpActuals {
    /// Rows the operator emitted.
    pub rows_out: usize,
    /// Wall-clock time in the operator.
    pub elapsed_ns: u64,
}

/// Per-operator actuals of one plan run, in the same shape as
/// the [`PhysicalPlan`] they were recorded against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanActuals {
    /// One entry per plan scan, in execution order.
    pub scans: Vec<ScanActuals>,
    /// One entry per join step, in execution order.
    pub joins: Vec<OpActuals>,
    /// The post-join residual filter, when the plan has one.
    pub residual: Option<OpActuals>,
    /// The hash aggregate (HAVING filter included), when the plan has one.
    pub aggregate: Option<OpActuals>,
    /// The sort, when the plan has one.
    pub sort: Option<OpActuals>,
    /// The distinct pass, when the plan has one.
    pub distinct: Option<OpActuals>,
    /// Rows in the statement's final output.
    pub output_rows: usize,
    /// End-to-end wall-clock time of the run.
    pub total_ns: u64,
}

/// Formats a nanosecond duration for plan annotations (`850ns`,
/// `12.3µs`, `4.5ms`, `1.20s`).
pub(crate) fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1_000.0),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1_000_000.0),
        _ => format!("{:.2}s", ns as f64 / 1_000_000_000.0),
    }
}

/// The result of `explain_analyze`: the plan that ran, annotated with
/// what actually happened.
///
/// `Display` renders the tree with timings; [`AnalyzedPlan::render`]
/// with `with_times = false` omits every wall-clock figure, giving a
/// fully deterministic rendering for golden tests.
#[derive(Clone, Debug)]
pub struct AnalyzedPlan {
    /// The plan that ran.
    pub plan: Arc<PhysicalPlan>,
    /// Per-operator actuals.
    pub actuals: PlanActuals,
    /// The execution's counters (cache hits, sub-queries, timing fields).
    pub stats: ExecStats,
}

impl AnalyzedPlan {
    /// Renders the annotated plan tree. With `with_times` the per-node
    /// and total wall-clock figures are included; without, only the
    /// deterministic row counts — the golden-test form.
    pub fn render(&self, with_times: bool) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let time =
            |ns: u64| if with_times { format!(", {}", fmt_ns(ns)) } else { String::new() };
        for (k, scan) in self.plan.scans.iter().enumerate() {
            let a = self.actuals.scans.get(k).cloned().unwrap_or_default();
            writeln!(
                out,
                "{} [actual {} rows, scanned {}{}]",
                scan.describe(),
                a.rows_out,
                a.rows_scanned,
                time(a.elapsed_ns),
            )
            .expect("write to string");
            if k > 0 {
                let a = self.actuals.joins.get(k - 1).cloned().unwrap_or_default();
                writeln!(
                    out,
                    "{} [actual {} rows{}]",
                    self.plan.joins[k - 1].describe(),
                    a.rows_out,
                    time(a.elapsed_ns),
                )
                .expect("write to string");
            }
        }
        let mut op = |label: String, a: &Option<OpActuals>| {
            let a = a.clone().unwrap_or_default();
            writeln!(out, "{label} [actual {} rows{}]", a.rows_out, time(a.elapsed_ns))
                .expect("write to string");
        };
        if self.plan.residual.is_some() {
            op("filter (post-join residual)".to_string(), &self.actuals.residual);
        }
        if let Some(agg) = &self.plan.aggregate {
            op(agg.describe(), &self.actuals.aggregate);
        }
        if !self.plan.order_by.is_empty() {
            op(format!("sort ({} keys)", self.plan.order_by.len()), &self.actuals.sort);
        }
        if self.plan.distinct {
            op("distinct".to_string(), &self.actuals.distinct);
        }
        if self.plan.limit.is_some() {
            writeln!(out, "limit").expect("write to string");
        }
        if self.plan.offset.is_some() {
            writeln!(out, "offset").expect("write to string");
        }
        write!(
            out,
            "output: {} rows{}; {} scanned, {} subquer{} executed ({} cache hits)",
            self.actuals.output_rows,
            if with_times {
                format!(" in {}", fmt_ns(self.actuals.total_ns))
            } else {
                String::new()
            },
            self.stats.rows_scanned,
            self.stats.subqueries_executed,
            if self.stats.subqueries_executed == 1 { "y" } else { "ies" },
            self.stats.subquery_cache_hits,
        )
        .expect("write to string");
        out
    }

    /// Estimate-vs-actual pairs per cardinality-bearing node: the node's
    /// one-line label, the planner's estimate, and the observed row
    /// count. This is what the `explain_report` example's q-error
    /// distribution is computed over.
    pub fn estimate_errors(&self) -> Vec<(String, usize, usize)> {
        let mut out = Vec::new();
        for (scan, a) in self.plan.scans.iter().zip(&self.actuals.scans) {
            out.push((format!("scan {}", scan.alias), scan.estimated_rows, a.rows_out));
        }
        for (k, (step, a)) in self.plan.joins.iter().zip(&self.actuals.joins).enumerate() {
            out.push((format!("join #{k}"), step.estimated_rows, a.rows_out));
        }
        out
    }
}

impl fmt::Display for AnalyzedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_a_sensible_unit() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(850), "850ns");
        assert_eq!(fmt_ns(12_300), "12.3µs");
        assert_eq!(fmt_ns(4_500_000), "4.5ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }
}
