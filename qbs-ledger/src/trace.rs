//! Span bookkeeping for traced runs: the ledger opens `qbs_obs` spans
//! around its own calls into each layer, and this module turns the
//! recorded spans into a per-layer table (total and self time) and a
//! Chrome trace.

use qbs_obs::{LocalSpans, SpanRecord};
use std::collections::BTreeMap;

/// Records an interval learned after the fact (a stage time the engine
/// reported, a plan/exec split from `ExecStats`) as a child of the span
/// that was open over it.
pub fn record_child(
    local: &LocalSpans,
    name: &str,
    cat: &'static str,
    start_ns: u64,
    dur_ns: u64,
    depth: usize,
) {
    local.record(SpanRecord {
        name: name.to_string(),
        cat,
        start_ns,
        dur_ns,
        depth,
        thread: 0, // `LocalSpans::record` stamps its own thread id
        args: Vec::new(),
    });
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerRow {
    pub count: usize,
    pub total_ns: u64,
    /// Total minus the part covered by spans nested directly inside.
    pub self_ns: u64,
}

/// Aggregates spans by name. A span's self time is its duration minus the
/// durations of its direct children (the spans of the same thread that
/// start inside it and are not inside a deeper span).
pub fn layer_table(spans: &[SpanRecord]) -> BTreeMap<String, LayerRow> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].thread, spans[i].start_ns, spans[i].depth));
    let mut child_ns = vec![0u64; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut thread = None;
    for &i in &order {
        let s = &spans[i];
        if thread != Some(s.thread) {
            thread = Some(s.thread);
            open.clear();
        }
        while open.last().is_some_and(|&p| spans[p].start_ns + spans[p].dur_ns <= s.start_ns) {
            open.pop();
        }
        if let Some(&parent) = open.last() {
            child_ns[parent] += s.dur_ns;
        }
        open.push(i);
    }
    let mut table: BTreeMap<String, LayerRow> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let row = table.entry(s.name.clone()).or_default();
        row.count += 1;
        row.total_ns += s.dur_ns;
        row.self_ns += s.dur_ns.saturating_sub(covered);
    }
    table
}

/// Renders the table for the human-readable part of a traced run.
pub fn render_table(table: &BTreeMap<String, LayerRow>) -> String {
    let mut out =
        format!("{:<28} {:>9} {:>14} {:>14}\n", "span", "count", "total_ms", "self_ms");
    for (name, row) in table {
        out.push_str(&format!(
            "{:<28} {:>9} {:>14.3} {:>14.3}\n",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, thread: u64, start_ns: u64, dur_ns: u64, depth: usize) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            cat: "t",
            start_ns,
            dur_ns,
            depth,
            thread,
            args: vec![],
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 0, 100, 0),
            span("execute", 0, 10, 40, 1),
            span("exec", 0, 15, 30, 2),
            span("execute", 0, 50, 40, 1),
            // A sibling request after the first one closed.
            span("request", 0, 100, 50, 0),
            // Another thread overlapping in time is not a child.
            span("write", 1, 20, 60, 0),
        ];
        let table = layer_table(&spans);
        assert_eq!(table["request"], LayerRow { count: 2, total_ns: 150, self_ns: 70 });
        assert_eq!(table["execute"], LayerRow { count: 2, total_ns: 80, self_ns: 50 });
        assert_eq!(table["exec"], LayerRow { count: 1, total_ns: 30, self_ns: 30 });
        assert_eq!(table["write"], LayerRow { count: 1, total_ns: 60, self_ns: 60 });
        assert!(render_table(&table).contains("request"));
    }

    #[test]
    fn a_child_starting_with_its_parent_nests_under_it() {
        let spans = vec![span("child", 0, 5, 3, 1), span("parent", 0, 5, 10, 0)];
        let table = layer_table(&spans);
        assert_eq!(table["parent"].self_ns, 7);
    }
}
