//! What `EXPLAIN ANALYZE` sees across the corpus: for every translated
//! Appendix A query, one instrumented execution over the seed-1 universe
//! database (the one the EXPLAIN ANALYZE golden tests pin), aggregated
//! into
//!
//! * the cost of instrumenting: the uninstrumented `exec_ns` of a plain
//!   execution next to the instrumented `total_ns` and the sum of the
//!   operator times, per query and in total (each side warmed by one run
//!   first, on its own connection; single runs, so per-query figures are
//!   noisy);
//! * a per-operator time breakdown (scan / join / residual filter /
//!   aggregate / sort / distinct), per query and in total;
//! * the planner's estimate-vs-actual cardinality error distribution
//!   (q-error per cardinality-bearing node) and its worst node;
//! * the batch scheduler's `batch.*` counters from the corpus synthesis
//!   that produced the queries, and both bytecode VMs' registries.
//!
//! ```sh
//! cargo run --release --example explain_report
//! ```

use qbs::FragmentStatus;
use qbs_batch::{corpus_inputs, BatchConfig, BatchRunner};
use qbs_db::{Connection, Params, QueryOutput};
use qbs_obs::Metrics;

/// Per-operator keys, in the order of [`op_ns`]'s result.
const OPS: [&str; 6] = ["scan", "join", "residual", "aggregate", "sort", "distinct"];

/// The planner's q-error on one node: how far off the estimate was, as
/// a factor ≥ 1 (1.0 = exact), symmetric in over- and under-estimates.
fn q_error(est: usize, actual: usize) -> f64 {
    let (e, a) = (est.max(1) as f64, actual.max(1) as f64);
    (e / a).max(a / e)
}

/// Wall-clock nanoseconds per operator kind, in [`OPS`] order.
fn op_ns(a: &qbs_db::PlanActuals) -> [u64; 6] {
    let op = |o: &Option<qbs_db::OpActuals>| o.as_ref().map_or(0, |o| o.elapsed_ns);
    [
        a.scans.iter().map(|s| s.elapsed_ns).sum(),
        a.joins.iter().map(|j| j.elapsed_ns).sum(),
        op(&a.residual),
        op(&a.aggregate),
        op(&a.sort),
        op(&a.distinct),
    ]
}

/// Prints the non-zero `vm.*` counters and the `vm.compile_ns` summary
/// of one VM registry.
fn print_vm(section: &str, vm: &Metrics) {
    let snap = vm.snapshot();
    println!("{section}:");
    for (name, v) in snap.counters.iter().filter(|(k, v)| k.starts_with("vm.") && **v > 0) {
        println!("  {name:<28} {v}");
    }
    if let Some(h) = snap.histograms.get("vm.compile_ns") {
        println!(
            "  {:<28} count {} sum {} min {} max {}",
            "vm.compile_ns",
            h.count,
            h.sum,
            h.min.unwrap_or(0),
            h.max.unwrap_or(0)
        );
    }
}

fn main() {
    // Synthesize the corpus with the metrics registry attached, so the
    // scheduler gauges and per-stage totals ride into the report.
    let metrics = Metrics::new();
    let runner = BatchRunner::new(BatchConfig::new().with_metrics(metrics.clone()));
    let report = runner.run(&corpus_inputs());
    report.record_metrics(&metrics);

    let db = qbs_corpus::populate_universe(1);
    let plain = Connection::open(db.clone());
    let conn = Connection::open(db.clone());
    let params = Params::new();

    println!("EXPLAIN ANALYZE over the corpus (universe seed 1)");
    print!(
        "{:<24} {:>6} {:>10} {:>10} {:>10}",
        "method", "rows", "exec_ns", "total_ns", "ops_ns"
    );
    for op in OPS {
        print!(" {op:>10}");
    }
    println!();

    let mut queries = 0usize;
    let mut breakdown = [0u64; 6];
    let (mut exec_ns, mut total_ns) = (0u64, 0u64);
    let (mut nodes, mut exact, mut within_2x) = (0usize, 0usize, 0usize);
    let mut worst = (1.0f64, String::new());
    for fr in &report.fragments {
        let FragmentStatus::Translated { sql, .. } = &fr.status else { continue };
        // Skip queries the universe cannot execute (absent tables, unbound
        // parameters); the oracle owns their correctness.
        if db.execute(sql, &params).is_err() {
            continue;
        }
        let text = sql.to_string();
        let plain_stmt = plain.prepare(&text).expect("rendered corpus SQL re-parses");
        let stmt = conn.prepare(&text).expect("rendered corpus SQL re-parses");
        plain.execute(&plain_stmt, &params).expect("executed above");
        conn.explain_analyze(&stmt, &params).expect("executed above");
        let exec = match plain.execute(&plain_stmt, &params).expect("executed above") {
            QueryOutput::Rows(out) => out.stats.exec_ns,
            QueryOutput::Scalar { stats, .. } => stats.exec_ns,
        };
        let analyzed = conn.explain_analyze(&stmt, &params).expect("executed above");

        for (label, est, actual) in analyzed.estimate_errors() {
            let q = q_error(est, actual);
            nodes += 1;
            exact += usize::from(est == actual);
            within_2x += usize::from(q <= 2.0);
            if q > worst.0 {
                worst = (q, format!("{}: {label} (est {est}, actual {actual})", fr.method));
            }
        }

        let a = &analyzed.actuals;
        let ns = op_ns(a);
        let ops: u64 = ns.iter().sum();
        print!(
            "{:<24} {:>6} {exec:>10} {:>10} {ops:>10}",
            fr.method, a.output_rows, a.total_ns
        );
        for (sum, n) in breakdown.iter_mut().zip(ns) {
            *sum += n;
            print!(" {n:>10}");
        }
        println!();
        queries += 1;
        exec_ns += exec;
        total_ns += a.total_ns;
    }

    let ops_ns: u64 = breakdown.iter().sum();
    print!(
        "{:<24} {:>6} {exec_ns:>10} {total_ns:>10} {ops_ns:>10}",
        format!("total ({queries} queries)"),
        ""
    );
    for n in breakdown {
        print!(" {n:>10}");
    }
    println!();
    let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    println!(
        "instrumented total_ns is {:.1}% of the uninstrumented exec_ns; \
         operator times sum to {:.1}% of total_ns",
        pct(total_ns, exec_ns),
        pct(ops_ns, total_ns),
    );
    println!();
    println!(
        "estimate errors: {nodes} nodes, {exact} exact, {within_2x} within 2x, \
         worst q-error {:.2}{}",
        worst.0,
        if worst.1.is_empty() { String::new() } else { format!(" ({})", worst.1) },
    );
    println!();
    println!("synthesis:");
    for (name, v) in metrics.snapshot().counters.iter().filter(|(k, _)| k.starts_with("batch."))
    {
        println!("  {name:<28} {v}");
    }
    // Every execution above ran on the plan VM, EXPLAIN ANALYZE included;
    // the kernel side reports whatever the corpus synthesis compiled.
    print_vm("plan_vm", &qbs_db::vm_metrics());
    print_vm("kernel_vm", &qbs_kernel::vm_metrics());
}
