//! One run of one workload: translate, set up, check, then rounds of
//! translating again, setting up again and serving — and the metrics.
//! `--trace 0` measures with tracing off and yields the end-to-end
//! metrics; `--trace 1` does the same work with every fragment also
//! translated under observation and every other window traced, and yields
//! the per-layer metrics, among them the overhead tracing added.

use crate::json::Json;
use crate::pins::pinned_sql_hash;
use crate::serve::{self, DbCounts, Kind, Tally, Until, Window, WriteSample};
use crate::spec::{Frag, Input, Workload, FRAGMENT_BUDGET};
use crate::stats::{median, percentile, sort};
use crate::translate::{run_pass, status_of, LayerCounts, Pass};
use qbs::{EngineConfig, FragmentStatus};
use qbs_batch::{BatchConfig, BatchInput, BatchRunner};
use qbs_obs::{LocalSpans, SpanRecord, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("translated_share", "share"),
    ("synth_total_s", "s"),
    ("synth_slowest_s", "s"),
    ("page_us_p50", "us"),
    ("page_us_p95", "us"),
    ("pages_per_s", "1/s"),
    ("cold_page_us", "us"),
    ("orig_page_us_p50", "us"),
    ("speedup_vs_original", "ratio"),
    ("write_us_p50", "us"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("front.lower_ms", "ms"),
    ("front.fragments", "count"),
    ("front.rejected", "count"),
    ("kernel.typecheck_ms", "ms"),
    ("vcgen.generate_ms", "ms"),
    ("vcgen.conditions", "count"),
    ("vcgen.unknowns", "count"),
    ("synth.search_ms", "ms"),
    ("synth.candidates_tried", "count"),
    ("synth.cex_cache_hits", "count"),
    ("synth.cexes_found", "count"),
    ("synth.levels_used_max", "count"),
    ("synth.accepted_per_tried", "ratio"),
    ("verify.proof_ms", "ms"),
    ("verify.proved", "count"),
    ("verify.extended_bounded", "count"),
    ("tor.trans_us", "us"),
    ("sql.sql_of_us", "us"),
    ("sql.render_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.bytes", "count"),
    ("sql.text_changed", "count"),
    ("engine.unattributed_share", "share"),
    ("batch.wall_s", "s"),
    ("batch.cpu_s", "s"),
    ("batch.memo_hit_share", "share"),
    ("oracle.check_ms", "ms"),
    ("db.prepare_us", "us"),
    ("db.plan_us", "us"),
    ("db.exec_us", "us"),
    ("db.call_overhead_us", "us"),
    ("db.stmt.sel_share", "share"),
    ("db.stmt.join_share", "share"),
    ("db.stmt.count_share", "share"),
    ("db.stmt.group_share", "share"),
    ("db.stmt.topk_share", "share"),
    ("db.stmt.insub_share", "share"),
    ("db.stmt.distinct_share", "share"),
    ("db.stmt.covered_share", "share"),
    ("db.rows_scanned_per_row_out", "ratio"),
    ("db.join_comparisons", "count"),
    ("db.plan_cache_hit_share", "share"),
    ("db.replans", "count"),
    ("db.invalidations", "count"),
    ("db.write_us", "us"),
    ("db.write_us_p95", "us"),
    ("db.writer_late_share", "share"),
    ("orig.loop_us", "us"),
    ("host.fast_window_share", "share"),
    ("trace.overhead_share", "share"),
];

/// The smallest sample a p95 can be read from (ten samples beyond it).
const MIN_TAIL_SAMPLES: usize = 220;
/// Every repeated piece of work — a translate pass, a set-up — and every
/// stream of samples is spread over this many rounds, because the host
/// alternates between a fast and a ~1.5x slower state for seconds at a
/// time: the more of the run a measurement is spread over, the surer it
/// sees the fast state. As many rounds as keep translating within a
/// quarter of `--seconds`, but four at least. A traced run translates
/// every fragment twice per round and makes do with two rounds — one
/// where a pass takes over two seconds — since nothing bounds its metrics.
const MIN_ROUNDS: usize = 4;
const MAX_ROUNDS: usize = 6;
/// Set-ups per round; `setup_s` is the fastest of all of them.
const SETUPS_PER_ROUND: usize = 2;
/// The writer beside the reader: one batch due every 10 ms.
const CHURN_PERIOD: Duration = Duration::from_millis(10);
/// Without one: batches per window on the window's fresh connection.
const QUIET_WRITES_PER_WINDOW: usize = 16;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Correctness only: sample minimums drop, so tail metrics may be absent.
    pub smoke: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct RunResult {
    pub tally: Tally,
    /// The end-to-end metrics of an untraced run, the per-layer metrics of
    /// a traced one. A metric the sample cannot support is absent.
    pub metrics: Vec<Metric>,
    pub spans: Vec<SpanRecord>,
    /// Sample counts, pass times and per-fragment detail for the `--json` line.
    pub detail: Json,
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Records every fragment of a pass against its expected status.
fn tally_pass(fragments: &[Frag], pass: &Pass, tally: &mut Tally) {
    for (frag, o) in fragments.iter().zip(&pass.outcomes) {
        let ok = status_of(&o.status) == frag.expected && !o.status.is_interrupted();
        tally.record(ok, || {
            let reason = match &o.status {
                FragmentStatus::Translated { .. } => String::new(),
                FragmentStatus::Rejected { reason } | FragmentStatus::Failed { reason } => {
                    format!(": {reason}")
                }
            };
            format!(
                "{}: expected {}, got {}{reason}",
                frag.label,
                frag.expected.glyph(),
                o.status.glyph()
            )
        });
    }
}

/// Element-wise minimum: the fastest translation of each fragment so far.
fn keep_fastest(best: &mut Vec<f64>, walls: impl Iterator<Item = Duration>) {
    let walls: Vec<f64> = walls.map(|d| d.as_secs_f64()).collect();
    if best.is_empty() {
        *best = walls;
    } else {
        for (b, w) in best.iter_mut().zip(walls) {
            *b = b.min(w);
        }
    }
}

struct Batch {
    wall_s: f64,
    cpu_s: f64,
    memo_hit_share: f64,
}

/// The same fragments through the batch driver on two workers, then once
/// more to see how much a re-run answers from its memo.
fn batch(fragments: &[Frag], trace: &LocalSpans) -> Batch {
    let config = BatchConfig::with_workers(2)
        .with_engine(EngineConfig::default().with_time_budget(FRAGMENT_BUDGET));
    let runner = BatchRunner::new(config);
    let mut inputs = Vec::new();
    let mut kernels = Vec::new();
    for f in fragments {
        match &f.input {
            Input::Source(source) => inputs.push(BatchInput::new(
                f.label.clone(),
                f.engine.model().clone(),
                source.clone(),
            )),
            Input::Kernel(kernel) => kernels.push((f.label.clone(), kernel.clone())),
        }
    }
    let run = || {
        let _span = trace.span("batch.run", "batch");
        [runner.run(&inputs), runner.run_kernels(&kernels)]
    };
    let first = run();
    let again = run();
    let secs = |f: fn(&qbs_batch::BatchReport) -> Duration| {
        first.iter().map(|r| f(r).as_secs_f64()).sum()
    };
    let hits: usize = again.iter().map(|r| r.memo_hits()).sum();
    let total: usize = again.iter().map(|r| r.fragments.len()).sum();
    Batch {
        wall_s: secs(|r| r.wall_clock),
        cpu_s: secs(|r| r.cpu_time),
        memo_hit_share: hits as f64 / total.max(1) as f64,
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut values: Vec<f64> = values.collect();
    sort(&mut values);
    values
}

/// Pairs each value with its unit from the contract's list, which must
/// name the same metrics in the same order; a value the sample could not
/// support is left out.
fn named(list: &[(&'static str, &'static str)], values: &[(&str, Option<f64>)]) -> Vec<Metric> {
    assert!(
        list.iter().map(|(name, _)| *name).eq(values.iter().map(|(name, _)| *name)),
        "metric values are out of step with the contract's list"
    );
    list.iter()
        .zip(values)
        .filter_map(|((name, unit), (_, value))| {
            value.map(|value| Metric { name, unit, value })
        })
        .collect()
}

/// `None` for an empty sample.
fn median_or_none(sorted: &[f64]) -> Option<f64> {
    (!sorted.is_empty()).then(|| median(sorted))
}

/// Runs `w` once. `Err` is a failure of the benchmark itself (a statement
/// that cannot be deployed); failed operations are counted in the tally.
pub fn run(w: &Workload, opts: &Options) -> Result<RunResult, String> {
    // glibc's malloc takes single-threaded shortcuts until the process
    // creates its first thread, and never again after: a run that spawns
    // its writer (or the batch driver its workers) half-way would
    // translate ~27% slower from then on. Every run is multi-threaded from
    // the start, as any serving process is.
    std::thread::spawn(|| {}).join().expect("an empty thread does not panic");
    let tracer = if opts.traced { Tracer::enabled() } else { Tracer::new() };
    let local = tracer.local();
    let trace = opts.traced.then_some(&local);
    let mut tally = Tally::default();
    let min_tail = if opts.smoke { MIN_TAIL_SAMPLES / 10 } else { MIN_TAIL_SAMPLES };

    // Round one translates, deploys what was translated and checks it;
    // every round then translates again, sets up again and serves.
    let first = run_pass(&w.fragments, trace);
    tally_pass(&w.fragments, &first, &mut tally);
    let first_pass_s: f64 = first.outcomes.iter().map(|o| o.wall.as_secs_f64()).sum();
    let rounds = if opts.smoke {
        2
    } else if opts.traced {
        if first_pass_s > 2.0 {
            1
        } else {
            2
        }
    } else {
        ((0.25 * opts.seconds / first_pass_s) as usize).clamp(MIN_ROUNDS, MAX_ROUNDS)
    };
    let segment_budget = Duration::from_secs_f64(opts.seconds * w.serve_share / rounds as f64);
    let stmts = serve::statements(&w.fragments, &first.outcomes);
    if stmts.is_empty() {
        return Err("no fragment translated; nothing to serve".to_string());
    }
    let (dep, first_setup_s) = serve::set_up(&w.db, opts.seed, &stmts)?;
    let oracle = serve::oracle_check(&stmts, opts.seed, trace, &mut tally);
    let batch = trace.map(|l| batch(&w.fragments, l));

    let sql_of = |pass: &Pass| -> Vec<Option<String>> {
        pass.outcomes.iter().map(|o| o.status.sql().map(|sql| sql.to_string())).collect()
    };
    let first_sql = sql_of(&first);
    let (mut best_s, mut best_traced_s) = (Vec::new(), Vec::new());
    let mut layer_passes: Vec<(f64, &LayerCounts)> = Vec::new();
    let mut setup_s = vec![first_setup_s];
    let mut windows = Vec::new();
    let mut writes = Vec::new();
    let segment = serve::Segment {
        stmts: &stmts,
        dep: &dep,
        users: w.db.users,
        original_every: w.original_every,
        check_every: w.check_every,
        quiet_writes: if w.churn { 0 } else { QUIET_WRITES_PER_WINDOW },
        min_windows: min_tail.div_ceil(w.original_every * rounds) + 1,
    };
    let mut later_passes = Vec::new();
    for round in 0..rounds {
        if round > 0 {
            let pass = run_pass(&w.fragments, trace);
            tally_pass(&w.fragments, &pass, &mut tally);
            tally.record(sql_of(&pass) == first_sql, || {
                "a later pass translated to different SQL".to_string()
            });
            later_passes.push(pass);
        }
        for _ in 0..SETUPS_PER_ROUND - usize::from(round == 0) {
            setup_s.push(serve::set_up(&w.db, opts.seed, &stmts)?.1);
        }
        if w.churn {
            let batches = (segment_budget.as_secs_f64() / CHURN_PERIOD.as_secs_f64()) as usize;
            let batches = batches.max(min_tail.div_ceil(rounds));
            let finished = AtomicBool::new(false);
            let writer_conn = dep.conn.clone();
            let mut writer_tally = Tally::default();
            std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    let local = tracer.local();
                    let trace = opts.traced.then_some(&local);
                    let samples = serve::write(
                        &writer_conn,
                        w.db.users,
                        batches,
                        CHURN_PERIOD,
                        trace,
                        &mut writer_tally,
                    );
                    finished.store(true, Ordering::Release);
                    samples
                });
                serve::serve(&segment, Until::Flag(&finished), trace, &mut tally, &mut windows);
                writes.extend(writer.join().expect("the writer does not panic"));
            });
            tally.absorb(writer_tally);
        } else {
            serve::serve(
                &segment,
                Until::Elapsed(segment_budget),
                trace,
                &mut tally,
                &mut windows,
            );
        }
    }
    for pass in std::iter::once(&first).chain(&later_passes) {
        keep_fastest(&mut best_s, pass.outcomes.iter().map(|o| o.wall));
        if let Some((walls, counts)) = &pass.traced {
            keep_fastest(&mut best_traced_s, walls.iter().copied());
            layer_passes.push((walls.iter().map(Duration::as_secs_f64).sum(), counts));
        }
    }
    let cache = dep.conn.plan_cache_stats();
    local.flush();
    let spans = tracer.drain();

    // ── metrics, from the windows that saw the host's fast state ────────
    let fast =
        serve::fast_windows(&windows, min_tail, min_tail.div_ceil(QUIET_WRITES_PER_WINDOW));
    let pool = |traced: bool| {
        let fast = &fast;
        windows
            .iter()
            .zip(fast)
            .filter(move |(w, fast)| **fast && w.traced == traced)
            .map(|(w, _)| w)
    };
    // A write beside the reader belongs to the window it was due in; should
    // hardly any fall into fast windows, all of them are reported.
    let fast_writes: Vec<&WriteSample> = {
        let in_fast_windows: Vec<&WriteSample> = writes
            .iter()
            .filter(|s| {
                let at = windows.partition_point(|w| w.started <= s.due);
                at > 0 && fast[at - 1]
            })
            .collect();
        if in_fast_windows.len() >= 20 {
            in_fast_windows
        } else {
            writes.iter().collect()
        }
    };
    let synth_total_s: f64 = best_s.iter().sum();
    let translated = first.outcomes.iter().filter(|o| o.status.sql().is_some()).count();
    let metrics = if !opts.traced {
        let page = sorted(pool(false).flat_map(|w| w.page_us.iter().copied()));
        let covered = sorted(pool(false).flat_map(|w| w.covered_us.iter().copied()));
        let original = sorted(pool(false).map(|w| w.original_us));
        let write_us = if w.churn {
            sorted(fast_writes.iter().map(|s| s.write_us))
        } else {
            sorted(pool(false).flat_map(|w| w.write_us.iter().copied()))
        };
        let orig_p50 = median_or_none(&original);
        let values = [
            ("setup_s", Some(setup_s.iter().copied().fold(f64::INFINITY, f64::min))),
            ("peak_rss_mb", Some(peak_rss_mb())),
            ("translated_share", Some(translated as f64 / w.fragments.len() as f64)),
            ("synth_total_s", Some(synth_total_s)),
            ("synth_slowest_s", Some(best_s.iter().copied().fold(0.0, f64::max))),
            ("page_us_p50", median_or_none(&page)),
            ("page_us_p95", percentile(&page, 95.0)),
            ("pages_per_s", Some(page.len() as f64 / page.iter().sum::<f64>() * 1e6)),
            ("cold_page_us", median_or_none(&sorted(pool(false).map(|w| w.cold_us)))),
            ("orig_page_us_p50", orig_p50),
            (
                "speedup_vs_original",
                orig_p50.zip(median_or_none(&covered)).map(|(orig, inferred)| orig / inferred),
            ),
            ("write_us_p50", median_or_none(&write_us)),
        ];
        named(&END_TO_END, &values)
    } else {
        // Layer times of the translate side come from the fastest traced pass.
        let (_, counts) = layer_passes
            .iter()
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("pass totals are never NaN"))
            .expect("a traced run traces every pass");
        let stage_ms = |stage: usize| counts.stage_ns[stage] as f64 / 1e6;
        let batch = batch.expect("a traced run runs the batch driver");
        let mut c = DbCounts::default();
        pool(true).for_each(|w| c.add(&w.counts));
        let requests = c.requests.max(1) as f64;
        let stmt_wall_ns: u64 = c.stmt_wall_ns.iter().sum();
        let stmt_share = |k: Kind| c.stmt_wall_ns[k as usize] as f64 / c.wall_ns.max(1) as f64;
        let text_changed = counts
            .sql_hashes
            .iter()
            .filter(|(label, hash)| {
                pinned_sql_hash(label).is_some_and(|pinned| pinned != *hash)
            })
            .count();
        // Writes of the fast windows; their tail is read over every write
        // of the run should the fast windows hold too few.
        let (call_us, write_us, all_write_us): (Vec<f64>, Vec<f64>, Vec<f64>) = if w.churn {
            let (calls, from_due) = fast_writes.iter().map(|s| (s.call_us, s.write_us)).unzip();
            (calls, from_due, writes.iter().map(|s| s.write_us).collect())
        } else {
            let calls: Vec<f64> = pool(true).flat_map(|w| w.write_us.iter().copied()).collect();
            (
                calls.clone(),
                calls,
                windows.iter().flat_map(|w| w.write_us.iter().copied()).collect(),
            )
        };
        let write_p95 = percentile(&sorted(write_us.into_iter()), 95.0)
            .or_else(|| percentile(&sorted(all_write_us.into_iter()), 95.0))
            .unwrap_or(f64::NAN);
        // One journey — a pass plus as many requests — with tracing on,
        // against the same work with tracing off, both in the fast state.
        let untraced_page =
            mean(&pool(false).flat_map(|w| w.page_us.iter().copied()).collect::<Vec<_>>());
        let traced_page =
            mean(&pool(true).flat_map(|w| w.page_us.iter().copied()).collect::<Vec<_>>());
        let journey = |pass_s: f64, page_us: f64| pass_s + requests * page_us / 1e6;
        let overhead = journey(best_traced_s.iter().sum(), traced_page)
            / journey(synth_total_s, untraced_page)
            - 1.0;
        let stage_sum: u64 = counts.stage_ns.iter().sum();
        let values = [
            ("front.lower_ms", Some(stage_ms(0))),
            ("front.fragments", Some(counts.front_fragments as f64)),
            ("front.rejected", Some(counts.front_rejected as f64)),
            ("kernel.typecheck_ms", Some(counts.typecheck_ns as f64 / 1e6)),
            ("vcgen.generate_ms", Some(stage_ms(1))),
            ("vcgen.conditions", Some(counts.vcgen_conditions as f64)),
            ("vcgen.unknowns", Some(counts.vcgen_unknowns as f64)),
            ("synth.search_ms", Some(stage_ms(2))),
            ("synth.candidates_tried", Some(counts.candidates_tried as f64)),
            ("synth.cex_cache_hits", Some(counts.cex_cache_hits as f64)),
            ("synth.cexes_found", Some(counts.cexes_found as f64)),
            ("synth.levels_used_max", Some(counts.levels_used_max as f64)),
            (
                "synth.accepted_per_tried",
                Some(translated as f64 / counts.candidates_tried.max(1) as f64),
            ),
            ("verify.proof_ms", Some(stage_ms(3))),
            ("verify.proved", Some(counts.proved as f64)),
            ("verify.extended_bounded", Some(counts.extended_bounded as f64)),
            ("tor.trans_us", Some(counts.trans_ns as f64 / 1e3)),
            ("sql.sql_of_us", Some(counts.sql_of_ns as f64 / 1e3)),
            ("sql.render_us", Some(counts.render_ns as f64 / 1e3)),
            ("sql.parse_us", Some(counts.parse_ns as f64 / 1e3)),
            ("sql.bytes", Some(counts.sql_bytes as f64)),
            ("sql.text_changed", Some(text_changed as f64)),
            (
                "engine.unattributed_share",
                Some(1.0 - stage_sum as f64 / counts.fragment_wall_ns.max(1) as f64),
            ),
            ("batch.wall_s", Some(batch.wall_s)),
            ("batch.cpu_s", Some(batch.cpu_s)),
            ("batch.memo_hit_share", Some(batch.memo_hit_share)),
            ("oracle.check_ms", Some(oracle.as_secs_f64() * 1e3)),
            (
                "db.prepare_us",
                Some(
                    median_or_none(&sorted(pool(true).map(|w| w.prepare_us)))
                        .unwrap_or(f64::NAN),
                ),
            ),
            ("db.plan_us", Some(c.plan_ns as f64 / 1e3 / requests)),
            ("db.exec_us", Some(c.exec_ns as f64 / 1e3 / requests)),
            (
                "db.call_overhead_us",
                Some(stmt_wall_ns.saturating_sub(c.exec_ns) as f64 / 1e3 / requests),
            ),
            ("db.stmt.sel_share", Some(stmt_share(Kind::Sel))),
            ("db.stmt.join_share", Some(stmt_share(Kind::Join))),
            ("db.stmt.count_share", Some(stmt_share(Kind::Count))),
            ("db.stmt.group_share", Some(stmt_share(Kind::Group))),
            ("db.stmt.topk_share", Some(stmt_share(Kind::TopK))),
            ("db.stmt.insub_share", Some(stmt_share(Kind::InSub))),
            ("db.stmt.distinct_share", Some(stmt_share(Kind::Distinct))),
            ("db.stmt.covered_share", Some(stmt_wall_ns as f64 / c.wall_ns.max(1) as f64)),
            (
                "db.rows_scanned_per_row_out",
                Some(c.rows_scanned as f64 / c.rows_out.max(1) as f64),
            ),
            ("db.join_comparisons", Some(c.join_comparisons as f64 / requests)),
            ("db.plan_cache_hit_share", Some(cache.hit_rate())),
            ("db.replans", Some(c.replans as f64)),
            ("db.invalidations", Some(cache.invalidations as f64)),
            ("db.write_us", Some(mean(&call_us))),
            ("db.write_us_p95", Some(write_p95)),
            (
                "db.writer_late_share",
                Some(
                    writes.iter().filter(|s| s.late).count() as f64
                        / writes.len().max(1) as f64,
                ),
            ),
            (
                "orig.loop_us",
                Some(mean(&pool(true).map(|w| w.original_us).collect::<Vec<_>>())),
            ),
            (
                "host.fast_window_share",
                Some(fast.iter().filter(|f| **f).count() as f64 / fast.len().max(1) as f64),
            ),
            ("trace.overhead_share", Some(overhead)),
        ];
        named(&PER_LAYER, &values)
    };

    let fragments =
        w.fragments.iter().zip(&first.outcomes).zip(&best_s).map(|((f, o), best)| {
            Json::obj([
                ("label", Json::str(&f.label)),
                ("status", Json::str(o.status.glyph())),
                ("wall_s", Json::Num(*best)),
                ("sql", o.status.sql().map_or(Json::Null, |sql| Json::str(sql.to_string()))),
            ])
        });
    let sql_hashes = first.traced.as_ref().map_or(Json::Null, |(_, counts)| {
        Json::obj(
            counts
                .sql_hashes
                .iter()
                .map(|(label, hash)| (label.clone(), Json::str(format!("{hash:016x}")))),
        )
    });
    let requests = |windows: &mut dyn Iterator<Item = &Window>| {
        windows.map(|w| w.page_us.len()).sum::<usize>()
    };
    let pass_s = std::iter::once(&first)
        .chain(&later_passes)
        .map(|p| Json::Num(p.outcomes.iter().map(|o| o.wall.as_secs_f64()).sum()));
    let samples = [
        ("statements", stmts.len()),
        ("setups", setup_s.len()),
        ("windows", windows.len()),
        ("fast_windows", fast.iter().filter(|f| **f).count()),
        ("requests", requests(&mut windows.iter())),
        ("fast_requests", requests(&mut pool(false).chain(pool(true)))),
        ("writes_beside", writes.len()),
    ];
    let detail = Json::obj([
        ("samples", Json::obj(samples.map(|(k, n)| (k, Json::Num(n as f64))))),
        ("pass_s", Json::Arr(pass_s.collect())),
        ("fragments", Json::Arr(fragments.collect())),
        ("sql_hashes", sql_hashes),
    ]);
    Ok(RunResult { tally, metrics, spans, detail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};

    /// Every workload end to end at smoke size, untraced and traced: keeps
    /// the ledger compiling against the public APIs and its outputs correct.
    #[test]
    fn smoke_runs_are_correct_and_name_every_metric() {
        for name in WORKLOADS {
            for traced in [false, true] {
                let w = workload(name).expect(name).smoke();
                let opts = Options { seed: 1, seconds: 0.2, traced, smoke: true };
                let result = run(&w, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(result.tally.failed, 0, "{name}: {:?}", result.tally.notes);
                assert!(result.tally.attempted > 0);
                let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
                if traced {
                    let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
                    assert_eq!(names, want, "{name}");
                    assert!(!result.spans.is_empty());
                } else {
                    // Smoke samples are too small for the tail.
                    let want: Vec<&str> = END_TO_END
                        .iter()
                        .map(|(n, _)| *n)
                        .filter(|n| !n.ends_with("_p95"))
                        .collect();
                    let got: Vec<&str> =
                        names.into_iter().filter(|n| !n.ends_with("_p95")).collect();
                    assert_eq!(got, want, "{name}");
                }
                for m in result.metrics.iter().filter(|m| !m.name.ends_with("_p95")) {
                    assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
                }
            }
        }
    }
}
