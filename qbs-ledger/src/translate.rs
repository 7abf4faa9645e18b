//! The translate phase (the paper's Fig. 13 axis): every fragment of the
//! workload goes source → verified SQL on one thread, one pass per round.
//! In a traced run each fragment is translated twice back to back, once
//! as in an untraced run and once with the engine's stage events listened
//! to; the ledger then calls each translation layer's public function on
//! its own, outside the fragment's clock, so each layer gets a span.

use crate::spec::{Frag, Input};
use crate::trace::record_child;
use qbs::{EventLog, FragmentStatus, PipelineEvent, Stage, StageTimer};
use qbs_corpus::ExpectedStatus;
use qbs_kernel::KernelProgram;
use qbs_obs::LocalSpans;
use qbs_sql::Dialect;
use qbs_tor::TypeEnv;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub struct Outcome {
    pub status: FragmentStatus,
    pub kernel: Option<KernelProgram>,
    pub wall: Duration,
}

pub struct Pass {
    pub outcomes: Vec<Outcome>,
    /// What the traced translation of each fragment measured.
    pub traced: Option<(Vec<Duration>, LayerCounts)>,
}

/// Counts and times of one traced pass, read at the layer boundaries.
#[derive(Default)]
pub struct LayerCounts {
    /// Time per engine stage as the engine's events report it, in
    /// `Stage::ALL` order, and the fragments' wall time they add up to.
    pub stage_ns: [u64; 5],
    pub fragment_wall_ns: u64,
    pub typecheck_ns: u64,
    pub trans_ns: u64,
    pub sql_of_ns: u64,
    pub render_ns: u64,
    pub parse_ns: u64,
    pub front_fragments: usize,
    pub front_rejected: usize,
    pub vcgen_conditions: usize,
    pub vcgen_unknowns: usize,
    pub candidates_tried: usize,
    pub cex_cache_hits: usize,
    pub cexes_found: usize,
    pub levels_used_max: usize,
    pub proved: usize,
    pub extended_bounded: usize,
    pub sql_bytes: usize,
    /// `(label, FNV-1a of the generic-dialect SQL text)` per translated
    /// fragment, compared with `pins.rs`.
    pub sql_hashes: Vec<(String, u64)>,
}

pub fn status_of(status: &FragmentStatus) -> ExpectedStatus {
    match status {
        FragmentStatus::Translated { .. } => ExpectedStatus::Translated,
        FragmentStatus::Rejected { .. } => ExpectedStatus::Rejected,
        FragmentStatus::Failed { .. } => ExpectedStatus::Failed,
    }
}

pub fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn stage_span(stage: Stage) -> &'static str {
    match stage {
        Stage::Lowered => "front.lower",
        Stage::VcGen => "vcgen.generate",
        Stage::Synthesized => "synth.search",
        Stage::Verified => "verify.proof",
        Stage::Translated => "engine.translate",
    }
}

fn translate_one(frag: &Frag, observed: Option<(&StageTimer, &EventLog)>) -> Outcome {
    let session = frag.engine.session();
    if let Some((timer, log)) = observed {
        session.add_observer(timer.observer());
        session.add_observer(log.observer());
    }
    let failed = |reason: String| FragmentStatus::Failed { reason };
    let started = Instant::now();
    let (status, kernel) = match &frag.input {
        Input::Source(source) => match session.run_source(source) {
            Ok(mut report) if report.fragments.len() == 1 => {
                let fr = report.fragments.remove(0);
                (fr.status, fr.kernel)
            }
            Ok(report) => {
                (failed(format!("{} fragments in one source", report.fragments.len())), None)
            }
            Err(e) => (failed(e.to_string()), None),
        },
        Input::Kernel(kernel) => (session.infer(kernel), None),
    };
    let wall = started.elapsed();
    let kernel = match &frag.input {
        Input::Kernel(k) => Some(k.clone()),
        Input::Source(_) => kernel,
    };
    Outcome { status, kernel, wall }
}

/// Runs `f` inside a span and adds its wall time to `total_ns`.
fn spanned<T>(
    local: &LocalSpans,
    name: &str,
    cat: &'static str,
    total_ns: &mut u64,
    f: impl FnOnce() -> T,
) -> T {
    let _span = local.span(name, cat);
    let started = Instant::now();
    let out = f();
    *total_ns += started.elapsed().as_nanos() as u64;
    out
}

/// Calls the layers the engine's `Translated` stage lumps together, one
/// span each; a layer that errors here already failed the fragment.
fn probe_layers(outcome: &Outcome, label: &str, local: &LocalSpans, counts: &mut LayerCounts) {
    let Some(kernel) = &outcome.kernel else { return };
    let types = spanned(local, "kernel.typecheck", "kernel", &mut counts.typecheck_ns, || {
        qbs_kernel::typecheck(kernel, &TypeEnv::new())
    });
    let (Ok(types), FragmentStatus::Translated { sql, post, .. }) = (types, &outcome.status)
    else {
        return;
    };
    let trans = spanned(local, "tor.trans", "tor", &mut counts.trans_ns, || {
        qbs_tor::trans(post, &types.to_type_env())
    });
    if let Ok(trans) = trans {
        spanned(local, "sql.sql_of", "sql", &mut counts.sql_of_ns, || {
            black_box(qbs_sql::sql_of(&trans)).is_ok()
        });
    }
    let text = spanned(local, "sql.render", "sql", &mut counts.render_ns, || {
        qbs_sql::render_query(sql, Dialect::Generic)
    });
    spanned(local, "sql.parse", "sql", &mut counts.parse_ns, || {
        black_box(qbs_sql::parse(&text)).is_ok()
    });
    counts.sql_bytes += text.len();
    counts.sql_hashes.push((label.to_string(), fnv1a(&text)));
}

/// One pass over the fragments. With `trace`, each fragment is then
/// translated a second time with observers attached — back to back, so
/// both translations see the host in the same state — and spans and
/// layer counts are recorded.
pub fn run_pass(fragments: &[Frag], trace: Option<&LocalSpans>) -> Pass {
    let mut counts = LayerCounts::default();
    let mut traced_walls = Vec::new();
    let mut outcomes = Vec::with_capacity(fragments.len());
    for frag in fragments {
        outcomes.push(translate_one(frag, None));
        let Some(local) = trace else { continue };
        let (timer, log) = (StageTimer::new(), EventLog::new());
        let start_ns = local.tracer().now_ns();
        let outcome = {
            let _span = local.span("engine.fragment", "engine").arg("fragment", &frag.label);
            translate_one(frag, Some((&timer, &log)))
        };
        counts.fragment_wall_ns += outcome.wall.as_nanos() as u64;
        // The engine reports each stage's duration after the fact; lay the
        // stages end to end inside the fragment's span.
        let mut at = start_ns;
        for (stage, elapsed) in timer.totals() {
            let dur = elapsed.as_nanos() as u64;
            record_child(local, stage_span(stage), "engine", at, dur, 1);
            counts.stage_ns
                [Stage::ALL.iter().position(|s| *s == stage).expect("a listed stage")] += dur;
            at += dur;
        }
        for event in log.events() {
            if let PipelineEvent::VcsGenerated { conditions, unknowns, .. } = event {
                counts.vcgen_conditions += conditions;
                counts.vcgen_unknowns += unknowns;
            }
        }
        if matches!(frag.input, Input::Source(_)) {
            counts.front_fragments += 1;
        }
        match &outcome.status {
            FragmentStatus::Translated { proof, stats, .. } => {
                counts.candidates_tried += stats.candidates_tried;
                counts.cex_cache_hits += stats.cache_hits;
                counts.cexes_found += stats.cexes_found;
                counts.levels_used_max = counts.levels_used_max.max(stats.levels_used);
                match proof {
                    qbs_synth::ProofStatus::Proved => counts.proved += 1,
                    qbs_synth::ProofStatus::ExtendedBounded => counts.extended_bounded += 1,
                }
            }
            FragmentStatus::Rejected { .. } => counts.front_rejected += 1,
            FragmentStatus::Failed { .. } => {}
        }
        probe_layers(&outcome, &frag.label, local, &mut counts);
        traced_walls.push(outcome.wall);
    }
    Pass { outcomes, traced: trace.map(|_| (traced_walls, counts)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }
}
