//! The synthesis driver: incremental template enumeration + CEGIS +
//! symbolic proof (paper Sec. 4.2 / 4.5 / 5).

use crate::derive::{derive_candidate, DerivedCandidate};
use crate::mine::mine;
use crate::pattern::analyze;
use crate::postcond::{product_templates, Template};
use qbs_common::Ident;
use qbs_kernel::{typecheck, KExpr, KStmt, KernelProgram};
use qbs_tor::{Env, TorExpr, TorType, TypeEnv};
use qbs_vcgen::generate;
use qbs_verify::{
    prove, BoundedChecker, BoundedConfig, Candidate, CexCache, CheckOutcome, ProofResult,
};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Tuning for one synthesis run.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Maximum template complexity level (paper: most fragments need < 3
    /// iterations).
    pub max_level: usize,
    /// Standard bounded-checking configuration.
    pub bounded: BoundedConfig,
    /// Extended configuration used when the prover cannot certify.
    pub extended: BoundedConfig,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            max_level: 4,
            bounded: BoundedConfig::default(),
            extended: BoundedConfig::extended(),
        }
    }
}

impl SynthConfig {
    /// Sets the maximum template complexity level.
    pub fn with_max_level(mut self, max_level: usize) -> SynthConfig {
        self.max_level = max_level;
        self
    }

    /// Sets the standard bounded-checking configuration.
    pub fn with_bounded(mut self, bounded: BoundedConfig) -> SynthConfig {
        self.bounded = bounded;
        self
    }

    /// Sets the extended bounded-checking configuration.
    pub fn with_extended(mut self, extended: BoundedConfig) -> SynthConfig {
        self.extended = extended;
        self
    }
}

/// How the accepted candidate was validated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProofStatus {
    /// Every verification condition was certified by the symbolic prover.
    Proved,
    /// The prover could not certify at least one condition; the candidate
    /// passed extended bounded checking instead (the paper's
    /// increase-the-bound fallback).
    ExtendedBounded,
}

/// Search statistics (reported in the corpus tables).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SynthStats {
    /// Complexity level of the accepted candidate (the paper's "iterations").
    pub levels_used: usize,
    /// Total candidates submitted to checking.
    pub candidates_tried: usize,
    /// Candidates rejected by the counterexample cache alone.
    pub cache_hits: usize,
    /// Counterexamples pre-seeded into the cache by a batch driver before
    /// the search started (0 for stand-alone runs).
    pub cexes_seeded: usize,
    /// Counterexamples mined by this search's own bounded checking.
    pub cexes_found: usize,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// Portion of `elapsed` spent certifying candidates that survived
    /// CEGIS screening (symbolic proof + extended bounded checking).
    pub proof_elapsed: Duration,
}

/// Hooks for sharing CEGIS state across related synthesis runs.
///
/// A corpus-scale driver synthesizing many fragments of the same template
/// shape can pre-seed each run's [`CexCache`] with counterexamples mined by
/// earlier runs (`seed_cexes`) and harvest the ones this run mines
/// (`on_cex`). Seeding is purely an accelerator: a seeded environment can
/// only reject candidates the fragment's own bounded/extended checking
/// would reject anyway (provided the seeds come from a fragment with the
/// identical store configuration), so the accepted candidate — and hence
/// the generated SQL — is unchanged.
#[derive(Default)]
pub struct SynthHooks<'a> {
    /// Counterexamples to pre-seed the CEGIS cache with.
    pub seed_cexes: &'a [Env],
    /// Invoked once per freshly mined counterexample.
    pub on_cex: Option<&'a mut dyn FnMut(&Env)>,
    /// Invoked after every candidate submitted to checking, with the
    /// running statistics — observers use this to surface CEGIS progress.
    pub on_iteration: Option<&'a mut dyn FnMut(&SynthStats)>,
    /// Polled before each candidate. Returning `Some` stops the search
    /// with [`SynthFailure::Interrupted`] — engines implement cooperative
    /// cancellation and per-fragment time/iteration budgets with this.
    pub interrupt: Option<&'a InterruptCheck<'a>>,
}

/// The polling predicate installed via [`SynthHooks::interrupt`].
pub type InterruptCheck<'a> = dyn Fn(&SynthStats) -> Option<Interrupt> + 'a;

/// Why a search was stopped from the outside (see
/// [`SynthHooks::interrupt`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Interrupt {
    /// The driving session was cancelled.
    Cancelled,
    /// The per-fragment wall-clock budget ran out.
    TimeBudget(Duration),
    /// The per-fragment candidate budget ran out.
    IterationBudget(usize),
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "cancelled"),
            Interrupt::TimeBudget(d) => write!(f, "time budget of {d:?} exceeded"),
            Interrupt::IterationBudget(n) => {
                write!(f, "iteration budget of {n} candidates exceeded")
            }
        }
    }
}

impl From<Interrupt> for qbs_common::QbsError {
    fn from(i: Interrupt) -> qbs_common::QbsError {
        match i {
            Interrupt::Cancelled => qbs_common::QbsError::Cancelled,
            Interrupt::TimeBudget(budget) => {
                qbs_common::QbsError::TimeBudgetExceeded { budget }
            }
            Interrupt::IterationBudget(budget) => {
                qbs_common::QbsError::IterationBudgetExceeded { budget }
            }
        }
    }
}

/// A successful synthesis.
#[derive(Clone, Debug)]
pub struct SynthOutcome {
    /// The accepted assignment for all unknowns.
    pub candidate: Candidate,
    /// Postcondition right-hand side over sources and parameters — the
    /// expression handed to the SQL translator.
    pub post_rhs: TorExpr,
    /// True when the result is scalar-valued.
    pub post_scalar: bool,
    /// Validation level achieved.
    pub proof: ProofStatus,
    /// Search statistics.
    pub stats: SynthStats,
}

/// Why synthesis failed.
#[derive(Clone, Debug)]
pub enum SynthFailure {
    /// The fragment shape or VC generation is outside the supported
    /// fragment (status `*` in the paper's Appendix A).
    Unsupported(String),
    /// The template space was exhausted without a valid candidate.
    NoCandidate(SynthStats),
    /// The search was stopped by [`SynthHooks::interrupt`] before the
    /// template space was exhausted.
    Interrupted {
        /// Why the search was stopped.
        interrupt: Interrupt,
        /// Statistics at the moment of interruption.
        stats: SynthStats,
    },
}

impl fmt::Display for SynthFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthFailure::Unsupported(r) => write!(f, "unsupported fragment: {r}"),
            SynthFailure::NoCandidate(s) => {
                write!(f, "no valid candidate found ({} tried)", s.candidates_tried)
            }
            SynthFailure::Interrupted { interrupt, stats } => {
                write!(f, "search interrupted ({interrupt}; {} tried)", stats.candidates_tried)
            }
        }
    }
}

impl std::error::Error for SynthFailure {}

impl From<SynthFailure> for qbs_common::QbsError {
    fn from(err: SynthFailure) -> qbs_common::QbsError {
        match &err {
            SynthFailure::Unsupported(_) => qbs_common::QbsError::unsupported(err),
            SynthFailure::NoCandidate(stats) => {
                let tried = stats.candidates_tried;
                qbs_common::QbsError::synthesis(err, tried)
            }
            SynthFailure::Interrupted { interrupt, .. } => (*interrupt).into(),
        }
    }
}

impl From<crate::ShapeError> for qbs_common::QbsError {
    fn from(err: crate::ShapeError) -> qbs_common::QbsError {
        qbs_common::QbsError::unsupported(err)
    }
}

/// Delivers a per-candidate progress snapshot (with a live `elapsed`) to
/// the iteration hook, if one is installed.
fn notify_iteration(hooks: &mut SynthHooks<'_>, stats: &SynthStats, start: Instant) {
    if let Some(f) = hooks.on_iteration.as_mut() {
        let mut snapshot = stats.clone();
        snapshot.elapsed = start.elapsed();
        f(&snapshot);
    }
}

fn find_sources(prog: &KernelProgram) -> Vec<qbs_verify::SourceSpec> {
    fn walk(stmts: &[KStmt], out: &mut Vec<qbs_verify::SourceSpec>) {
        for s in stmts {
            match s {
                KStmt::Assign(v, KExpr::Query(spec)) => out.push(qbs_verify::SourceSpec {
                    var: v.clone(),
                    table: spec.table.clone(),
                    schema: spec.schema.clone(),
                }),
                KStmt::If(_, t, f) => {
                    walk(t, out);
                    walk(f, out);
                }
                KStmt::While(_, b) => walk(b, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(prog.body(), &mut out);
    out.sort_by(|a, b| a.var.cmp(&b.var));
    out.dedup();
    out
}

/// Synthesizes invariants and a postcondition for a kernel program.
///
/// `params` supplies the types of the fragment's scalar parameters.
///
/// # Errors
///
/// [`SynthFailure::Unsupported`] when the fragment shape cannot be analyzed
/// (custom comparators, non-monotonic loops, …); [`SynthFailure::NoCandidate`]
/// when the bounded template space contains no valid candidate — both map to
/// the paper's `*` status.
pub fn synthesize(
    prog: &KernelProgram,
    params: &TypeEnv,
    config: &SynthConfig,
) -> Result<SynthOutcome, SynthFailure> {
    synthesize_with_hooks(prog, params, config, SynthHooks::default())
}

/// [`synthesize`] with cross-run CEGIS sharing hooks — the entry point used
/// by corpus-scale batch drivers.
///
/// # Errors
///
/// Same failure modes as [`synthesize`].
pub fn synthesize_with_hooks(
    prog: &KernelProgram,
    params: &TypeEnv,
    config: &SynthConfig,
    mut hooks: SynthHooks<'_>,
) -> Result<SynthOutcome, SynthFailure> {
    let start = Instant::now();
    let types =
        typecheck(prog, params).map_err(|e| SynthFailure::Unsupported(e.to_string()))?;
    let vcs = generate(prog).map_err(|e| SynthFailure::Unsupported(e.to_string()))?;
    let shape = analyze(prog).map_err(|e| SynthFailure::Unsupported(e.to_string()))?;

    // Depth > 2 nesting is outside the template language.
    for l in &shape.loops {
        if let Some(p) = l.parent {
            if shape.loops[p].parent.is_some() {
                return Err(SynthFailure::Unsupported(
                    "loops nested more than two deep".to_string(),
                ));
            }
        }
    }

    let mined = mine(prog, &shape);
    let tenv = types.to_type_env();

    let param_types: Vec<(Ident, TorType)> = prog
        .params()
        .iter()
        .map(|p| (p.clone(), params.get(p).cloned().unwrap_or(TorType::Int)))
        .collect();
    let sources = find_sources(prog);
    // Bounded checking must exercise the fragment's own constants: a
    // predicate like `roleId = 5` is untestable on stores whose integer
    // domain is `{0, 1}`, and candidates mishandling it would slip
    // through the bound.
    let literals = prog.literals();
    let bounded_config = config.bounded.clone().with_literals(&literals);
    let checker = BoundedChecker::new(&sources, &param_types, tenv.clone(), &bounded_config);
    let mut extended: Option<BoundedChecker> = None;
    let mut cache = CexCache::new();
    let mut stats = SynthStats {
        cexes_seeded: cache.seed(hooks.seed_cexes.iter().cloned()),
        ..SynthStats::default()
    };

    // Template units: one per outermost loop (nested pairs share the outer
    // unit), in program order.
    let units: Vec<usize> = shape
        .loops
        .iter()
        .enumerate()
        .filter(|(_, l)| l.parent.is_none())
        .map(|(i, _)| i)
        .collect();

    // All templates per unit, up to the max level.
    let unit_templates: Vec<Vec<Template>> = units
        .iter()
        .map(|&u| product_templates(&shape, u, &mined, &types, config.max_level))
        .collect();
    if units.iter().zip(&unit_templates).any(|(_, ts)| ts.is_empty()) && !units.is_empty() {
        return Err(SynthFailure::Unsupported("no templates for a loop product".to_string()));
    }

    // Joint choices ordered by total level (incremental solving).
    let mut joints: Vec<(usize, BTreeMap<usize, Template>)> = Vec::new();
    if units.is_empty() {
        joints.push((1, BTreeMap::new()));
    } else {
        let mut cur: Vec<(usize, BTreeMap<usize, Template>)> = vec![(0, BTreeMap::new())];
        for (&u, ts) in units.iter().zip(&unit_templates) {
            let mut next = Vec::with_capacity(cur.len() * ts.len());
            for (lvl, partial) in &cur {
                for t in ts {
                    let mut m = partial.clone();
                    m.insert(u, t.clone());
                    next.push((lvl + t.level, m));
                }
            }
            cur = next;
        }
        joints = cur;
    }
    joints.sort_by_key(|(lvl, _)| *lvl);

    for (lvl, choice) in &joints {
        if *lvl > config.max_level * units.len().max(1) {
            break;
        }
        if let Some(interrupt) = hooks.interrupt.and_then(|f| f(&stats)) {
            stats.elapsed = start.elapsed();
            return Err(SynthFailure::Interrupted { interrupt, stats });
        }
        let Some(DerivedCandidate { candidate, post_rhs, post_scalar }) =
            derive_candidate(&shape, choice, prog, &vcs, &types)
        else {
            continue;
        };
        stats.candidates_tried += 1;
        stats.levels_used = *lvl;
        if cache.screen(&vcs.conditions, &vcs.unknowns, &candidate).is_some() {
            stats.cache_hits += 1;
            notify_iteration(&mut hooks, &stats, start);
            continue;
        }
        match checker.check(&vcs, &candidate) {
            CheckOutcome::Fail { env, .. } => {
                if let Some(on_cex) = hooks.on_cex.as_mut() {
                    on_cex(&env);
                }
                stats.cexes_found += 1;
                cache.push(env);
                notify_iteration(&mut hooks, &stats, start);
                continue;
            }
            CheckOutcome::Pass => {}
        }
        // Symbolic proof of every condition.
        let proof_started = Instant::now();
        let all_proved = vcs.conditions.iter().all(|vc| {
            matches!(prove(vc, &candidate, &vcs.unknowns, &tenv), ProofResult::Proved)
        });
        let proof = if all_proved {
            stats.proof_elapsed += proof_started.elapsed();
            ProofStatus::Proved
        } else {
            // Fall back to extended bounded checking.
            let ext = extended.get_or_insert_with(|| {
                // Built lazily — most candidates never reach the fallback,
                // so the literal-extended config is derived here too.
                let extended_config = config.extended.clone().with_literals(&literals);
                BoundedChecker::new(&sources, &param_types, tenv.clone(), &extended_config)
            });
            let outcome = ext.check(&vcs, &candidate);
            stats.proof_elapsed += proof_started.elapsed();
            match outcome {
                CheckOutcome::Pass => ProofStatus::ExtendedBounded,
                CheckOutcome::Fail { env, .. } => {
                    if let Some(on_cex) = hooks.on_cex.as_mut() {
                        on_cex(&env);
                    }
                    stats.cexes_found += 1;
                    cache.push(env);
                    notify_iteration(&mut hooks, &stats, start);
                    continue;
                }
            }
        };
        stats.elapsed = start.elapsed();
        notify_iteration(&mut hooks, &stats, start);
        return Ok(SynthOutcome { candidate, post_rhs, post_scalar, proof, stats });
    }

    stats.levels_used = 0;
    stats.elapsed = start.elapsed();
    Err(SynthFailure::NoCandidate(stats))
}
