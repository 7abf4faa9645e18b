//! The plan bytecode VM: [`PhysicalPlan`] lowered to a straight-line
//! register program, executed by one dispatch loop.
//!
//! The tree-walking interpreter ([`Database::execute_plan_with`] and
//! friends) re-derives a pile of per-execute decisions every call: the
//! LIMIT/OFFSET shapes, whether the limit can be pushed into the scan,
//! whether the projection fuses into the last operator, whether each scan
//! takes the vectorized columnar path, and — most expensively — the
//! [`ColKernel`] compilation of every pushed filter. All of those are
//! functions of the plan and the config alone, so [`compile_plan`] runs
//! them once and records the answers in a [`PlanProgram`]: a flat
//! [`Program`] of operator-granularity [`PlanOp`]s over frame registers,
//! plus the pre-resolved scan kernels, join strategies, and paging shape.
//! [`PlanProgram::run`] is then a single `for`-loop over opcodes whose
//! data work delegates to the *same* executor primitives the interpreter
//! uses (`scan_node`, `hash_join`, `filter`, `sort`, `distinct`), so rows
//! and [`ExecStats`] are identical by construction.
//!
//! Compilation declines (returns `None`) for the shapes whose execution
//! is dynamic by nature — no `FROM`, an unresolved projection, a
//! non-constant non-parameter LIMIT/OFFSET — and for
//! [`PlanConfig::force_interpreter`] (handled by the callers); those
//! statements keep the interpreter, which stays the differential
//! baseline for the oracle and the equivalence suite.
//!
//! Per-opcode dispatch counts and compile times land in this crate's
//! [`vm_metrics`] registry (`vm.dispatch.<op>`, `vm.compile_ns`,
//! `vm.compile.plans`, `vm.compile.kernels`).

use crate::db::{
    finish_frame, ColKernel, Database, DbError, Params, ScanKernel, SelectOutput, SubqueryState,
};
use crate::exec::{
    self, distinct, filter, hash_join, nested_loop_join, sort, sort_positions, EvalCtx,
    ExecStats, Frame, FrameCol, JoinLayout,
};
use crate::planner::{JoinAlgorithm, PhysicalPlan, PlanConfig, ScanSource};
use qbs_common::{Ident, OpCode, Program, SchemaRef, Value};
use qbs_obs::{Counter, Histogram, Metrics};
use qbs_sql::SqlExpr;
use qbs_tor::CmpOp;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One instruction of a compiled plan. Registers hold executor
/// [`Frame`]s; indices into the plan's scan/join vectors identify the
/// node an instruction executes.
#[derive(Clone, Debug)]
pub(crate) enum PlanOp {
    /// Run scan `node` with its pre-resolved kernel into register `dst`.
    Scan { node: usize, dst: usize },
    /// Join registers `left` and `right` via join step `step` into `dst`;
    /// `emit` fuses the statement projection into the join output.
    Join { step: usize, left: usize, right: usize, dst: usize, emit: bool },
    /// Apply the plan's residual predicate to `reg`.
    Residual { reg: usize },
    /// Hash-aggregate `reg` (grouped keys then `#agg<i>` columns) and
    /// apply the plan's rewritten HAVING filter to the grouped output.
    Aggregate { reg: usize },
    /// Sort `reg` by the compile-time-resolved ORDER BY spec.
    Sort { reg: usize },
    /// Apply OFFSET/LIMIT to `reg` (the non-DISTINCT placement, before
    /// projection).
    PageEarly { reg: usize },
    /// Apply the statically resolved projection to `reg`.
    Project { reg: usize },
    /// Deduplicate `reg`.
    Distinct { reg: usize },
    /// Apply OFFSET/LIMIT to `reg` (the DISTINCT placement, after dedup).
    PageLate { reg: usize },
    /// Finish: flush dispatch counters and return `reg`.
    Ret { reg: usize },
}

impl OpCode for PlanOp {
    const NAMES: &'static [&'static str] = &[
        "scan",
        "join",
        "residual",
        "aggregate",
        "sort",
        "page_early",
        "project",
        "distinct",
        "page_late",
        "ret",
    ];

    fn index(&self) -> usize {
        match self {
            PlanOp::Scan { .. } => 0,
            PlanOp::Join { .. } => 1,
            PlanOp::Residual { .. } => 2,
            PlanOp::Aggregate { .. } => 3,
            PlanOp::Sort { .. } => 4,
            PlanOp::PageEarly { .. } => 5,
            PlanOp::Project { .. } => 6,
            PlanOp::Distinct { .. } => 7,
            PlanOp::PageLate { .. } => 8,
            PlanOp::Ret { .. } => 9,
        }
    }
}

/// A LIMIT/OFFSET operand with its shape resolved at compile time. Only
/// the shapes the interpreter supports are representable; anything else
/// declines compilation (and the interpreter owns the runtime error).
#[derive(Clone, Debug)]
enum PageParam {
    Absent,
    Const(usize),
    Param(Ident),
}

impl PageParam {
    fn of(e: Option<&SqlExpr>) -> Option<PageParam> {
        match e {
            None => Some(PageParam::Absent),
            Some(SqlExpr::Lit(Value::Int(n))) => Some(PageParam::Const((*n).max(0) as usize)),
            Some(SqlExpr::Param(p)) => Some(PageParam::Param(p.clone())),
            Some(_) => None,
        }
    }

    fn is_absent(&self) -> bool {
        matches!(self, PageParam::Absent)
    }

    /// Resolves against this execution's bindings. `what` names the
    /// clause in the unbound-parameter error, matching the interpreter's
    /// message exactly.
    fn resolve(&self, params: &Params, what: &str) -> Result<Option<usize>, DbError> {
        match self {
            PageParam::Absent => Ok(None),
            PageParam::Const(n) => Ok(Some(*n)),
            PageParam::Param(p) => {
                let n = params
                    .get(p)
                    .and_then(Value::as_int)
                    .ok_or_else(|| DbError::Exec(format!("unbound {what} parameter :{p}")))?;
                Ok(Some(n.max(0) as usize))
            }
        }
    }
}

/// The scan strategy chosen at compile time for one scan node — what the
/// interpreter re-decides (and re-compiles) on every execute.
#[derive(Debug)]
pub(crate) enum KernelChoice {
    /// Vectorized, no filter: every row survives.
    AllRows,
    /// Vectorized with a fully compiled, parameter-free kernel — compiled
    /// once here instead of once per execute.
    Ready(ColKernel),
    /// Vectorized filter whose comparisons reference bind parameters:
    /// columns are resolved, only the parameter values are substituted
    /// per execute. An unbound parameter falls back to the row path,
    /// exactly as the interpreter's per-execute compilation would.
    Template(KernelTemplate),
    /// Row-at-a-time (probe, pushed limit, `force_row_store`, or a filter
    /// outside the kernel grammar).
    Row,
}

/// A [`ColKernel`] with parameter references left symbolic.
#[derive(Debug)]
pub(crate) enum KernelTemplate {
    Cmp { pos: usize, op: CmpOp, rhs: RhsTemplate },
    And(Vec<KernelTemplate>),
    Or(Vec<KernelTemplate>),
    Not(Box<KernelTemplate>),
}

#[derive(Debug)]
pub(crate) enum RhsTemplate {
    Const(Value),
    Param(Ident),
}

impl KernelTemplate {
    fn has_params(&self) -> bool {
        match self {
            KernelTemplate::Cmp { rhs, .. } => matches!(rhs, RhsTemplate::Param(_)),
            KernelTemplate::And(ps) | KernelTemplate::Or(ps) => {
                ps.iter().any(KernelTemplate::has_params)
            }
            KernelTemplate::Not(x) => x.has_params(),
        }
    }

    /// Substitutes this execution's bindings; `None` (some parameter is
    /// unbound) means "use the row path", matching what the interpreter's
    /// per-execute [`compile_kernel`](crate::db::compile_kernel) would decide.
    fn instantiate(&self, params: &Params) -> Option<ColKernel> {
        match self {
            KernelTemplate::Cmp { pos, op, rhs } => {
                let rhs = match rhs {
                    RhsTemplate::Const(v) => v.clone(),
                    RhsTemplate::Param(p) => params.get(p).cloned()?,
                };
                Some(ColKernel::Cmp { pos: *pos, op: *op, rhs })
            }
            KernelTemplate::And(ps) => ps
                .iter()
                .map(|p| p.instantiate(params))
                .collect::<Option<Vec<_>>>()
                .map(ColKernel::And),
            KernelTemplate::Or(ps) => ps
                .iter()
                .map(|p| p.instantiate(params))
                .collect::<Option<Vec<_>>>()
                .map(ColKernel::Or),
            KernelTemplate::Not(x) => {
                x.instantiate(params).map(|k| ColKernel::Not(Box::new(k)))
            }
        }
    }
}

enum TemplateOperand {
    Col(usize),
    Const(Value),
    Param(Ident),
}

fn template_operand(e: &SqlExpr, shell: &Frame) -> Option<TemplateOperand> {
    match e {
        SqlExpr::Column { qualifier, name } => {
            shell.resolve(qualifier.as_ref(), name).map(TemplateOperand::Col)
        }
        SqlExpr::Lit(v) => Some(TemplateOperand::Const(v.clone())),
        SqlExpr::Param(p) => Some(TemplateOperand::Param(p.clone())),
        _ => None,
    }
}

/// [`compile_kernel`](crate::db::compile_kernel) with bind parameters kept symbolic: the grammar is
/// identical (column-vs-constant comparisons under AND/OR/NOT), so any
/// filter this declines would also keep the interpreter on the row path.
fn compile_template(e: &SqlExpr, shell: &Frame) -> Option<KernelTemplate> {
    match e {
        SqlExpr::Cmp(a, op, b) => {
            match (template_operand(a, shell)?, template_operand(b, shell)?) {
                (TemplateOperand::Col(pos), TemplateOperand::Const(v)) => {
                    Some(KernelTemplate::Cmp { pos, op: *op, rhs: RhsTemplate::Const(v) })
                }
                (TemplateOperand::Col(pos), TemplateOperand::Param(p)) => {
                    Some(KernelTemplate::Cmp { pos, op: *op, rhs: RhsTemplate::Param(p) })
                }
                (TemplateOperand::Const(v), TemplateOperand::Col(pos)) => {
                    Some(KernelTemplate::Cmp { pos, op: op.flip(), rhs: RhsTemplate::Const(v) })
                }
                (TemplateOperand::Param(p), TemplateOperand::Col(pos)) => {
                    Some(KernelTemplate::Cmp { pos, op: op.flip(), rhs: RhsTemplate::Param(p) })
                }
                _ => None,
            }
        }
        SqlExpr::And(ps) if !ps.is_empty() => {
            let parts: Vec<KernelTemplate> =
                ps.iter().map(|p| compile_template(p, shell)).collect::<Option<_>>()?;
            Some(KernelTemplate::And(parts))
        }
        SqlExpr::Or(ps) if !ps.is_empty() => {
            let parts: Vec<KernelTemplate> =
                ps.iter().map(|p| compile_template(p, shell)).collect::<Option<_>>()?;
            Some(KernelTemplate::Or(parts))
        }
        SqlExpr::Not(x) => Some(KernelTemplate::Not(Box::new(compile_template(x, shell)?))),
        _ => None,
    }
}

/// The ORDER BY strategy resolved at compile time.
#[derive(Clone, Debug)]
enum SortSpec {
    /// Every key is a plain column resolved against the pre-sort layout:
    /// rows sort in place comparing key positions, skipping the
    /// interpreter's per-row key evaluation and decoration.
    Cols(Vec<(usize, bool)>),
    /// Fallback for computed or unresolvable keys: the interpreter's
    /// decorate-and-sort, with the key expressions pre-cloned (and any
    /// evaluation error surfacing exactly as the interpreter's would).
    Exprs(Vec<(SqlExpr, bool)>),
}

/// The join strategy resolved at compile time for one join step.
#[derive(Clone, Debug)]
enum JoinSpec {
    /// Hash join on plan-resolved key positions.
    HashIdx(usize, usize),
    /// Hash join with per-row key expression evaluation.
    HashExpr,
    /// Nested-loop join.
    Loop,
}

/// A compiled plan: the opcode vector plus everything the interpreter
/// used to re-derive per execute. Cached on `PreparedStatement` next to
/// the plan it was compiled from and invalidated with it.
#[derive(Debug)]
pub struct PlanProgram {
    plan: Arc<PhysicalPlan>,
    code: Program<PlanOp>,
    kernels: Vec<KernelChoice>,
    joins: Vec<JoinSpec>,
    /// Per-step output/pair layouts, precomputed when every input layout
    /// is a compile-time fact (`None` keeps the per-execute derivation).
    join_layouts: Vec<Option<JoinLayout>>,
    limit: PageParam,
    offset: PageParam,
    /// The single-scan shape allows pushing LIMIT+OFFSET into the scan.
    scan_limit: bool,
    /// The single-scan fused shape materializes scan rows in output shape.
    scan_emit: bool,
    sort: SortSpec,
    /// Per-opcode dispatch counts, precomputed: plan programs are
    /// straight-line (no branches), so every run dispatches exactly the
    /// ops in `code` — the tally is a compile-time constant and the run
    /// loop only flushes it, never counts.
    dispatch_counts: Vec<(usize, u64)>,
}

impl PlanProgram {
    /// Number of instructions (exposed for tests and reporting).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the program has no instructions (never, for a compiled
    /// plan — present for the conventional pair with [`PlanProgram::len`]).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Executes the program against `db`. One loop, no tree walking: every
    /// opcode's data work calls the same executor primitive the
    /// interpreter would, so rows and [`ExecStats`] match it exactly.
    #[allow(clippy::too_many_arguments)] // mirrors the interpreter's internal plumbing
    pub(crate) fn run(
        &self,
        db: &Database,
        params: &Params,
        ctx: &EvalCtx<'_>,
        stats: &mut ExecStats,
        shared: &SubqueryState,
        version: u64,
    ) -> Result<Frame, DbError> {
        let plan = &*self.plan;
        let limit_n = self.limit.resolve(params, "LIMIT")?;
        let offset_n = self.offset.resolve(params, "OFFSET")?.unwrap_or(0);
        let scan_limit =
            if self.scan_limit { limit_n.map(|n| n.saturating_add(offset_n)) } else { None };
        let scan_emit = if self.scan_emit {
            Some(plan.projection.as_ref().expect("compiled plans have projections"))
        } else {
            None
        };

        // Registers live on the stack for the common arities; only
        // wide-join programs pay a heap allocation per run.
        let mut stack_regs: [Option<Frame>; 8] = Default::default();
        let mut heap_regs: Vec<Option<Frame>>;
        let regs: &mut [Option<Frame>] = if self.code.regs <= stack_regs.len() {
            &mut stack_regs[..self.code.regs]
        } else {
            heap_regs = (0..self.code.regs).map(|_| None).collect();
            &mut heap_regs
        };
        for op in &self.code.ops {
            match op {
                PlanOp::Scan { node, dst } => {
                    let instantiated;
                    let kernel = match &self.kernels[*node] {
                        KernelChoice::Row => ScanKernel::Row,
                        KernelChoice::AllRows => ScanKernel::Vector(None),
                        KernelChoice::Ready(k) => ScanKernel::Vector(Some(k)),
                        KernelChoice::Template(t) => match t.instantiate(params) {
                            Some(k) => {
                                instantiated = k;
                                ScanKernel::Vector(Some(&instantiated))
                            }
                            None => ScanKernel::Row,
                        },
                    };
                    let frame = db.scan_node(
                        &plan.scans[*node],
                        params,
                        ctx,
                        stats,
                        shared,
                        version,
                        scan_limit,
                        scan_emit,
                        kernel,
                    )?;
                    regs[*dst] = Some(frame);
                }
                PlanOp::Join { step, left, right, dst, emit } => {
                    let s = &plan.joins[*step];
                    let l = regs[*left].take().expect("left operand scanned");
                    let r = regs[*right].take().expect("right operand scanned");
                    let emit = (*emit)
                        .then(|| plan.projection.as_ref().expect("compiled plans project"));
                    let layout = self.join_layouts[*step].as_ref();
                    let out = match &self.joins[*step] {
                        JoinSpec::HashIdx(li, ri) => hash_join(
                            l,
                            r,
                            exec::JoinKey::Idx(*li),
                            exec::JoinKey::Idx(*ri),
                            s.residual.as_ref(),
                            emit,
                            layout,
                            ctx,
                            stats,
                        )?,
                        JoinSpec::HashExpr => {
                            let (lk, rk) = s.key.as_ref().expect("hash join keyed");
                            hash_join(
                                l,
                                r,
                                exec::JoinKey::Expr(lk),
                                exec::JoinKey::Expr(rk),
                                s.residual.as_ref(),
                                emit,
                                layout,
                                ctx,
                                stats,
                            )?
                        }
                        JoinSpec::Loop => nested_loop_join(
                            l,
                            r,
                            s.residual.as_ref(),
                            emit,
                            layout,
                            ctx,
                            stats,
                        )?,
                    };
                    regs[*dst] = Some(out);
                }
                PlanOp::Residual { reg } => {
                    let f = regs[*reg].take().expect("pipeline register filled");
                    let pred = plan.residual.as_ref().expect("residual op implies predicate");
                    regs[*reg] = Some(filter(f, pred, ctx)?);
                }
                PlanOp::Aggregate { reg } => {
                    let f = regs[*reg].take().expect("pipeline register filled");
                    let agg = plan.aggregate.as_ref().expect("aggregate op implies node");
                    let mut out = exec::hash_aggregate(f, agg, ctx)?;
                    if let Some(h) = &agg.having {
                        out = filter(out, h, ctx)?;
                    }
                    regs[*reg] = Some(out);
                }
                PlanOp::Sort { reg } => {
                    let f = regs[*reg].take().expect("pipeline register filled");
                    regs[*reg] = Some(match &self.sort {
                        SortSpec::Cols(keys) => sort_positions(f, keys),
                        SortSpec::Exprs(keys) => sort(f, keys, ctx)?,
                    });
                }
                PlanOp::PageEarly { reg } | PlanOp::PageLate { reg } => {
                    let f = regs[*reg].as_mut().expect("pipeline register filled");
                    if offset_n > 0 {
                        f.rows.drain(..offset_n.min(f.rows.len()));
                    }
                    if let Some(n) = limit_n {
                        f.rows.truncate(n);
                    }
                }
                PlanOp::Project { reg } => {
                    let f = regs[*reg].take().expect("pipeline register filled");
                    let (cols, idx) = plan.projection.as_ref().expect("compiled plans project");
                    let rows = f
                        .rows
                        .into_iter()
                        .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
                        .collect();
                    regs[*reg] = Some(Frame { cols: cols.clone(), rows });
                }
                PlanOp::Distinct { reg } => {
                    let f = regs[*reg].take().expect("pipeline register filled");
                    regs[*reg] = Some(distinct(f));
                }
                PlanOp::Ret { reg } => {
                    let ins = instruments();
                    for (i, n) in &self.dispatch_counts {
                        ins.dispatch[*i].add(*n);
                    }
                    return Ok(regs[*reg].take().expect("pipeline register filled"));
                }
            }
        }
        unreachable!("plan programs end with Ret")
    }
}

/// Compiles a plan into a [`PlanProgram`], or `None` when the plan's
/// shape needs the interpreter (no `FROM`, dynamic projection, or a
/// LIMIT/OFFSET outside the constant/parameter shapes). Observes
/// `vm.compile_ns` and the `vm.compile.*` counters.
pub(crate) fn compile_plan(
    plan: &Arc<PhysicalPlan>,
    config: &PlanConfig,
) -> Option<PlanProgram> {
    let started = Instant::now();
    let built = build_program(plan, config);
    let ins = instruments();
    ins.compile_ns.observe(started.elapsed().as_nanos() as u64);
    if let Some(p) = &built {
        ins.compiled_plans.inc();
        let kernels = p
            .kernels
            .iter()
            .filter(|k| matches!(k, KernelChoice::Ready(_) | KernelChoice::Template(_)))
            .count();
        ins.compiled_kernels.add(kernels as u64);
    }
    built
}

fn build_program(plan: &Arc<PhysicalPlan>, config: &PlanConfig) -> Option<PlanProgram> {
    // "Query without FROM" and dynamically resolved projections keep the
    // interpreter: the former is a runtime error it owns, the latter
    // carries runtime resolution (and its errors) the VM does not model.
    if plan.scans.is_empty() || plan.projection.is_none() {
        return None;
    }
    let limit = PageParam::of(plan.limit.as_ref())?;
    let offset = PageParam::of(plan.offset.as_ref())?;

    // The same shape analyses the interpreter performs per execute, done
    // once. `scan_limit` here records only whether the *shape* allows the
    // pushdown; the pushed value still depends on this execution's
    // bindings, resolved in `run`.
    let scan_limit = plan.scans.len() == 1
        && plan.joins.is_empty()
        && plan.residual.is_none()
        && plan.aggregate.is_none()
        && plan.order_by.is_empty()
        && !plan.distinct;
    let fused = plan.residual.is_none() && plan.aggregate.is_none() && plan.order_by.is_empty();
    let scan_emit = fused && plan.scans.len() == 1;
    // When the shape pushes a limit the scan must run row-at-a-time (the
    // "stop at the k-th match" contract); a present LIMIT always resolves
    // to a pushed value in that shape, so the choice is static.
    let pushes_limit = scan_limit && !limit.is_absent();

    let kernels: Vec<KernelChoice> = plan
        .scans
        .iter()
        .map(|node| {
            if matches!(node.source, ScanSource::Subquery { .. })
                || node.probe.is_some()
                || pushes_limit
                || config.force_row_store
            {
                return KernelChoice::Row;
            }
            match &node.filter {
                None => KernelChoice::AllRows,
                Some(pred) => {
                    let shell = Frame::new(node.cols.clone());
                    match compile_template(pred, &shell) {
                        None => KernelChoice::Row,
                        Some(t) if t.has_params() => KernelChoice::Template(t),
                        Some(t) => KernelChoice::Ready(
                            t.instantiate(&Params::new())
                                .expect("parameter-free template instantiates"),
                        ),
                    }
                }
            }
        })
        .collect();

    let joins: Vec<JoinSpec> = plan
        .joins
        .iter()
        .map(|step| match (&step.algorithm, &step.key) {
            (JoinAlgorithm::Hash, Some(_)) => match step.key_idx {
                Some((li, ri)) => JoinSpec::HashIdx(li, ri),
                None => JoinSpec::HashExpr,
            },
            _ => JoinSpec::Loop,
        })
        .collect();

    // Join layouts: in the operator pipeline every table scan
    // materializes its pruned layout and joins concatenate left-to-right,
    // so each step's output/pair columns are compile-time facts — what
    // `join_cols` otherwise re-clones per execute. A subquery scan's
    // layout materializes at run time and keeps the per-execute path.
    let scan_layout = |node: &crate::planner::ScanNode| match node.source {
        ScanSource::Table(_) => Some(node.out_cols()),
        ScanSource::Subquery { .. } => None,
    };
    let mut join_layouts: Vec<Option<JoinLayout>> = Vec::with_capacity(plan.joins.len());
    let mut acc = scan_layout(&plan.scans[0]);
    for k in 0..plan.joins.len() {
        acc = match (acc.take(), scan_layout(&plan.scans[k + 1])) {
            (Some(l), Some(r)) => {
                let mut pair = l;
                pair.extend(r);
                let out = if fused && k + 1 == plan.joins.len() {
                    plan.projection.as_ref().expect("compiled plans project").0.clone()
                } else {
                    pair.clone()
                };
                join_layouts
                    .push(Some(JoinLayout { out: out.clone(), pair: Frame::new(pair) }));
                Some(out)
            }
            _ => {
                join_layouts.push(None);
                None
            }
        };
    }

    let pages = !limit.is_absent() || !offset.is_absent();
    let mut ops: Vec<PlanOp> = Vec::new();
    for i in 0..plan.scans.len() {
        ops.push(PlanOp::Scan { node: i, dst: i });
    }
    for k in 0..plan.joins.len() {
        ops.push(PlanOp::Join {
            step: k,
            left: 0,
            right: k + 1,
            dst: 0,
            emit: fused && k + 1 == plan.joins.len(),
        });
    }
    if plan.residual.is_some() {
        ops.push(PlanOp::Residual { reg: 0 });
    }
    if plan.aggregate.is_some() {
        ops.push(PlanOp::Aggregate { reg: 0 });
    }
    if !plan.order_by.is_empty() {
        ops.push(PlanOp::Sort { reg: 0 });
    }
    if !plan.distinct && pages {
        ops.push(PlanOp::PageEarly { reg: 0 });
    }
    if !fused {
        ops.push(PlanOp::Project { reg: 0 });
    }
    if plan.distinct {
        ops.push(PlanOp::Distinct { reg: 0 });
        if pages {
            ops.push(PlanOp::PageLate { reg: 0 });
        }
    }
    ops.push(PlanOp::Ret { reg: 0 });

    let mut tally = qbs_common::DispatchTally::new(PlanOp::NAMES.len());
    for op in &ops {
        tally.record(op.index());
    }
    Some(PlanProgram {
        plan: plan.clone(),
        code: Program { regs: plan.scans.len(), ops },
        kernels,
        joins,
        join_layouts,
        limit,
        offset,
        scan_limit,
        scan_emit,
        sort: sort_spec(plan),
        dispatch_counts: tally.drain().collect(),
    })
}

/// Resolves ORDER BY keys against the pre-sort layout. The sort only runs
/// in the non-fused pipeline, where every scan materializes its pruned
/// layout ([`ScanNode::out_cols`]) and joins concatenate their inputs —
/// so for table-only plans the layout is a compile-time fact. Any
/// subquery scan (layout materializes at run time), computed key, or
/// unresolvable/ambiguous reference falls back to the expression sort.
fn sort_spec(plan: &PhysicalPlan) -> SortSpec {
    let exprs = || plan.order_by.iter().map(|k| (k.expr.clone(), k.asc)).collect();
    if plan.order_by.is_empty() {
        return SortSpec::Exprs(exprs());
    }
    // Post-aggregate, rows sort in the aggregate's output layout — a
    // compile-time fact regardless of what the scans materialize.
    let cols: Vec<FrameCol> = match &plan.aggregate {
        Some(agg) => agg.out_cols.clone(),
        None => {
            if plan.scans.iter().any(|n| matches!(n.source, ScanSource::Subquery { .. })) {
                return SortSpec::Exprs(exprs());
            }
            plan.scans.iter().flat_map(|node| node.out_cols()).collect()
        }
    };
    let mut keys = Vec::with_capacity(plan.order_by.len());
    for k in &plan.order_by {
        let SqlExpr::Column { qualifier, name } = &k.expr else {
            return SortSpec::Exprs(exprs());
        };
        match exec::resolve_cols(&cols, qualifier.as_ref(), name) {
            Some(pos) => keys.push((pos, k.asc)),
            None => return SortSpec::Exprs(exprs()),
        }
    }
    SortSpec::Cols(keys)
}

impl Database {
    /// Executes a compiled [`PlanProgram`] — the VM counterpart of
    /// [`Database::execute_plan_cached`], sharing its hoisting scaffolding
    /// and output materialization so the two paths differ only in how the
    /// operator pipeline is driven.
    pub(crate) fn execute_program(
        &self,
        prog: &PlanProgram,
        params: &Params,
        shared: &SubqueryState,
        version: u64,
        schema_cache: Option<&OnceLock<SchemaRef>>,
    ) -> Result<SelectOutput, DbError> {
        let mut stats = ExecStats::default();
        let started = Instant::now();
        let frame = self.with_hoisting(params, &mut stats, shared, version, |ctx, stats| {
            prog.run(self, params, ctx, stats, shared, version)
        })?;
        stats.exec_ns = started.elapsed().as_nanos() as u64;
        finish_frame(frame, stats, schema_cache)
    }
}

/// The VM's metrics: one pre-registered handle per counter so the
/// dispatch-loop flush is pure atomic adds (no name formatting or
/// registry locking on the hot path).
struct VmInstruments {
    metrics: Metrics,
    dispatch: Vec<Counter>,
    compile_ns: Histogram,
    compiled_plans: Counter,
    compiled_kernels: Counter,
}

fn instruments() -> &'static VmInstruments {
    static VM: OnceLock<VmInstruments> = OnceLock::new();
    VM.get_or_init(|| {
        let metrics = Metrics::new();
        let dispatch = PlanOp::NAMES
            .iter()
            .map(|n| metrics.counter(&format!("vm.dispatch.{n}")))
            .collect();
        VmInstruments {
            dispatch,
            compile_ns: metrics.histogram("vm.compile_ns", &qbs_obs::time_bounds_ns()),
            compiled_plans: metrics.counter("vm.compile.plans"),
            compiled_kernels: metrics.counter("vm.compile.kernels"),
            metrics,
        }
    })
}

/// The process-wide plan-VM metrics registry: per-opcode dispatch
/// counters (`vm.dispatch.<op>`), the `vm.compile_ns` histogram, and the
/// `vm.compile.plans` / `vm.compile.kernels` totals.
pub fn vm_metrics() -> Metrics {
    instruments().metrics.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan_with;
    use qbs_common::{FieldType, Schema};
    use qbs_sql::parse_query;

    fn setup() -> Database {
        let mut db = Database::new();
        db.create_table(
            Schema::builder("users")
                .field("id", FieldType::Int)
                .field("roleId", FieldType::Int)
                .finish(),
        )
        .unwrap();
        db.create_table(
            Schema::builder("roles")
                .field("roleId", FieldType::Int)
                .field("label", FieldType::Str)
                .finish(),
        )
        .unwrap();
        for i in 0..8i64 {
            db.insert("users", vec![Value::from(i), Value::from(i % 3)]).unwrap();
        }
        for r in 0..3i64 {
            db.insert("roles", vec![Value::from(r), Value::from(format!("role{r}"))]).unwrap();
        }
        db
    }

    fn run_program(db: &Database, prog: &PlanProgram, params: &Params) -> SelectOutput {
        let shared = SubqueryState::new(PlanConfig::default());
        db.execute_program(prog, params, &shared, 0, None).unwrap()
    }

    #[test]
    fn compiled_join_matches_interpreter_rows_and_stats() {
        let db = setup();
        let cfg = PlanConfig::default();
        let q = parse_query(
            "SELECT users.id, roles.label FROM users, roles \
             WHERE users.roleId = roles.roleId AND users.id > 1",
        )
        .unwrap();
        let plan = Arc::new(plan_with(&q, &db, &cfg));
        let prog = compile_plan(&plan, &cfg).expect("join plans compile");
        let vm = run_program(&db, &prog, &Params::new());
        let interp = db.execute_plan_with(&plan, &Params::new(), &cfg).unwrap();
        assert_eq!(vm.rows, interp.rows);
        assert_eq!(vm.stats, interp.stats);
        assert_eq!(vm.stats.joins, vec!["hash"]);
    }

    #[test]
    fn parameterized_filter_compiles_to_a_template() {
        let db = setup();
        let cfg = PlanConfig::default();
        let q = parse_query("SELECT id FROM users WHERE roleId = :r").unwrap();
        let plan = Arc::new(plan_with(&q, &db, &cfg));
        let prog = compile_plan(&plan, &cfg).expect("parameterized filters compile");
        assert!(
            matches!(prog.kernels[0], KernelChoice::Template(_)),
            "parameter comparisons stay symbolic until execute",
        );
        let mut params = Params::new();
        params.insert("r".into(), Value::from(1));
        let vm = run_program(&db, &prog, &params);
        let interp = db.execute_plan_with(&plan, &params, &cfg).unwrap();
        assert_eq!(vm, interp);
    }

    #[test]
    fn pushed_limit_keeps_the_row_path_and_early_exit() {
        let db = setup();
        let cfg = PlanConfig::default();
        let q = parse_query("SELECT id FROM users LIMIT 2").unwrap();
        let plan = Arc::new(plan_with(&q, &db, &cfg));
        let prog = compile_plan(&plan, &cfg).expect("limit plans compile");
        assert!(matches!(prog.kernels[0], KernelChoice::Row));
        let vm = run_program(&db, &prog, &Params::new());
        assert_eq!(vm.rows.len(), 2);
        assert_eq!(vm.stats.rows_scanned, 2, "early exit preserved");
    }

    #[test]
    fn shapes_outside_the_vm_decline_to_compile() {
        let db = setup();
        let cfg = PlanConfig::default();
        // LIMIT on a non-constant, non-parameter expression never plans
        // from SQL text; emulate by clearing the projection instead.
        let q = parse_query("SELECT id FROM users").unwrap();
        let mut plan = plan_with(&q, &db, &cfg);
        plan.projection = None;
        assert!(compile_plan(&Arc::new(plan), &cfg).is_none());
    }

    #[test]
    fn compiled_group_by_matches_interpreter_rows_and_stats() {
        let db = setup();
        let cfg = PlanConfig::default();
        for sql in [
            "SELECT roleId, COUNT(*) FROM users GROUP BY roleId",
            "SELECT roleId, SUM(id), MIN(id), MAX(id) FROM users GROUP BY roleId",
            "SELECT roleId, COUNT(*) FROM users GROUP BY roleId HAVING SUM(id) > 5",
            "SELECT roleId, SUM(id) FROM users GROUP BY roleId ORDER BY roleId DESC",
        ] {
            let q = parse_query(sql).unwrap();
            let plan = Arc::new(plan_with(&q, &db, &cfg));
            let prog = compile_plan(&plan, &cfg).expect("grouped plans compile");
            let vm = run_program(&db, &prog, &Params::new());
            let interp = db.execute_plan_with(&plan, &Params::new(), &cfg).unwrap();
            assert_eq!(vm.rows, interp.rows, "{sql}");
            assert_eq!(vm.stats, interp.stats, "{sql}");
            assert!(!vm.rows.is_empty(), "{sql}");
        }
    }

    /// The per-run count of opcode `name`, read from the program's own
    /// precomputed tally. The process-global `vm_metrics()` counters are
    /// shared with every test thread that dispatches, so an exact delta
    /// on them races; the program's count does not.
    fn per_run(prog: &PlanProgram, name: &str) -> u64 {
        let op = PlanOp::NAMES.iter().position(|n| *n == name).expect("known opcode");
        prog.dispatch_counts.iter().find(|(i, _)| *i == op).map_or(0, |(_, n)| *n)
    }

    /// Runs `prog` once and checks the flush: the global counter for
    /// `name` advances by at least the program's per-run count (other
    /// test threads may add to it concurrently, never subtract).
    fn assert_flushed(db: &Database, prog: &PlanProgram, name: &str) {
        let counter = vm_metrics().counter(&format!("vm.dispatch.{name}"));
        let before = counter.get();
        let _ = run_program(db, prog, &Params::new());
        assert!(counter.get() - before >= per_run(prog, name), "{name} dispatches flushed");
    }

    #[test]
    fn aggregate_dispatch_counter_accumulates() {
        let db = setup();
        let cfg = PlanConfig::default();
        let q = parse_query("SELECT roleId, COUNT(*) FROM users GROUP BY roleId").unwrap();
        let plan = Arc::new(plan_with(&q, &db, &cfg));
        let prog = compile_plan(&plan, &cfg).expect("compiles");
        assert_eq!(per_run(&prog, "aggregate"), 1, "one aggregate dispatch per run");
        assert_flushed(&db, &prog, "aggregate");
    }

    #[test]
    fn dispatch_counters_accumulate() {
        let db = setup();
        let cfg = PlanConfig::default();
        let q = parse_query("SELECT id FROM users WHERE roleId = 1 ORDER BY id").unwrap();
        let plan = Arc::new(plan_with(&q, &db, &cfg));
        let prog = compile_plan(&plan, &cfg).expect("compiles");
        assert_eq!(per_run(&prog, "sort"), 1, "one sort dispatch per run");
        assert_flushed(&db, &prog, "sort");
    }
}
