//! The plan bytecode VM: [`PhysicalPlan`] lowered to a straight-line
//! register program, executed by one dispatch loop. It is the only way a
//! plan runs: prepared statements, one-shot `Database::execute*` calls,
//! FROM and hoisted `IN` sub-queries, and EXPLAIN ANALYZE all go through
//! [`PlanProgram::run`].
//!
//! [`compile_plan`] makes every decision that is a function of the plan
//! and the config alone, once: the LIMIT/OFFSET shapes, whether the limit
//! can be pushed into the scan, whether the projection fuses into the last
//! operator, whether each scan takes the vectorized columnar path and the
//! [`ColKernel`] of its pushed filter (bind parameters left symbolic), the
//! join strategies and layouts, the ORDER BY key positions, and the child
//! programs of FROM sub-queries. The result is a [`PlanProgram`]: a flat
//! [`Program`] of operator-granularity [`PlanOp`]s over frame registers.
//! [`PlanProgram::run`] is one `for`-loop over the opcodes; the data work
//! lives in the executor primitives (`scan_table`, `hash_join`, `filter`,
//! `sort`, `distinct`).
//!
//! Compilation never declines. A plan the VM cannot run — no `FROM`, a
//! projection the planner could not resolve, a LIMIT/OFFSET that is
//! neither a constant nor a parameter — is a [`DbError`] at compile time.
//!
//! With `Some(&mut PlanActuals)` the run reads two clocks around every
//! operator and records its rows and time (EXPLAIN ANALYZE); with `None`
//! the cost is one branch per opcode.
//!
//! Per-opcode dispatch counts and compile times land in this crate's
//! [`vm_metrics`] registry (`vm.dispatch.<op>`, `vm.compile_ns`,
//! `vm.compile.plans`, `vm.compile.kernels`).

use crate::analyze::{OpActuals, PlanActuals, ScanActuals};
use crate::db::{ColKernel, Database, DbError, Params, ScanKernel, SubqueryState};
use crate::exec::{
    self, distinct, filter, hash_join, nested_loop_join, sort, sort_positions, ExecStats,
    Frame, FrameCol, JoinLayout,
};
use crate::planner::{JoinAlgorithm, PhysicalPlan, PlanConfig, ScanNode, ScanSource};
use qbs_common::{Ident, OpCode, Program, Value};
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

/// A LIMIT/OFFSET operand with its shape resolved at compile time: a
/// constant or a bind parameter. Any other expression fails compilation.
#[derive(Clone, Debug)]
enum PageParam {
    Absent,
    Const(usize),
    Param(Ident),
}

impl PageParam {
    /// `what` names the clause (`LIMIT`/`OFFSET`) in the error.
    fn of(e: Option<&SqlExpr>, what: &str) -> Result<PageParam, DbError> {
        match e {
            None => Ok(PageParam::Absent),
            Some(SqlExpr::Lit(Value::Int(n))) => Ok(PageParam::Const((*n).max(0) as usize)),
            Some(SqlExpr::Param(p)) => Ok(PageParam::Param(p.clone())),
            Some(other) => Err(DbError::Exec(format!("unsupported {what} {other:?}"))),
        }
    }

    fn is_absent(&self) -> bool {
        matches!(self, PageParam::Absent)
    }

    /// Resolves against this execution's bindings. `what` names the
    /// clause in the unbound-parameter error.
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

/// The scan strategy chosen at compile time for one scan node.
#[derive(Debug)]
pub(crate) enum KernelChoice {
    /// Vectorized, no filter: every row survives.
    AllRows,
    /// Vectorized with a fully compiled, parameter-free kernel.
    Ready(ColKernel),
    /// Vectorized filter whose comparisons reference bind parameters:
    /// columns are resolved, only the parameter values are substituted
    /// per execute. An unbound parameter falls back to the row path,
    /// which reports it.
    Template(KernelTemplate),
    /// Row-at-a-time (probe, pushed limit, `force_row_store`, or a filter
    /// outside the kernel grammar).
    Row,
    /// A FROM sub-query: its plan, compiled together with this one.
    Subquery(Box<PlanProgram>),
}

impl KernelChoice {
    /// The table-scan strategy for this execution's bindings; an
    /// instantiated template kernel lives in `slot`.
    fn scan_kernel<'a>(
        &'a self,
        params: &Params,
        slot: &'a mut Option<ColKernel>,
    ) -> ScanKernel<'a> {
        match self {
            KernelChoice::AllRows => ScanKernel::Vector(None),
            KernelChoice::Ready(k) => ScanKernel::Vector(Some(k)),
            KernelChoice::Template(t) => match t.instantiate(params) {
                Some(k) => ScanKernel::Vector(Some(slot.insert(k))),
                None => ScanKernel::Row,
            },
            KernelChoice::Row | KernelChoice::Subquery(_) => ScanKernel::Row,
        }
    }
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
    /// unbound) means "use the row path", which owns the unbound-parameter
    /// error.
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

/// Compiles a pushed filter against the scan's column layout (`shell`
/// carries the raw row plus rowid), bind parameters kept symbolic. The
/// grammar is column-vs-constant comparisons under AND/OR/NOT; `None`
/// keeps the scan on the row path.
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
    /// rows sort in place comparing key positions, with no per-row key
    /// evaluation.
    Cols(Vec<(usize, bool)>),
    /// Fallback for computed or unresolvable keys: decorate-and-sort on
    /// the evaluated key expressions (which report evaluation errors).
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

/// A compiled plan: the opcode vector plus every per-plan decision the
/// run needs. Cached on `PreparedStatement` next to the plan it was
/// compiled from and invalidated with it.
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

    /// The plan this program was compiled from.
    pub(crate) fn plan(&self) -> &Arc<PhysicalPlan> {
        &self.plan
    }

    /// The statically resolved projection (compilation fails without one).
    fn projection(&self) -> &(Vec<FrameCol>, Vec<usize>) {
        self.plan.projection.as_ref().expect("compiled plans have projections")
    }

    /// Executes the program against `db` and returns the output frame,
    /// with sub-query hoisting wired into the evaluation context (see
    /// [`Database::with_hoisting`]). One loop over the opcodes, no tree
    /// walking.
    ///
    /// With `actuals`, every operator's output rows and wall-clock time
    /// are recorded (the EXPLAIN ANALYZE path); with `None` no per-op
    /// clock is read. Nested programs (FROM sub-queries, hoisted `IN`
    /// sub-queries) are never instrumented — their work shows up in the
    /// enclosing operator's figures.
    pub(crate) fn run(
        &self,
        db: &Database,
        params: &Params,
        stats: &mut ExecStats,
        shared: &SubqueryState,
        version: u64,
        mut actuals: Option<&mut PlanActuals>,
    ) -> Result<Frame, DbError> {
        db.with_hoisting(params, stats, shared, version, |ctx, stats| {
            let plan = &*self.plan;
            let limit_n = self.limit.resolve(params, "LIMIT")?;
            let offset_n = self.offset.resolve(params, "OFFSET")?.unwrap_or(0);
            // An OFFSET widens the prefix a pushed scan must produce: the
            // first `offset` keepers are dropped again by `PageEarly`.
            let scan_limit = if self.scan_limit {
                limit_n.map(|n| n.saturating_add(offset_n))
            } else {
                None
            };
            let scan_emit = self.scan_emit.then(|| self.projection());

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
                let opened = actuals.is_some().then(|| (Instant::now(), stats.rows_scanned));
                match op {
                    PlanOp::Scan { node, dst } => {
                        let n = &plan.scans[*node];
                        regs[*dst] = Some(match &self.kernels[*node] {
                            KernelChoice::Subquery(child) => self.subquery_scan(
                                child, n, db, params, ctx, stats, shared, version, scan_limit,
                                scan_emit,
                            )?,
                            choice => {
                                let mut instantiated = None;
                                let kernel = choice.scan_kernel(params, &mut instantiated);
                                db.scan_table(
                                    n, params, ctx, stats, scan_limit, scan_emit, kernel,
                                )?
                            }
                        });
                    }
                    PlanOp::Join { step, left, right, dst, emit } => {
                        let s = &plan.joins[*step];
                        let l = regs[*left].take().expect("left operand scanned");
                        let r = regs[*right].take().expect("right operand scanned");
                        let emit = emit.then(|| self.projection());
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
                        let pred =
                            plan.residual.as_ref().expect("residual op implies predicate");
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
                        regs[*reg] = Some(project(f, self.projection()));
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
                if let (Some(a), Some((opened, scanned))) = (actuals.as_deref_mut(), opened) {
                    let elapsed_ns = opened.elapsed().as_nanos() as u64;
                    let rows = |reg: &usize| regs[*reg].as_ref().map_or(0, |f| f.rows.len());
                    let op_actuals =
                        |reg: &usize| Some(OpActuals { rows_out: rows(reg), elapsed_ns });
                    match op {
                        PlanOp::Scan { node, dst } => a.scans.push(ScanActuals {
                            rows_scanned: stats.rows_scanned - scanned,
                            rows_out: rows(dst),
                            elapsed_ns,
                            via_index: plan.scans[*node].probe.is_some(),
                        }),
                        PlanOp::Join { dst, .. } => a.joins.extend(op_actuals(dst)),
                        PlanOp::Residual { reg } => a.residual = op_actuals(reg),
                        PlanOp::Aggregate { reg } => a.aggregate = op_actuals(reg),
                        PlanOp::Sort { reg } => a.sort = op_actuals(reg),
                        PlanOp::Distinct { reg } => a.distinct = op_actuals(reg),
                        PlanOp::PageEarly { .. }
                        | PlanOp::Project { .. }
                        | PlanOp::PageLate { .. }
                        | PlanOp::Ret { .. } => {}
                    }
                }
            }
            unreachable!("plan programs end with Ret")
        })
    }

    /// A FROM sub-query scan: runs the child program, then applies the
    /// scan's pushed filter, the pushed limit and the fused projection.
    #[allow(clippy::too_many_arguments)] // the scan op's operands, passed through
    fn subquery_scan(
        &self,
        child: &PlanProgram,
        node: &ScanNode,
        db: &Database,
        params: &Params,
        ctx: &exec::EvalCtx<'_>,
        stats: &mut ExecStats,
        shared: &SubqueryState,
        version: u64,
        limit: Option<usize>,
        emit: Option<&(Vec<FrameCol>, Vec<usize>)>,
    ) -> Result<Frame, DbError> {
        // Fresh counters for the inner program: `joins`/`used_index`
        // describe the top-level statement (what `Plan::summary` renders),
        // so only the row/comparison work is absorbed — the same contract
        // as hoisted predicate sub-queries.
        let mut inner_stats = ExecStats::default();
        let inner = child.run(db, params, &mut inner_stats, shared, version, None)?;
        stats.absorb_nested(&inner_stats);
        let mut f = Frame { cols: node.cols.clone(), rows: inner.rows };
        if let Some(pred) = &node.filter {
            f = filter(f, pred, ctx)?;
        }
        if let Some(n) = limit {
            f.rows.truncate(n);
        }
        Ok(match emit {
            Some(projection) => project(f, projection),
            None => f,
        })
    }
}

/// Gathers the projected columns of every row.
fn project(f: Frame, (cols, idx): &(Vec<FrameCol>, Vec<usize>)) -> Frame {
    let rows =
        f.rows.into_iter().map(|r| idx.iter().map(|&i| r[i].clone()).collect()).collect();
    Frame { cols: cols.clone(), rows }
}

/// Compiles a plan into a [`PlanProgram`]. Observes `vm.compile_ns` and
/// the `vm.compile.*` counters.
///
/// # Errors
///
/// The plan cannot run: a LIMIT/OFFSET that is neither a constant nor a
/// parameter, no `FROM`, or a select item the planner could not resolve
/// (see [`projection_error`]). FROM sub-queries compile with their
/// parent and fail it.
pub(crate) fn compile_plan(
    plan: &Arc<PhysicalPlan>,
    config: &PlanConfig,
) -> Result<PlanProgram, DbError> {
    let started = Instant::now();
    let built = build_program(plan, config);
    let ins = instruments();
    ins.compile_ns.observe(started.elapsed().as_nanos() as u64);
    if let Ok(p) = &built {
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

/// The error of a plan whose projection the planner could not resolve:
/// the first select item that does not resolve against the layout the
/// projection reads — the aggregate's output, or the concatenated scan
/// layouts (unpruned, since pruning needs a resolved projection).
fn projection_error(plan: &PhysicalPlan) -> DbError {
    let layout: Vec<FrameCol> = match &plan.aggregate {
        Some(agg) => agg.out_cols.clone(),
        None => plan.scans.iter().flat_map(ScanNode::out_cols).collect(),
    };
    for (k, item) in plan.columns.iter().enumerate() {
        match &item.expr {
            SqlExpr::Column { qualifier, name } => {
                if exec::resolve_cols(&layout, qualifier.as_ref(), name).is_none() {
                    return DbError::Exec(format!("unresolved select column {name}"));
                }
            }
            other => {
                return DbError::Exec(format!(
                    "unsupported select expression {other:?} at position {k}"
                ))
            }
        }
    }
    DbError::Exec("unresolved projection".to_string())
}

fn build_program(
    plan: &Arc<PhysicalPlan>,
    config: &PlanConfig,
) -> Result<PlanProgram, DbError> {
    // Checked in the order the operators would hit them.
    let limit = PageParam::of(plan.limit.as_ref(), "LIMIT")?;
    let offset = PageParam::of(plan.offset.as_ref(), "OFFSET")?;
    if plan.scans.is_empty() {
        return Err(DbError::Exec("query without FROM".to_string()));
    }
    if plan.projection.is_none() {
        return Err(projection_error(plan));
    }

    // `scan_limit` records only whether the *shape* allows pushing
    // LIMIT+OFFSET into the scan (sound only when no later operator can
    // reject or reorder rows); the pushed value depends on this
    // execution's bindings, resolved in `run`. Projection fusion: with no
    // operator between the last scan/join and the projection, the final
    // operator materializes rows directly in output shape. An aggregate
    // never fuses: its projection addresses the grouped output layout.
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

    let mut kernels: Vec<KernelChoice> = Vec::with_capacity(plan.scans.len());
    for node in &plan.scans {
        kernels.push(match &node.source {
            ScanSource::Subquery { plan: inner } => KernelChoice::Subquery(Box::new(
                build_program(&Arc::new((**inner).clone()), config)?,
            )),
            ScanSource::Table(_)
                if node.probe.is_some() || pushes_limit || config.force_row_store =>
            {
                KernelChoice::Row
            }
            ScanSource::Table(_) => match &node.filter {
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
            },
        });
    }

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
    let scan_layout = |node: &ScanNode| match node.source {
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
    Ok(PlanProgram {
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
    use crate::db::SelectOutput;
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
        db.execute_program(prog, params, &shared, 0, None, None).unwrap()
    }

    /// The same plan compiled with row-at-a-time scans (`force_row_store`):
    /// the scan interpreter the vectorized kernels are checked against.
    fn run_row_store(db: &Database, plan: &Arc<PhysicalPlan>, params: &Params) -> SelectOutput {
        let cfg = PlanConfig { force_row_store: true, ..PlanConfig::default() };
        let prog = compile_plan(plan, &cfg).expect("row-store plans compile");
        assert!(prog.kernels.iter().all(|k| matches!(k, KernelChoice::Row)));
        run_program(db, &prog, params)
    }

    fn row_ints(out: &SelectOutput) -> Vec<Vec<i64>> {
        out.rows
            .iter()
            .map(|r| (0..r.values().len()).map(|k| r.value_at(k).as_int().unwrap()).collect())
            .collect()
    }

    #[test]
    fn compiled_join_matches_interpreter_rows_and_stats() {
        let db = setup();
        let cfg = PlanConfig::default();
        let q = parse_query(
            "SELECT users.id, roles.roleId FROM users, roles \
             WHERE users.roleId = roles.roleId AND users.id > 1",
        )
        .unwrap();
        let plan = Arc::new(plan_with(&q, &db, &cfg));
        let prog = compile_plan(&plan, &cfg).expect("join plans compile");
        let vm = run_program(&db, &prog, &Params::new());
        let expected: Vec<Vec<i64>> = (2..8).map(|i| vec![i, i % 3]).collect();
        assert_eq!(row_ints(&vm), expected);
        assert_eq!(vm.stats.joins, vec!["hash"]);
        assert_eq!(vm.stats.rows_scanned, 8 + 3);
        let interp = run_row_store(&db, &plan, &Params::new());
        assert_eq!(vm.rows, interp.rows);
        assert_eq!(vm.stats, interp.stats);
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
        assert_eq!(row_ints(&vm), vec![vec![1], vec![4], vec![7]]);
        let interp = run_row_store(&db, &plan, &params);
        assert_eq!(vm, interp);
        // Unbound, the template falls back to the row path, which names
        // the parameter.
        let err = run_program_err(&db, &prog);
        assert_eq!(err, DbError::Exec("execution error: unbound parameter :r".to_string()));
    }

    fn run_program_err(db: &Database, prog: &PlanProgram) -> DbError {
        let shared = SubqueryState::new(PlanConfig::default());
        db.execute_program(prog, &Params::new(), &shared, 0, None, None).unwrap_err()
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

    /// The shapes the VM cannot run fail at compile time, with the error
    /// execution used to raise.
    #[test]
    fn shapes_outside_the_vm_decline_to_compile() {
        let db = setup();
        let cfg = PlanConfig::default();
        let compile = |q: &qbs_sql::SqlSelect| {
            compile_plan(&Arc::new(plan_with(q, &db, &cfg)), &cfg).map(|_| ()).unwrap_err()
        };
        let unresolved = parse_query("SELECT id, nosuch FROM users").unwrap();
        assert_eq!(
            compile(&unresolved),
            DbError::Exec("unresolved select column nosuch".to_string())
        );
        let mut computed = parse_query("SELECT id FROM users").unwrap();
        computed.columns[0].expr = SqlExpr::int(1);
        assert!(compile(&computed).to_string().starts_with("unsupported select expression"));
        let mut limited = parse_query("SELECT id FROM users").unwrap();
        limited.limit = Some(SqlExpr::col("id"));
        assert!(compile(&limited).to_string().starts_with("unsupported LIMIT"));
        let mut offset = parse_query("SELECT id FROM users").unwrap();
        offset.offset = Some(SqlExpr::col("id"));
        assert!(compile(&offset).to_string().starts_with("unsupported OFFSET"));
        let no_from = qbs_sql::SqlSelect::new(Vec::new(), Vec::new());
        assert_eq!(compile(&no_from), DbError::Exec("query without FROM".to_string()));
        // A FROM sub-query compiles with its parent and fails it.
        let nested = qbs_sql::SqlSelect::new(
            Vec::new(),
            vec![qbs_sql::FromItem::Subquery {
                query: Box::new(unresolved),
                alias: "s".into(),
            }],
        );
        assert_eq!(
            compile(&nested),
            DbError::Exec("unresolved select column nosuch".to_string())
        );
    }

    #[test]
    fn compiled_group_by_matches_interpreter_rows_and_stats() {
        let db = setup();
        let cfg = PlanConfig::default();
        // users: ids 0..8 with roleId = id % 3.
        for (sql, expected) in [
            (
                "SELECT roleId, COUNT(*) FROM users GROUP BY roleId",
                vec![vec![0, 3], vec![1, 3], vec![2, 2]],
            ),
            (
                "SELECT roleId, SUM(id), MIN(id), MAX(id) FROM users GROUP BY roleId",
                vec![vec![0, 9, 0, 6], vec![1, 12, 1, 7], vec![2, 7, 2, 5]],
            ),
            (
                "SELECT roleId, COUNT(*) FROM users GROUP BY roleId HAVING SUM(id) > 8",
                vec![vec![0, 3], vec![1, 3]],
            ),
            (
                "SELECT roleId, SUM(id) FROM users GROUP BY roleId ORDER BY roleId DESC",
                vec![vec![2, 7], vec![1, 12], vec![0, 9]],
            ),
        ] {
            let q = parse_query(sql).unwrap();
            let plan = Arc::new(plan_with(&q, &db, &cfg));
            let prog = compile_plan(&plan, &cfg).expect("grouped plans compile");
            let vm = run_program(&db, &prog, &Params::new());
            assert_eq!(row_ints(&vm), expected, "{sql}");
            assert_eq!(vm.stats.rows_scanned, 8, "{sql}");
            let interp = run_row_store(&db, &plan, &Params::new());
            assert_eq!(vm.rows, interp.rows, "{sql}");
            assert_eq!(vm.stats, interp.stats, "{sql}");
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
