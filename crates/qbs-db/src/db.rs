//! The database façade: catalog plus query execution.
//!
//! Planning and execution are split: [`crate::planner::plan_with`] computes
//! a [`PhysicalPlan`] once, [`compile_plan`] lowers it to a bytecode
//! [`PlanProgram`], and [`Database::execute_plan`] runs that program.
//! `explain()` renders the *same* plan value, so the planner cannot drift
//! from the executor.

use crate::analyze::PlanActuals;
use crate::exec::{self, eval_expr, EvalCtx, ExecStats, Frame, RowRef, SubResult};
use crate::planner::{plan_with, PhysicalPlan, PlanConfig, ScanNode, ScanSource};
use crate::storage::{Chunk, ColumnVec, Table};
use crate::vm::{compile_plan, PlanProgram};
use qbs_common::{FieldType, Ident, Record, Relation, Schema, SchemaRef, Value};
use qbs_sql::{SqlExpr, SqlQuery, SqlSelect};
use qbs_tor::{AggKind, CmpOp};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Bind parameters for query execution.
pub type Params = BTreeMap<Ident, Value>;

/// Errors from the database layer.
#[derive(Clone, Debug, PartialEq)]
pub enum DbError {
    /// Unknown table.
    UnknownTable(Ident),
    /// A table with this name already exists.
    DuplicateTable(Ident),
    /// Schema problem (bad column etc.).
    Schema(String),
    /// `MIN`/`MAX` over an empty relation: the paper's TOR axioms assign
    /// the infinities, but a concrete executor has no honest `i64` for
    /// ±∞ — callers (e.g. the differential oracle) must treat the case
    /// explicitly instead of comparing sentinel garbage.
    EmptyAggregate(String),
    /// A bind-parameter problem: missing, unknown, or type-mismatched
    /// against a prepared statement's typed slots.
    Param(String),
    /// Runtime execution failure.
    Exec(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            DbError::DuplicateTable(t) => write!(f, "table `{t}` already exists"),
            DbError::Schema(e) => write!(f, "schema error: {e}"),
            DbError::EmptyAggregate(agg) => {
                write!(f, "{agg} over an empty relation has no value")
            }
            DbError::Param(e) => write!(f, "bind error: {e}"),
            DbError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<exec::ExecError> for DbError {
    fn from(e: exec::ExecError) -> Self {
        DbError::Exec(e.to_string())
    }
}

/// Result rows of a select, plus execution stats.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectOutput {
    /// The rows as an ordered relation.
    pub rows: Relation,
    /// Execution counters.
    pub stats: ExecStats,
}

/// Result of executing any [`SqlQuery`].
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutput {
    /// Relational result.
    Rows(SelectOutput),
    /// Scalar (aggregate / boolean) result.
    Scalar {
        /// The value.
        value: Value,
        /// Execution counters.
        stats: ExecStats,
    },
}

/// The cross-statement hoisting cache for uncorrelated predicate
/// sub-queries, shared by every statement running through one
/// [`Connection`](crate::Connection) (the plain `execute_*` paths create a
/// fresh state per statement).
///
/// Only **parameter-free** sub-queries live here — a result that depends on
/// bind parameters is only valid for the statement execution that computed
/// it, so those are cached per plan run instead ([`LocalSubs`]). Each
/// entry is tagged with the database *version* it was computed under:
/// under MVCC, statements pinned to different snapshots execute
/// concurrently through the same connection, and a hash set materialized
/// from an older snapshot must not answer probes from a newer one (or vice
/// versa). A table mutation bumps the connection version and additionally
/// clears the cache ([`SubqueryState::clear`]).
pub(crate) struct SubqueryState {
    config: PlanConfig,
    cache: Mutex<Vec<(SqlSelect, u64, Arc<SubResult>)>>,
}

impl SubqueryState {
    pub(crate) fn new(config: PlanConfig) -> SubqueryState {
        SubqueryState { config, cache: Mutex::new(Vec::new()) }
    }

    /// Drops every cached sub-query result (table data changed).
    pub(crate) fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(SqlSelect, u64, Arc<SubResult>)>> {
        // A poisoned cache only means another statement panicked mid-push;
        // the entries themselves are immutable results, still valid.
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lookup(&self, q: &SqlSelect, version: u64) -> Option<Arc<SubResult>> {
        self.lock().iter().find(|(s, v, _)| *v == version && s == q).map(|(_, _, r)| r.clone())
    }

    fn insert(&self, q: SqlSelect, version: u64, result: Arc<SubResult>) {
        self.lock().push((q, version, result));
    }
}

/// Per-plan-run sub-query state: the counters nested executions accumulate
/// (folded into the statement's [`ExecStats`] when the run finishes — no
/// shared mutable counters between concurrent statements) and the cache
/// for hoisted sub-queries that reference bind parameters (valid only for
/// this run's bindings).
#[derive(Default)]
struct LocalSubs {
    stats: ExecStats,
    cache: Vec<(SqlSelect, Arc<SubResult>)>,
}

/// The in-memory database: a catalog of [`Table`]s plus the executor.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: BTreeMap<Ident, Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates a table from a named schema.
    ///
    /// # Errors
    ///
    /// [`DbError::DuplicateTable`] when the name is taken;
    /// [`DbError::Schema`] when the schema is anonymous.
    pub fn create_table(&mut self, schema: SchemaRef) -> Result<(), DbError> {
        let name = schema
            .name()
            .cloned()
            .ok_or_else(|| DbError::Schema("tables need named schemas".to_string()))?;
        if self.tables.contains_key(&name) {
            return Err(DbError::DuplicateTable(name));
        }
        self.tables.insert(name, Table::new(schema));
        Ok(())
    }

    /// Inserts a row.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] when the table does not exist.
    ///
    /// # Panics
    ///
    /// Panics on arity/type mismatch (see [`Table::insert`]).
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<(), DbError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.into()))?
            .insert(values);
        Ok(())
    }

    /// Inserts a batch of rows as one storage chunk with one generation
    /// bump (see [`Table::insert_many`]) — the bulk-load path for datagen
    /// and benchmark setup, and the atomic unit concurrent readers see.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] when the table does not exist.
    ///
    /// # Panics
    ///
    /// Panics on arity/type mismatch (see [`Table::insert_many`]).
    pub fn insert_many(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<(), DbError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.into()))?
            .insert_many(rows);
        Ok(())
    }

    /// Builds a hash index on `table.column` (the paper notes Hibernate
    /// auto-creates indexes on key columns).
    ///
    /// # Errors
    ///
    /// Unknown table or column.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<(), DbError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.into()))?
            .create_index(&column.into())
            .map_err(|e| DbError::Schema(e.to_string()))
    }

    /// Table lookup.
    pub fn table(&self, name: &Ident) -> Option<&Table> {
        self.tables.get(name)
    }

    /// All table names.
    pub fn table_names(&self) -> impl Iterator<Item = &Ident> {
        self.tables.keys()
    }

    /// A kernel-interpreter environment with every table bound as an
    /// ordered relation — the bridge that lets the original imperative
    /// fragment and the SQL executor run against the *same* data (the
    /// differential-oracle setup).
    pub fn env(&self) -> qbs_tor::Env {
        let mut env = qbs_tor::Env::new();
        for (name, table) in &self.tables {
            env.bind_table(name.clone(), table.relation());
        }
        env
    }

    /// Runs one base-table scan node: rows via the index probe when the
    /// plan chose one, with the pushed filter evaluated *before* each row
    /// is materialized. `limit` stops the scan early once enough rows
    /// passed the filter (only set when no later operator could change
    /// the prefix). `emit` fuses the statement's projection into the scan
    /// itself (single-scan plans with nothing between scan and
    /// projection): rows materialize directly in output shape. `kernel`
    /// is the scan strategy the bytecode VM chose at compile time.
    /// Sub-query scans run their child program in the VM instead.
    #[allow(clippy::too_many_arguments)] // the scan op's operands; a param struct would just rename these
    pub(crate) fn scan_table(
        &self,
        node: &ScanNode,
        params: &Params,
        ctx: &EvalCtx<'_>,
        stats: &mut ExecStats,
        limit: Option<usize>,
        emit: Option<&(Vec<exec::FrameCol>, Vec<usize>)>,
        kernel: ScanKernel<'_>,
    ) -> Result<Frame, DbError> {
        let ScanSource::Table(name) = &node.source else {
            unreachable!("sub-query scans run their child program")
        };
        let table = self.tables.get(name).ok_or_else(|| DbError::UnknownTable(name.clone()))?;
        // The plan's layout was computed against some database's
        // catalog; executing it against a table of a different
        // shape must fail loudly, not mis-project.
        let arity = table.schema().arity();
        if arity + 1 != node.cols.len() {
            return Err(DbError::Exec(format!(
                "plan was computed against a different shape of table {name} \
                 ({} columns, now {})",
                node.cols.len().saturating_sub(1),
                arity,
            )));
        }

        let index_rows: Option<Vec<usize>> = match &node.probe {
            Some(probe) => {
                let v = match &probe.value {
                    SqlExpr::Lit(v) => v.clone(),
                    SqlExpr::Param(p) => params.get(p).cloned().ok_or_else(|| {
                        DbError::from(exec::ExecError::new(format!("unbound parameter :{p}")))
                    })?,
                    other => {
                        return Err(DbError::Exec(format!(
                            "non-constant index probe {other:?}"
                        )))
                    }
                };
                stats.used_index = true;
                // A probe is only planned against an existing index;
                // executing the plan on a database without it (the
                // plan/database pair diverged) must not silently
                // read an empty bucket.
                let rows = table.index_lookup(&probe.column, &v).ok_or_else(|| {
                    DbError::Exec(format!(
                        "plan expects an index on {}.{} that this database \
                         does not have",
                        name, probe.column
                    ))
                })?;
                Some(rows)
            }
            None => None,
        };

        // The filter evaluates against the full scan layout (the
        // raw row plus rowid), independent of what is emitted; the
        // shell frame is only needed when a filter exists *and* the
        // scan takes the row path (a vectorized scan never touches
        // it, so the per-execute allocation is skipped).
        let shell = match (&kernel, &node.filter) {
            (ScanKernel::Row, Some(_)) => Some(Frame::new(node.cols.clone())),
            _ => None,
        };
        // Effective gather into the raw row: the fused projection
        // (whose indices address the pruned output layout) composed
        // over the scan's own column pruning.
        let gather: Option<(Vec<exec::FrameCol>, Vec<usize>)> = match (emit, &node.emit) {
            (Some((cols, idx)), Some(e)) => {
                Some((cols.clone(), idx.iter().map(|&i| e[i]).collect()))
            }
            (Some((cols, idx)), None) => Some((cols.clone(), idx.clone())),
            (None, Some(e)) => Some((node.out_cols(), e.clone())),
            (None, None) => None,
        };
        let mut frame = Frame::new(match &gather {
            Some((cols, _)) => cols.clone(),
            None => node.cols.clone(),
        });

        // Vectorized columnar path: a full-table scan whose pushed
        // filter (if any) compiled to a column kernel evaluates it
        // over typed column slices in `SCAN_BATCH`-row batches,
        // stitching output rows only for surviving positions. Index
        // probes, pushed limits (whose "stop at the k-th match"
        // contract is row-at-a-time by nature), and filters outside
        // the kernel grammar keep the row path below.
        if let ScanKernel::Vector(kernel) = kernel {
            let gather_row = |chunk: &Chunk, i: usize, frame: &mut Frame| {
                let rowid = chunk.base() + i;
                let out = match &gather {
                    Some((_, idx)) => idx
                        .iter()
                        .map(|&c| {
                            if c < arity {
                                chunk.col(c).value(i)
                            } else {
                                Value::from(rowid as i64)
                            }
                        })
                        .collect(),
                    None => {
                        let mut out = chunk.row_values(i);
                        out.push(Value::from(rowid as i64));
                        out
                    }
                };
                frame.rows.push(out);
            };
            match kernel {
                // No filter: every row survives, no mask needed.
                None => {
                    frame.rows.reserve(table.len());
                    for chunk in table.chunks() {
                        stats.rows_scanned += chunk.len();
                        for i in 0..chunk.len() {
                            gather_row(chunk, i, &mut frame);
                        }
                    }
                }
                Some(k) => {
                    // The mask is sized to the widest batch that
                    // can actually occur — page-load-sized tables
                    // pay bytes, not SCAN_BATCH, per execution.
                    let cap = table
                        .chunks()
                        .iter()
                        .map(|c| c.len())
                        .max()
                        .unwrap_or(0)
                        .min(SCAN_BATCH);
                    let mut mask = vec![true; cap];
                    for chunk in table.chunks() {
                        // Every row of every chunk is examined
                        // exactly once — the same count the row
                        // path reports.
                        stats.rows_scanned += chunk.len();
                        let mut start = 0usize;
                        while start < chunk.len() {
                            let n = SCAN_BATCH.min(chunk.len() - start);
                            let mask = &mut mask[..n];
                            eval_kernel(k, chunk, start, arity, mask);
                            for (j, keep) in mask.iter().enumerate() {
                                if *keep {
                                    gather_row(chunk, start + j, &mut frame);
                                }
                            }
                            start += n;
                        }
                    }
                }
            }
            return Ok(frame);
        }

        let mut push_row =
            |rowid: usize, row: &[Value], stats: &mut ExecStats| -> Result<bool, DbError> {
                stats.rows_scanned += 1;
                let rv = [Value::from(rowid as i64)];
                let keep = match &node.filter {
                    Some(pred) => exec::truthy(&eval_expr(
                        pred,
                        shell.as_ref().expect("shell built alongside filter"),
                        RowRef::Pair(row, &rv),
                        ctx,
                    )?)?,
                    None => true,
                };
                if keep {
                    let out = match &gather {
                        // Gather output columns straight from the raw
                        // row (position `arity` is the rowid).
                        Some((_, idx)) => idx
                            .iter()
                            .map(|&i| if i < arity { row[i].clone() } else { rv[0].clone() })
                            .collect(),
                        None => {
                            let mut out = row.to_vec();
                            out.push(rv.into_iter().next().expect("one rowid"));
                            out
                        }
                    };
                    frame.rows.push(out);
                }
                Ok(keep)
            };
        let mut kept = 0usize;
        match index_rows {
            Some(ids) => {
                for rowid in ids {
                    if limit.is_some_and(|n| kept >= n) {
                        break;
                    }
                    let row = table.row(rowid).ok_or_else(|| {
                        DbError::Exec(format!("index rowid {rowid} out of range"))
                    })?;
                    kept += usize::from(push_row(rowid, &row, stats)?);
                }
            }
            None => {
                for (rowid, row) in table.rows().enumerate() {
                    if limit.is_some_and(|n| kept >= n) {
                        break;
                    }
                    kept += usize::from(push_row(rowid, &row, stats)?);
                }
            }
        }
        Ok(frame)
    }

    /// Executes a relational query: plans it, compiles the plan, runs it.
    ///
    /// # Errors
    ///
    /// Propagates unknown tables/columns and evaluation failures.
    pub fn execute_select(
        &self,
        q: &SqlSelect,
        params: &Params,
    ) -> Result<SelectOutput, DbError> {
        self.execute_select_with(q, params, &PlanConfig::default())
    }

    /// [`Database::execute_select`] under a non-default [`PlanConfig`].
    ///
    /// # Errors
    ///
    /// Propagates unknown tables/columns and evaluation failures.
    pub fn execute_select_with(
        &self,
        q: &SqlSelect,
        params: &Params,
        config: &PlanConfig,
    ) -> Result<SelectOutput, DbError> {
        let planned = Instant::now();
        let plan = Arc::new(plan_with(q, self, config));
        let plan_ns = planned.elapsed().as_nanos() as u64;
        let prog = compile_plan(&plan, config)?;
        let shared = SubqueryState::new(config.clone());
        let mut out = self.execute_program(&prog, params, &shared, 0, None, None)?;
        out.stats.plan_ns = plan_ns;
        Ok(out)
    }

    /// Runs an already-computed [`PhysicalPlan`] — the other consumer of
    /// the exact value `explain()` renders — under the default
    /// [`PlanConfig`] (which also plans its hoisted `IN` sub-queries).
    ///
    /// # Errors
    ///
    /// The plan cannot compile (no `FROM`, an unresolved select item, a
    /// LIMIT/OFFSET that is neither a constant nor a parameter); unknown
    /// tables/columns and evaluation failures.
    pub fn execute_plan(
        &self,
        plan: &PhysicalPlan,
        params: &Params,
    ) -> Result<SelectOutput, DbError> {
        let config = PlanConfig::default();
        let prog = compile_plan(&Arc::new(plan.clone()), &config)?;
        self.execute_program(&prog, params, &SubqueryState::new(config), 0, None, None)
    }

    /// Runs a compiled program as one statement: fresh counters, the
    /// whole-run `exec_ns`, and the output relation. `shared` and
    /// `version` are the hoisting cache and the snapshot version this
    /// database value was pinned at (a fresh state and 0 for one-shot
    /// executions). `schema_cache` holds a prepared statement's output
    /// schema: identical across executions, so it is derived once — only
    /// written from a row-bearing result (an empty one cannot sniff
    /// types) and only read when the arity matches. With `actuals`, the
    /// run records per-operator actuals plus the output rows and total
    /// time (EXPLAIN ANALYZE).
    pub(crate) fn execute_program(
        &self,
        prog: &PlanProgram,
        params: &Params,
        shared: &SubqueryState,
        version: u64,
        schema_cache: Option<&OnceLock<SchemaRef>>,
        mut actuals: Option<&mut PlanActuals>,
    ) -> Result<SelectOutput, DbError> {
        let mut stats = ExecStats::default();
        let started = Instant::now();
        let frame =
            prog.run(self, params, &mut stats, shared, version, actuals.as_deref_mut())?;
        stats.exec_ns = started.elapsed().as_nanos() as u64;
        if let Some(a) = actuals {
            a.output_rows = frame.rows.len();
            a.total_ns = stats.exec_ns;
        }
        finish_frame(frame, stats, schema_cache)
    }

    /// Runs `f` with the sub-query hoisting machinery wired into an
    /// [`EvalCtx`] — the scaffolding under every [`PlanProgram::run`].
    ///
    /// Uncorrelated predicate sub-queries are hoisted: executed at most
    /// once per statement, with hash-set membership for the per-row
    /// probes. Parameter-free results go through the connection-shared
    /// version-tagged cache; parameter-dependent ones (valid only for
    /// this run's bindings) and all nested counters stay in run-local
    /// state, folded into `stats` at the end — concurrent statements
    /// never touch each other's counters.
    pub(crate) fn with_hoisting<T>(
        &self,
        params: &Params,
        stats: &mut ExecStats,
        shared: &SubqueryState,
        version: u64,
        f: impl FnOnce(&EvalCtx<'_>, &mut ExecStats) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let local: RefCell<LocalSubs> = RefCell::new(LocalSubs::default());
        let sub = |s: &SqlSelect| -> Result<Arc<SubResult>, exec::ExecError> {
            let param_free = !s.has_params();
            let hit = if param_free {
                shared.lookup(s, version)
            } else {
                local.borrow().cache.iter().find(|(q, _)| q == s).map(|(_, r)| r.clone())
            };
            if let Some(hit) = hit {
                local.borrow_mut().stats.subquery_cache_hits += 1;
                return Ok(hit);
            }
            let to_exec = |e: DbError| exec::ExecError::new(e.to_string());
            let inner =
                compile_plan(&Arc::new(plan_with(s, self, &shared.config)), &shared.config)
                    .map_err(to_exec)?;
            let mut st = ExecStats::default();
            let frame =
                inner.run(self, params, &mut st, shared, version, None).map_err(to_exec)?;
            let result = Arc::new(SubResult::from_frame(frame));
            {
                // `st` already folded the counters of anything nested
                // deeper, so propagating its four nested fields keeps the
                // whole-tree totals (plus this execution itself).
                let mut l = local.borrow_mut();
                l.stats.subqueries_executed += 1 + st.subqueries_executed;
                l.stats.subquery_cache_hits += st.subquery_cache_hits;
                l.stats.rows_scanned += st.rows_scanned;
                l.stats.join_comparisons += st.join_comparisons;
            }
            if param_free {
                shared.insert(s.clone(), version, result.clone());
            } else {
                local.borrow_mut().cache.push((s.clone(), result.clone()));
            }
            Ok(result)
        };
        let ctx = EvalCtx { params, subquery: &sub };
        let out = f(&ctx, stats);
        stats.absorb_nested(&local.borrow().stats);
        out
    }

    /// Executes any query (relational or scalar).
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn execute(&self, q: &SqlQuery, params: &Params) -> Result<QueryOutput, DbError> {
        self.execute_with(q, params, &PlanConfig::default())
    }

    /// [`Database::execute`] under a non-default [`PlanConfig`].
    ///
    /// # Errors
    ///
    /// Propagates execution errors. `MIN`/`MAX` over an empty relation is
    /// [`DbError::EmptyAggregate`]; a non-integer value under `SUM`/`MIN`/
    /// `MAX` and `i64` overflow of `SUM` are [`DbError::Exec`].
    pub fn execute_with(
        &self,
        q: &SqlQuery,
        params: &Params,
        config: &PlanConfig,
    ) -> Result<QueryOutput, DbError> {
        match q {
            SqlQuery::Select(s) => {
                Ok(QueryOutput::Rows(self.execute_select_with(s, params, config)?))
            }
            SqlQuery::Scalar(s) => {
                let inner = scalar_core(s);
                let out = self.execute_select_with(&inner, params, config)?;
                self.finish_scalar(s, out, params)
            }
        }
    }

    /// Folds a scalar query's aggregate (and optional trailing comparison)
    /// over the already-executed relational core — shared by the per-call
    /// path above and prepared-statement execution, which plans the core
    /// once and runs it per call.
    pub(crate) fn finish_scalar(
        &self,
        s: &qbs_sql::SqlScalar,
        out: SelectOutput,
        params: &Params,
    ) -> Result<QueryOutput, DbError> {
        let stats = out.stats;
        let value = match s.agg {
            AggKind::Count => Value::from(out.rows.len() as i64),
            agg => aggregate(agg, &out.rows)?,
        };
        let value = match &s.compare {
            None => value,
            Some((op, rhs)) => {
                let no_sub =
                    |_: &qbs_sql::SqlSelect| -> Result<Arc<SubResult>, exec::ExecError> {
                        Err(exec::ExecError::new("no sub-queries in scalar comparisons"))
                    };
                let ctx = EvalCtx { params, subquery: &no_sub };
                let empty = Frame::new(vec![]);
                let r = eval_expr(rhs, &empty, RowRef::Slice(&[]), &ctx)?;
                Value::from(op.test(value.total_cmp(&r)))
            }
        };
        Ok(QueryOutput::Scalar { value, stats })
    }
}

/// The relational core a scalar query aggregates over: its inner query
/// with the aggregated column as the projection (for `COUNT(*)` the inner
/// projection is kept as-is). This is the select that prepared statements
/// plan once.
pub(crate) fn scalar_core(s: &qbs_sql::SqlScalar) -> SqlSelect {
    let mut inner = s.query.clone();
    if let Some(col) = &s.column {
        inner.columns = vec![qbs_sql::SelectItem { expr: col.clone(), alias: None }];
    }
    inner
}

/// Folds a non-`COUNT` aggregate over the first column of `rows`.
///
/// Unlike the old `filter_map(Value::as_int)` fold, a non-integer value is a
/// type error (it used to be silently dropped, under-counting `SUM`), `SUM`
/// uses checked addition (it used to wrap or panic on overflow), and
/// `MIN`/`MAX` over an empty relation is [`DbError::EmptyAggregate`] (they
/// used to return the `i64::MAX`/`i64::MIN` infinity sentinels as if they
/// were data).
fn aggregate(agg: AggKind, rows: &Relation) -> Result<Value, DbError> {
    let mut nums: Vec<i64> = Vec::with_capacity(rows.len());
    for r in rows.iter() {
        let first = r
            .values()
            .first()
            .ok_or_else(|| DbError::Exec(format!("{} over a zero-column row", agg.sql())))?;
        match first {
            Value::Int(i) => nums.push(*i),
            other => {
                return Err(DbError::Exec(format!(
                    "{} over non-integer value {other:?}",
                    agg.sql()
                )))
            }
        }
    }
    match agg {
        AggKind::Sum => nums
            .iter()
            .try_fold(0i64, |acc, n| acc.checked_add(*n))
            .map(Value::from)
            .ok_or_else(|| DbError::Exec("SUM overflows i64".to_string())),
        AggKind::Max => nums
            .iter()
            .copied()
            .max()
            .map(Value::from)
            .ok_or_else(|| DbError::EmptyAggregate(agg.sql().to_string())),
        AggKind::Min => nums
            .iter()
            .copied()
            .min()
            .map(Value::from)
            .ok_or_else(|| DbError::EmptyAggregate(agg.sql().to_string())),
        AggKind::Count => unreachable!("COUNT is handled before the numeric fold"),
    }
}

/// Builds the output relation from an executed frame: anonymous schema
/// over the frame columns, reused from the cache when one is provided and
/// fits.
fn finish_frame(
    frame: Frame,
    stats: ExecStats,
    schema_cache: Option<&OnceLock<SchemaRef>>,
) -> Result<SelectOutput, DbError> {
    let cached =
        schema_cache.and_then(|c| c.get().cloned()).filter(|s| s.arity() == frame.cols.len());
    let schema = match cached {
        Some(schema) => schema,
        None => {
            let mut b = Schema::anonymous();
            for (k, c) in frame.cols.iter().enumerate() {
                let ty = frame
                    .rows
                    .first()
                    .map(|r| match &r[k] {
                        Value::Bool(_) => FieldType::Bool,
                        Value::Int(_) => FieldType::Int,
                        Value::Str(_) => FieldType::Str,
                    })
                    .unwrap_or(FieldType::Int);
                b = b.push(qbs_common::Field::qualified(c.alias.clone(), c.name.clone(), ty));
            }
            let schema = b.finish();
            if let (Some(cache), false) = (schema_cache, frame.rows.is_empty()) {
                let _ = cache.set(schema.clone());
            }
            schema
        }
    };
    let records = frame.rows.into_iter().map(|r| Record::new(schema.clone(), r)).collect();
    let rows =
        Relation::from_records(schema, records).map_err(|e| DbError::Schema(e.to_string()))?;
    Ok(SelectOutput { rows, stats })
}

/// How [`Database::scan_table`] executes one scan, as the bytecode VM
/// decided at plan-compile time.
pub(crate) enum ScanKernel<'a> {
    /// Take the vectorized columnar path with this pre-compiled kernel
    /// (`None`: no filter, every row survives).
    Vector(Option<&'a ColKernel>),
    /// Take the row-at-a-time path unconditionally.
    Row,
}

/// Batch size for the vectorized scan path: large enough to amortize
/// per-batch dispatch, small enough that the selection mask and the column
/// slices it covers stay cache-resident.
pub(crate) const SCAN_BATCH: usize = 1024;

/// A pushed scan filter compiled against the chunk column layout. Only
/// shapes whose batch evaluation is *infallible* are representable:
/// comparisons between one column and one constant (bind parameters are
/// substituted per execute), closed under AND/OR/NOT. Everything else —
/// column-to-column comparisons, unresolved names, unbound parameters,
/// sub-queries, bare literals — keeps the scan on the row-at-a-time
/// path, which owns the error reporting for those cases.
#[derive(Debug)]
pub(crate) enum ColKernel {
    /// `column <op> constant`; constants on the left arrive here with the
    /// operator flipped.
    Cmp {
        pos: usize,
        op: CmpOp,
        rhs: Value,
    },
    And(Vec<ColKernel>),
    Or(Vec<ColKernel>),
    Not(Box<ColKernel>),
}

/// Evaluates a kernel over `mask.len()` rows of `chunk` starting at
/// `start`, writing one keep/drop bit per row. Column position `arity` is
/// the rowid pseudo-column (positional, not stored).
pub(crate) fn eval_kernel(
    k: &ColKernel,
    chunk: &Chunk,
    start: usize,
    arity: usize,
    mask: &mut [bool],
) {
    match k {
        ColKernel::Cmp { pos, op, rhs } => {
            if *pos == arity {
                for (j, m) in mask.iter_mut().enumerate() {
                    let v = Value::from((chunk.base() + start + j) as i64);
                    *m = op.test(v.total_cmp(rhs));
                }
                return;
            }
            match (chunk.col(*pos), rhs) {
                (ColumnVec::Int(xs), Value::Int(r)) => {
                    for (j, m) in mask.iter_mut().enumerate() {
                        *m = op.test(xs[start + j].cmp(r));
                    }
                }
                (ColumnVec::Str(xs), Value::Str(r)) => {
                    let r: &str = r;
                    for (j, m) in mask.iter_mut().enumerate() {
                        *m = op.test((*xs[start + j]).cmp(r));
                    }
                }
                (ColumnVec::Bool(xs), Value::Bool(r)) => {
                    for (j, m) in mask.iter_mut().enumerate() {
                        *m = op.test(xs[start + j].cmp(r));
                    }
                }
                // Mixed runtime types order by type tag
                // (`Value::total_cmp`), and a column is homogeneous: the
                // whole batch compares identically. Evaluate once, fill.
                (col, rhs) => mask.fill(op.test(col.value(start).total_cmp(rhs))),
            }
        }
        ColKernel::And(parts) => {
            let (first, rest) = parts.split_first().expect("non-empty by construction");
            eval_kernel(first, chunk, start, arity, mask);
            let mut scratch = vec![false; mask.len()];
            for p in rest {
                eval_kernel(p, chunk, start, arity, &mut scratch);
                for (m, s) in mask.iter_mut().zip(&scratch) {
                    *m = *m && *s;
                }
            }
        }
        ColKernel::Or(parts) => {
            let (first, rest) = parts.split_first().expect("non-empty by construction");
            eval_kernel(first, chunk, start, arity, mask);
            let mut scratch = vec![false; mask.len()];
            for p in rest {
                eval_kernel(p, chunk, start, arity, &mut scratch);
                for (m, s) in mask.iter_mut().zip(&scratch) {
                    *m = *m || *s;
                }
            }
        }
        ColKernel::Not(inner) => {
            eval_kernel(inner, chunk, start, arity, mask);
            for m in mask.iter_mut() {
                *m = !*m;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{explain, explain_with, JoinAlgorithm};
    use qbs_sql::parse_query;
    use qbs_tor::CmpOp;

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
        for i in 0..6i64 {
            db.insert("users", vec![Value::from(i), Value::from(i % 3)]).unwrap();
        }
        for r in 0..3i64 {
            db.insert("roles", vec![Value::from(r), Value::from(format!("role{r}"))]).unwrap();
        }
        db
    }

    #[test]
    fn select_star_strips_rowid() {
        let db = setup();
        let q = parse_query("SELECT * FROM users").unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(out.rows.len(), 6);
        assert_eq!(out.rows.schema().arity(), 2);
    }

    #[test]
    fn where_filters_and_index_is_used() {
        let mut db = setup();
        db.create_index("users", "roleId").unwrap();
        let q = parse_query("SELECT id FROM users WHERE roleId = 1").unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert!(out.stats.used_index);
        // Only the matching rows were touched.
        assert_eq!(out.stats.rows_scanned, 2);
    }

    #[test]
    fn join_uses_hash_algorithm_and_preserves_order() {
        let db = setup();
        let q = parse_query(
            "SELECT users.id, roles.label FROM users, roles WHERE users.roleId = roles.roleId \
             ORDER BY users.rowid, roles.rowid",
        )
        .unwrap();
        // Need two FROM items: extend the parser output manually.
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(out.rows.len(), 6);
        assert_eq!(out.stats.joins, vec!["hash"]);
        // users in insertion order: ids 0..6.
        let ids: Vec<i64> = out.rows.iter().map(|r| r.value_at(0).as_int().unwrap()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn explain_reports_hash_join_and_index() {
        let mut db = setup();
        db.create_index("users", "roleId").unwrap();
        let q =
            parse_query("SELECT users.id FROM users, roles WHERE users.roleId = roles.roleId")
                .unwrap();
        let plan = explain(&q, &db);
        assert_eq!(plan.joins, vec![JoinAlgorithm::Hash]);
        assert_eq!(plan.join_order, vec![Ident::new("users"), Ident::new("roles")]);
        let q2 = parse_query("SELECT id FROM users WHERE roleId = 2").unwrap();
        let plan2 = explain(&q2, &db);
        assert_eq!(plan2.index_scans, 1);
        // The index probe on a literal gives an exact estimate.
        assert_eq!(plan2.estimated_rows, vec![2]);
    }

    #[test]
    fn explain_and_execute_consume_the_same_plan_value() {
        let mut db = setup();
        db.create_index("users", "roleId").unwrap();
        let q = parse_query(
            "SELECT users.id FROM users, roles \
             WHERE users.roleId = roles.roleId AND users.roleId = 1",
        )
        .unwrap();
        let plan = crate::planner::plan(&q, &db);
        let summary = plan.summary();
        let out = db.execute_plan(&plan, &Params::new()).unwrap();
        let algos: Vec<&str> = summary
            .joins
            .iter()
            .map(|j| match j {
                JoinAlgorithm::Hash => "hash",
                JoinAlgorithm::NestedLoop => "nested-loop",
            })
            .collect();
        assert_eq!(out.stats.joins, algos);
        assert_eq!(summary.index_scans > 0, out.stats.used_index);
        // And the convenience path produces identical rows and stats.
        let direct = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(direct, out);
    }

    #[test]
    fn two_indexed_equalities_use_one_index_scan() {
        // Regression for the pre-IR divergence: explain() counted one index
        // scan per pushed indexed equality, while the executor probes at
        // most one index per scan.
        let mut db = setup();
        db.create_index("users", "roleId").unwrap();
        db.create_index("users", "id").unwrap();
        let q = parse_query("SELECT id FROM users WHERE roleId = 1 AND id = 4").unwrap();
        let plan = explain(&q, &db);
        assert_eq!(plan.index_scans, 1, "{plan:?}");
        assert_eq!(plan.pushed_filters, 2, "{plan:?}");
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert!(out.stats.used_index);
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn order_by_limit_distinct() {
        let db = setup();
        let q = parse_query("SELECT DISTINCT roleId FROM users ORDER BY roleId DESC LIMIT 2");
        // The parser has no DISTINCT support; build by hand.
        drop(q);
        let mut q =
            parse_query("SELECT roleId FROM users ORDER BY roleId DESC LIMIT 2").unwrap();
        q.distinct = true;
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows.get(0).unwrap().value_at(0), &Value::from(2));
    }

    #[test]
    fn limit_pushdown_stops_the_scan_early() {
        let db = setup();
        let q = parse_query("SELECT id FROM users LIMIT 2").unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(out.rows.len(), 2);
        // Only the limit prefix was ever read from the base table.
        assert_eq!(out.stats.rows_scanned, 2);
        // With a filter the scan reads until enough rows pass.
        let q = parse_query("SELECT id FROM users WHERE roleId = 1 LIMIT 1").unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.stats.rows_scanned, 2, "rows 0..=1 examined, row 1 matched");
    }

    fn int_column(out: &SelectOutput) -> Vec<i64> {
        out.rows.iter().map(|r| r.value_at(0).as_int().expect("int column")).collect()
    }

    #[test]
    fn offset_skips_rows_and_the_pushed_scan_fetches_limit_plus_offset() {
        let db = setup();
        let q = parse_query("SELECT id FROM users LIMIT 2 OFFSET 3").unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(int_column(&out), vec![3, 4]);
        // The pushed scan must fetch limit + offset rows, not just limit:
        // truncating to 2 before the skip would return ids 0..2 minus the
        // offset — an empty (and wrong) page.
        assert_eq!(out.stats.rows_scanned, 5);

        // OFFSET without LIMIT skips a prefix of the full result.
        let q = parse_query("SELECT id FROM users OFFSET 4").unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(int_column(&out), vec![4, 5]);

        // Skipping past the end is empty, not an error.
        let q = parse_query("SELECT id FROM users LIMIT 3 OFFSET 100").unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn offset_applies_after_order_by_and_distinct() {
        let db = setup();
        let q = parse_query("SELECT id FROM users ORDER BY id DESC LIMIT 2 OFFSET 1").unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(int_column(&out), vec![4, 3]);

        let mut q =
            parse_query("SELECT roleId FROM users ORDER BY roleId LIMIT 5 OFFSET 1").unwrap();
        q.distinct = true;
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(int_column(&out), vec![1, 2], "offset skips deduplicated rows");
    }

    #[test]
    fn offset_parameters_bind_like_limit_parameters() {
        let db = setup();
        let q =
            parse_query("SELECT id FROM users ORDER BY id LIMIT :cap OFFSET :skip").unwrap();
        let mut params = Params::new();
        params.insert("cap".into(), Value::from(2));
        params.insert("skip".into(), Value::from(2));
        let out = db.execute_select(&q, &params).unwrap();
        assert_eq!(int_column(&out), vec![2, 3]);

        params.remove("skip");
        let err = db.execute_select(&q, &params).unwrap_err();
        assert!(err.to_string().contains("unbound OFFSET parameter :skip"), "{err}");
    }

    #[test]
    fn scalar_count_and_comparison() {
        let db = setup();
        let inner = parse_query("SELECT * FROM users WHERE roleId = 0").unwrap();
        let scalar = qbs_sql::SqlScalar {
            agg: AggKind::Count,
            column: None,
            query: inner,
            compare: None,
        };
        match db.execute(&SqlQuery::Scalar(scalar.clone()), &Params::new()).unwrap() {
            QueryOutput::Scalar { value, .. } => assert_eq!(value, Value::from(2)),
            other => panic!("unexpected {other:?}"),
        }
        let exists =
            qbs_sql::SqlScalar { compare: Some((CmpOp::Gt, SqlExpr::int(0))), ..scalar };
        match db.execute(&SqlQuery::Scalar(exists), &Params::new()).unwrap() {
            QueryOutput::Scalar { value, .. } => assert_eq!(value, Value::from(true)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn min_max_over_empty_relation_is_an_error_not_a_sentinel() {
        let db = setup();
        let inner = parse_query("SELECT id FROM users WHERE roleId = 99").unwrap();
        for agg in [AggKind::Min, AggKind::Max] {
            let scalar = qbs_sql::SqlScalar {
                agg,
                column: Some(SqlExpr::col("id")),
                query: inner.clone(),
                compare: None,
            };
            let got = db.execute(&SqlQuery::Scalar(scalar), &Params::new());
            assert!(
                matches!(got, Err(DbError::EmptyAggregate(_))),
                "expected EmptyAggregate, got {got:?}"
            );
        }
        // SUM over the empty relation stays 0 (it has a true unit).
        let sum = qbs_sql::SqlScalar {
            agg: AggKind::Sum,
            column: Some(SqlExpr::col("id")),
            query: inner,
            compare: None,
        };
        match db.execute(&SqlQuery::Scalar(sum), &Params::new()).unwrap() {
            QueryOutput::Scalar { value, .. } => assert_eq!(value, Value::from(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregate_over_non_integer_column_is_a_type_error() {
        let db = setup();
        let inner = parse_query("SELECT label FROM roles").unwrap();
        let scalar = qbs_sql::SqlScalar {
            agg: AggKind::Sum,
            column: Some(SqlExpr::col("label")),
            query: inner,
            compare: None,
        };
        let got = db.execute(&SqlQuery::Scalar(scalar), &Params::new());
        match got {
            Err(DbError::Exec(msg)) => {
                assert!(msg.contains("non-integer"), "{msg}")
            }
            other => panic!("expected a type error, got {other:?}"),
        }
    }

    #[test]
    fn sum_overflow_is_a_checked_error() {
        let mut db = Database::new();
        db.create_table(Schema::builder("big").field("n", FieldType::Int).finish()).unwrap();
        db.insert("big", vec![Value::from(i64::MAX)]).unwrap();
        db.insert("big", vec![Value::from(1)]).unwrap();
        let scalar = qbs_sql::SqlScalar {
            agg: AggKind::Sum,
            column: Some(SqlExpr::col("n")),
            query: parse_query("SELECT n FROM big").unwrap(),
            compare: None,
        };
        let got = db.execute(&SqlQuery::Scalar(scalar), &Params::new());
        match got {
            Err(DbError::Exec(msg)) => assert!(msg.contains("overflow"), "{msg}"),
            other => panic!("expected overflow error, got {other:?}"),
        }
    }

    #[test]
    fn bind_parameters_resolve() {
        let db = setup();
        let q = parse_query("SELECT id FROM users WHERE id = :uid").unwrap();
        let mut params = Params::new();
        params.insert("uid".into(), Value::from(3));
        let out = db.execute_select(&q, &params).unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn in_subquery_executes_once_and_probes_a_hash_set() {
        let db = setup();
        let sub = parse_query("SELECT roleId FROM roles WHERE roleId = 1").unwrap();
        let mut q = parse_query("SELECT id FROM users").unwrap();
        q.where_clause = Some(SqlExpr::InSubquery(
            Box::new(SqlExpr::qcol("users", "roleId")),
            Box::new(sub.clone()),
        ));
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(out.rows.len(), 2);
        // Six probe rows, one sub-query execution, five cache hits.
        assert_eq!(out.stats.subqueries_executed, 1, "{:?}", out.stats);
        assert_eq!(out.stats.subquery_cache_hits, 5, "{:?}", out.stats);

        // The same sub-query twice in one WHERE shares the hoisted result.
        let mut q2 = parse_query("SELECT id FROM users").unwrap();
        q2.where_clause = Some(SqlExpr::And(vec![
            SqlExpr::InSubquery(
                Box::new(SqlExpr::qcol("users", "roleId")),
                Box::new(sub.clone()),
            ),
            SqlExpr::InSubquery(Box::new(SqlExpr::qcol("users", "roleId")), Box::new(sub)),
        ]));
        let out2 = db.execute_select(&q2, &Params::new()).unwrap();
        assert_eq!(out2.rows.len(), 2);
        assert_eq!(out2.stats.subqueries_executed, 1, "{:?}", out2.stats);
    }

    #[test]
    fn nested_in_subqueries_count_toward_hoisting() {
        let db = setup();
        let innermost = parse_query("SELECT roleId FROM roles WHERE roleId = 1").unwrap();
        let mut mid = parse_query("SELECT roleId FROM roles").unwrap();
        mid.where_clause = Some(SqlExpr::InSubquery(
            Box::new(SqlExpr::qcol("roles", "roleId")),
            Box::new(innermost),
        ));
        let mut q = parse_query("SELECT id FROM users").unwrap();
        q.where_clause = Some(SqlExpr::InSubquery(
            Box::new(SqlExpr::qcol("users", "roleId")),
            Box::new(mid),
        ));
        let summary = explain(&q, &db);
        assert_eq!(summary.hoisted_subqueries, 2, "{summary:?}");
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(out.rows.len(), 2);
        // The nested sub-query executes through the same hoisting cache,
        // and the documented bound holds.
        assert!(out.stats.subqueries_executed <= summary.hoisted_subqueries, "{:?}", out.stats);
    }

    #[test]
    fn executing_a_plan_against_an_unindexed_database_errors() {
        let mut indexed = setup();
        indexed.create_index("users", "roleId").unwrap();
        let bare = setup(); // same tables, no index
        let q = parse_query("SELECT id FROM users WHERE roleId = 1").unwrap();
        let p = crate::planner::plan(&q, &indexed);
        assert_eq!(p.summary().index_scans, 1);
        // The plan's probe cannot be satisfied: loud error, not 0 rows.
        let got = bare.execute_plan(&p, &Params::new());
        match got {
            Err(DbError::Exec(msg)) => assert!(msg.contains("index"), "{msg}"),
            other => panic!("expected an index error, got {other:?}"),
        }
    }

    /// `SELECT <alias>.<col> FROM (inner) <alias>`.
    fn wrap_in_from_subquery(inner: qbs_sql::SqlSelect, alias: &str, col: &str) -> SqlSelect {
        qbs_sql::SqlSelect::new(
            vec![qbs_sql::SelectItem { expr: SqlExpr::qcol(alias, col), alias: None }],
            vec![qbs_sql::FromItem::Subquery { query: Box::new(inner), alias: alias.into() }],
        )
    }

    #[test]
    fn from_subquery_stats_stay_top_level() {
        // The inner plan probes an index and (in the join variant) runs a
        // hash join; `joins`/`used_index` must still describe only the
        // top-level statement — the invariant Plan::summary renders.
        let mut db = setup();
        db.create_index("users", "roleId").unwrap();
        let inner = parse_query("SELECT id FROM users WHERE roleId = 1").unwrap();
        let q = wrap_in_from_subquery(inner, "s", "id");
        let plan = explain(&q, &db);
        assert_eq!(plan.index_scans, 0, "{plan:?}");
        assert!(plan.joins.is_empty(), "{plan:?}");
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert!(!out.stats.used_index, "{:?}", out.stats);
        assert!(out.stats.joins.is_empty(), "{:?}", out.stats);
        // The inner scan's row work is still accounted for.
        assert_eq!(out.stats.rows_scanned, 2, "{:?}", out.stats);
    }

    #[test]
    fn order_sensitive_outer_query_pins_inner_subquery_order() {
        let db = setup();
        let join =
            parse_query("SELECT users.id FROM users, roles WHERE users.roleId = roles.roleId")
                .unwrap();
        let cfg = PlanConfig { reorder_joins: true, ..PlanConfig::default() };

        // Outer LIMIT observes the inner row order: the inner join must
        // not be reordered, and the result equals the default execution.
        let mut limited = wrap_in_from_subquery(join.clone(), "s", "id");
        limited.limit = Some(SqlExpr::int(3));
        let plan = crate::planner::plan_with(&limited, &db, &cfg);
        let crate::planner::ScanSource::Subquery { plan: inner, .. } = &plan.scans[0].source
        else {
            panic!("subquery scan expected");
        };
        assert!(!inner.reordered, "{inner:?}");
        let base = db.execute_select(&limited, &Params::new()).unwrap();
        let reordered = db.execute_select_with(&limited, &Params::new(), &cfg).unwrap();
        assert_eq!(base.rows, reordered.rows);

        // Without the outer LIMIT the whole result is a multiset and the
        // inner join may reorder (roles is smaller than users).
        let free = wrap_in_from_subquery(join, "s", "id");
        let plan = crate::planner::plan_with(&free, &db, &cfg);
        let crate::planner::ScanSource::Subquery { plan: inner, .. } = &plan.scans[0].source
        else {
            panic!("subquery scan expected");
        };
        assert!(inner.reordered, "{inner:?}");
    }

    #[test]
    fn reordered_join_preserves_the_multiset() {
        let db = setup();
        // roles (3 rows) is smaller than users (6): greedy order flips.
        let q =
            parse_query("SELECT users.id FROM users, roles WHERE users.roleId = roles.roleId")
                .unwrap();
        let cfg = PlanConfig { reorder_joins: true, ..PlanConfig::default() };
        let plan = explain_with(&q, &db, &cfg);
        assert!(plan.reordered, "{plan:?}");
        assert_eq!(plan.join_order, vec![Ident::new("roles"), Ident::new("users")]);
        let base = db.execute_select(&q, &Params::new()).unwrap();
        let reordered = db.execute_select_with(&q, &Params::new(), &cfg).unwrap();
        assert!(crate::compare::rows_agree(
            &base.rows,
            &reordered.rows,
            crate::compare::RowsEquivalence::Multiset
        ));
    }

    fn row_ints(out: &SelectOutput) -> Vec<Vec<i64>> {
        out.rows
            .iter()
            .map(|r| {
                (0..out.rows.schema().arity())
                    .map(|k| r.value_at(k).as_int().expect("int column"))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn group_by_counts_in_first_occurrence_key_order() {
        let db = setup();
        let q = parse_query("SELECT roleId, COUNT(*) FROM users GROUP BY roleId").unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        // roleId = i % 3 over ids 0..6: keys first occur in order 0, 1, 2.
        assert_eq!(row_ints(&out), vec![vec![0, 2], vec![1, 2], vec![2, 2]]);
    }

    #[test]
    fn group_by_sum_min_max_per_key() {
        let db = setup();
        let q =
            parse_query("SELECT roleId, SUM(id), MIN(id), MAX(id) FROM users GROUP BY roleId")
                .unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(row_ints(&out), vec![vec![0, 3, 0, 3], vec![1, 5, 1, 4], vec![2, 7, 2, 5]]);
    }

    #[test]
    fn having_filters_groups_and_having_only_aggregates_are_dropped() {
        let db = setup();
        // SUM(id) appears only in HAVING: computed, filtered on, dropped.
        let q = parse_query(
            "SELECT roleId, COUNT(*) FROM users GROUP BY roleId HAVING SUM(id) > 3",
        )
        .unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(out.rows.schema().arity(), 2);
        assert_eq!(row_ints(&out), vec![vec![1, 2], vec![2, 2]]);
    }

    #[test]
    fn grouped_order_by_sorts_keys_and_aggregates() {
        let db = setup();
        let q = parse_query(
            "SELECT roleId, SUM(id) FROM users GROUP BY roleId ORDER BY roleId DESC",
        )
        .unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(row_ints(&out), vec![vec![2, 7], vec![1, 5], vec![0, 3]]);
        // Ordering on an aggregate expression resolves through the same
        // `#agg<i>` rewrite as the select list (the parser has no aggregate
        // ORDER BY surface; build the key by hand).
        let mut q = parse_query("SELECT roleId, SUM(id) FROM users GROUP BY roleId").unwrap();
        q.order_by = vec![qbs_sql::OrderKey {
            expr: SqlExpr::agg(AggKind::Sum, Some(SqlExpr::col("id"))),
            asc: false,
        }];
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(row_ints(&out), vec![vec![2, 7], vec![1, 5], vec![0, 3]]);
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_zero_rows_not_empty_aggregate() {
        // A group only exists because a row landed in it, so grouped
        // MIN/MAX can never see an empty group: empty input means an
        // empty result, never `DbError::EmptyAggregate`.
        let db = setup();
        let q = parse_query(
            "SELECT roleId, MIN(id), MAX(id) FROM users WHERE roleId = 99 GROUP BY roleId",
        )
        .unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn grouped_aggregate_over_non_integer_column_is_a_type_error() {
        let db = setup();
        let q = parse_query("SELECT roleId, SUM(label) FROM roles GROUP BY roleId").unwrap();
        let got = db.execute_select(&q, &Params::new());
        match got {
            Err(DbError::Exec(msg)) => assert!(msg.contains("non-integer"), "{msg}"),
            other => panic!("expected a type error, got {other:?}"),
        }
    }

    #[test]
    fn grouped_sum_overflow_is_a_checked_error() {
        let mut db = Database::new();
        db.create_table(
            Schema::builder("big")
                .field("k", FieldType::Int)
                .field("n", FieldType::Int)
                .finish(),
        )
        .unwrap();
        db.insert("big", vec![Value::from(0), Value::from(i64::MAX)]).unwrap();
        db.insert("big", vec![Value::from(0), Value::from(1)]).unwrap();
        let q = parse_query("SELECT k, SUM(n) FROM big GROUP BY k").unwrap();
        let got = db.execute_select(&q, &Params::new());
        match got {
            Err(DbError::Exec(msg)) => assert!(msg.contains("overflow"), "{msg}"),
            other => panic!("expected overflow error, got {other:?}"),
        }
    }

    #[test]
    fn explain_renders_the_hash_aggregate_node() {
        let db = setup();
        let q = parse_query(
            "SELECT roleId, COUNT(*) FROM users GROUP BY roleId HAVING COUNT(*) > 1",
        )
        .unwrap();
        let plan = crate::planner::plan(&q, &db);
        let text = plan.to_string();
        assert!(text.contains("hash aggregate (1 keys, 1 aggs, having)"), "{text}");
    }

    #[test]
    fn group_by_prunes_unreferenced_scan_columns() {
        let db = setup();
        let q = parse_query("SELECT roleId, COUNT(*) FROM users GROUP BY roleId").unwrap();
        let plan = crate::planner::plan(&q, &db);
        // `id` feeds nothing downstream of the scan; only the key survives.
        let cols: Vec<Ident> =
            plan.scans[0].out_cols().iter().map(|c| c.name.clone()).collect();
        assert_eq!(cols, vec![Ident::new("roleId")], "{plan}");
    }

    #[test]
    fn rowid_prefix_sort_elision_survives_and_grouping_disables_it() {
        let db = setup();
        let q = parse_query("SELECT id FROM users ORDER BY users.rowid").unwrap();
        let plan = crate::planner::plan(&q, &db);
        assert!(plan.sort_elided, "{plan}");
        assert!(plan.order_by.is_empty(), "{plan}");
        // A grouped plan changes row cardinality between the scan and the
        // sort, so the rowid-prefix guarantee no longer holds — the gate
        // must keep the sort even when the keys would otherwise qualify.
        let mut q = parse_query("SELECT roleId, COUNT(*) FROM users GROUP BY roleId").unwrap();
        q.order_by =
            vec![qbs_sql::OrderKey { expr: SqlExpr::qcol("users", "rowid"), asc: true }];
        let plan = crate::planner::plan(&q, &db);
        assert!(!plan.sort_elided, "{plan}");
        assert_eq!(plan.order_by.len(), 1, "{plan}");
    }

    #[test]
    fn unknown_table_is_reported() {
        let db = setup();
        let q = parse_query("SELECT * FROM missing").unwrap();
        assert!(matches!(db.execute_select(&q, &Params::new()), Err(DbError::UnknownTable(_))));
    }
}
