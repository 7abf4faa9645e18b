//! Query planning: the [`PhysicalPlan`] IR.
//!
//! [`plan_with`] runs every planning decision exactly once — selection
//! pushdown, index selection, equi-join key extraction, greedy join
//! ordering, cardinality estimation — and records the result as a
//! [`PhysicalPlan`]. [`explain`] is a cheap rendering of that IR and
//! `Database::execute_select` interprets it; because both sides consume the
//! same value there is no second planning pass that could diverge from the
//! executor (the pre-IR `explain()` re-derived the decisions by hand and,
//! for example, counted one index scan per pushed equality predicate while
//! the executor used at most one index per scan).

use crate::exec::FrameCol;
use qbs_common::Ident;
use qbs_sql::{FromItem, OrderKey, SelectItem, SqlExpr, SqlSelect};
use qbs_tor::{AggKind, CmpOp};
use std::collections::BTreeSet;
use std::fmt;

/// Join algorithm chosen for one join step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JoinAlgorithm {
    /// Hash join on an equality key — `O(n + m)`.
    Hash,
    /// Nested-loop join — `O(n·m)`.
    NestedLoop,
}

/// Planner tuning knobs.
#[derive(Clone, Debug, Default)]
pub struct PlanConfig {
    /// Order joins greedily by estimated cardinality (smallest first)
    /// instead of `FROM`-clause order. Reordering is applied only when it
    /// cannot change observable results: either no `ORDER BY`/`LIMIT` pins an
    /// observable order (results compare as multisets), or the `ORDER BY`
    /// totally orders rows via every alias's `rowid`.
    pub reorder_joins: bool,
    /// Force scans onto the row-at-a-time materialization path instead of
    /// the vectorized columnar one. The equivalence suite uses it to prove
    /// both executors observationally identical. Never enable it for
    /// production execution.
    pub force_row_store: bool,
    /// Force plan execution onto the tree-walking interpreter instead of
    /// the compiled bytecode VM. The equivalence suite uses this to prove
    /// the VM observationally identical to the interpreter. Never enable
    /// it for production execution.
    pub force_interpreter: bool,
}

/// An index probe: `column = value` answered by a hash index.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexProbe {
    /// The indexed column.
    pub column: Ident,
    /// The probe value — a literal or a bind parameter.
    pub value: SqlExpr,
}

/// Where a scan's rows come from.
#[derive(Clone, Debug, PartialEq)]
pub enum ScanSource {
    /// A base table.
    Table(Ident),
    /// A `FROM (subquery) alias` — planned recursively.
    Subquery {
        /// The sub-query's own physical plan.
        plan: Box<PhysicalPlan>,
    },
}

/// One `FROM` item with its pushed-down selections resolved.
#[derive(Clone, Debug, PartialEq)]
pub struct ScanNode {
    /// The alias column references use.
    pub alias: Ident,
    /// Base table or sub-query.
    pub source: ScanSource,
    /// The scan's *evaluation* layout, resolved at plan time: table
    /// schema plus the hidden `rowid` for base tables, the projected
    /// columns of a sub-query. Pushed filters evaluate against this
    /// layout (the raw row), independent of what gets materialized.
    pub cols: Vec<FrameCol>,
    /// Column pruning: positions of [`cols`](Self::cols) actually
    /// materialized into the output frame (`None` = all). Columns no
    /// post-scan operator references are never copied out of the table.
    pub emit: Option<Vec<usize>>,
    /// At most one indexed equality probe (the executor uses at most one
    /// index per scan; the plan records exactly that).
    pub probe: Option<IndexProbe>,
    /// Pushed predicates not answered by the probe, conjoined.
    pub filter: Option<SqlExpr>,
    /// Column-batch metadata for the columnar executor: the positions of
    /// [`cols`](Self::cols) a vectorized scan actually touches — the
    /// pushed filter's column references plus the emitted columns, in
    /// ascending position order.
    pub cols_read: Vec<usize>,
    /// How many conjuncts were pushed down to this scan (probe included).
    pub pushed_filters: usize,
    /// Estimated output cardinality (exact for literal index probes,
    /// coarse selectivity heuristics otherwise).
    pub estimated_rows: usize,
}

impl ScanNode {
    /// The columns the scan actually materializes:
    /// [`cols`](Self::cols) restricted to [`emit`](Self::emit).
    pub fn out_cols(&self) -> Vec<FrameCol> {
        match &self.emit {
            Some(keep) => keep.iter().map(|&i| self.cols[i].clone()).collect(),
            None => self.cols.clone(),
        }
    }

    /// One-line description of the scan — the shared vocabulary of the
    /// plain explain rendering and `explain_analyze`'s annotated one.
    pub(crate) fn describe(&self) -> String {
        let source = match &self.source {
            ScanSource::Table(name) => format!("table {name}"),
            ScanSource::Subquery { .. } => "subquery".to_string(),
        };
        let mut out =
            format!("scan {} ({source}, est {} rows", self.alias, self.estimated_rows);
        if let Some(p) = &self.probe {
            out.push_str(&format!(", index {} = {:?}", p.column, p.value));
        }
        if self.filter.is_some() {
            out.push_str(", filtered");
        }
        out.push(')');
        out
    }
}

/// One join step: `acc ⋈ scans[k+1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinStep {
    /// Chosen algorithm.
    pub algorithm: JoinAlgorithm,
    /// Equality keys (left, right) driving a hash join.
    pub key: Option<(SqlExpr, SqlExpr)>,
    /// The keys resolved to column positions (left position in the
    /// accumulated layout, right position in the joined scan) when both
    /// are plain column references — the executor then probes by direct
    /// row access instead of per-row expression evaluation.
    pub key_idx: Option<(usize, usize)>,
    /// Remaining connecting predicates, evaluated on each candidate pair.
    pub residual: Option<SqlExpr>,
    /// Estimated cardinality after this step.
    pub estimated_rows: usize,
}

impl JoinStep {
    /// One-line description of the join step (shared with
    /// `explain_analyze`).
    pub(crate) fn describe(&self) -> String {
        let algo = match self.algorithm {
            JoinAlgorithm::Hash => "hash join",
            JoinAlgorithm::NestedLoop => "nested-loop join",
        };
        format!("  └ {algo} (est {} rows)", self.estimated_rows)
    }
}

/// One aggregate column of an [`AggregateNode`].
#[derive(Clone, Debug, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub agg: AggKind,
    /// Its input expression (`None` = `COUNT(*)`).
    pub input: Option<SqlExpr>,
}

/// Grouped aggregation (`GROUP BY` / `HAVING`): one hash-aggregate pass
/// between the residual filter and the sort.
///
/// The operator replaces the joined frame with its grouped output —
/// every plan element downstream of it (`HAVING`, `ORDER BY`, the
/// projection) is resolved against [`out_cols`](Self::out_cols), never
/// the joined layout.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregateNode {
    /// Group-key expressions, resolved against the joined frame at run
    /// time (plain column references in every planned query).
    pub keys: Vec<SqlExpr>,
    /// Aggregates computed per group, in output order after the keys.
    pub aggs: Vec<AggSpec>,
    /// The operator's output layout: one column per key, then one
    /// synthetic `#agg<i>` column per aggregate.
    pub out_cols: Vec<FrameCol>,
    /// `HAVING`, with every aggregate rewritten to its `#agg<i>` output
    /// column — an ordinary filter over the grouped frame.
    pub having: Option<SqlExpr>,
}

impl AggregateNode {
    /// One-line description of the aggregate (shared by the plain explain
    /// rendering and `explain_analyze`'s annotated one).
    pub(crate) fn describe(&self) -> String {
        format!(
            "hash aggregate ({} keys, {} aggs{})",
            self.keys.len(),
            self.aggs.len(),
            if self.having.is_some() { ", having" } else { "" },
        )
    }
}

/// The physical plan: every decision the executor will take, computed once.
///
/// `explain()` renders it into a [`Plan`] summary; `Database::execute_plan`
/// interprets it. The struct clones the query's projection/ordering clauses
/// so the interpreter needs no access to the original `SqlSelect`.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalPlan {
    /// Scans in execution (join) order — reordered when permitted.
    pub scans: Vec<ScanNode>,
    /// Join steps; `joins[k]` combines the accumulator with `scans[k + 1]`.
    pub joins: Vec<JoinStep>,
    /// Post-join leftover predicates (alias-free literals, predicates over
    /// already-joined aliases), conjoined.
    pub residual: Option<SqlExpr>,
    /// Grouped aggregation (`GROUP BY`/`HAVING`), applied after the
    /// residual filter and before the sort. When present, limit pushdown
    /// and projection fusion are disabled: every row must reach the
    /// aggregate, and the projection addresses its output layout.
    pub aggregate: Option<AggregateNode>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// Projection list (empty = `SELECT *`).
    pub columns: Vec<SelectItem>,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// `LIMIT` expression.
    pub limit: Option<SqlExpr>,
    /// `OFFSET` expression (rows skipped before the `LIMIT` prefix).
    pub offset: Option<SqlExpr>,
    /// True when the greedy optimizer changed the `FROM` order.
    pub reordered: bool,
    /// Uncorrelated `IN (SELECT …)` predicates reachable from this query
    /// (its `WHERE` clause plus nested sub-queries' clauses); the executor
    /// hoists each into a hash set built once per statement.
    pub hoisted_subqueries: usize,
    /// True when the query's `ORDER BY` was proven redundant and dropped
    /// from [`order_by`](Self::order_by): base-table scans yield rowid-
    /// ascending rows and both join algorithms produce left-major order,
    /// so a join pipeline's output is already sorted lexicographically by
    /// `(scans[0].rowid, scans[1].rowid, …)` — a stable sort by any prefix
    /// of those keys is the identity.
    pub sort_elided: bool,
    /// The projection resolved at plan time against the joined layout:
    /// output columns plus their positions. `None` falls back to per-call
    /// resolution (and its runtime errors) when a column cannot be
    /// resolved statically.
    pub projection: Option<(Vec<FrameCol>, Vec<usize>)>,
}

impl PhysicalPlan {
    /// The plan summary — what `explain()` returns.
    pub fn summary(&self) -> Plan {
        Plan {
            joins: self.joins.iter().map(|j| j.algorithm).collect(),
            pushed_filters: self.scans.iter().map(|s| s.pushed_filters).sum(),
            index_scans: self.scans.iter().filter(|s| s.probe.is_some()).count(),
            join_order: self.scans.iter().map(|s| s.alias.clone()).collect(),
            estimated_rows: self.scans.iter().map(|s| s.estimated_rows).collect(),
            reordered: self.reordered,
            hoisted_subqueries: self.hoisted_subqueries,
        }
    }

    /// Estimated output cardinality: the last join estimate (or the single
    /// scan's), reduced by a literal `OFFSET` and clamped by a literal
    /// `LIMIT`.
    pub fn estimated_output(&self) -> usize {
        let mut base = self
            .joins
            .last()
            .map(|j| j.estimated_rows)
            .or_else(|| self.scans.first().map(|s| s.estimated_rows))
            .unwrap_or(0);
        if let Some(SqlExpr::Lit(v)) = &self.offset {
            if let Some(n) = v.as_int().filter(|n| *n >= 0) {
                base = base.saturating_sub(n as usize);
            }
        }
        match &self.limit {
            Some(SqlExpr::Lit(v)) => match v.as_int() {
                Some(n) if n >= 0 => base.min(n as usize),
                _ => base,
            },
            _ => base,
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, scan) in self.scans.iter().enumerate() {
            writeln!(f, "{}", scan.describe())?;
            if k > 0 {
                writeln!(f, "{}", self.joins[k - 1].describe())?;
            }
        }
        if self.residual.is_some() {
            writeln!(f, "filter (post-join residual)")?;
        }
        if let Some(agg) = &self.aggregate {
            writeln!(f, "{}", agg.describe())?;
        }
        if !self.order_by.is_empty() {
            writeln!(f, "sort ({} keys)", self.order_by.len())?;
        }
        if self.distinct {
            writeln!(f, "distinct")?;
        }
        if self.limit.is_some() {
            writeln!(f, "limit")?;
        }
        if self.offset.is_some() {
            writeln!(f, "offset")?;
        }
        Ok(())
    }
}

/// A human-inspectable plan summary (used by tests and benches to assert
/// that the optimizer made the expected choices). Produced by rendering a
/// [`PhysicalPlan`] — never computed independently of the executor's plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Plan {
    /// Join algorithm per join step, in execution order.
    pub joins: Vec<JoinAlgorithm>,
    /// Number of predicates pushed down to single-table scans.
    pub pushed_filters: usize,
    /// Number of scans satisfied by a hash index (at most one index per
    /// scan, mirroring the executor exactly).
    pub index_scans: usize,
    /// Scan aliases in execution order — differs from the `FROM` order only
    /// when greedy join reordering was enabled and permitted.
    pub join_order: Vec<Ident>,
    /// Estimated cardinality per scan, in `join_order` order.
    pub estimated_rows: Vec<usize>,
    /// True when the optimizer changed the `FROM` order.
    pub reordered: bool,
    /// Uncorrelated `IN`-subquery predicates (nested ones included)
    /// hoisted to once-per-statement hash sets.
    pub hoisted_subqueries: usize,
}

/// The table aliases a predicate references.
pub(crate) fn aliases_of(e: &SqlExpr, out: &mut BTreeSet<Ident>) {
    match e {
        SqlExpr::Column { qualifier, .. } => {
            if let Some(q) = qualifier {
                out.insert(q.clone());
            }
        }
        SqlExpr::Lit(_) | SqlExpr::Param(_) => {}
        SqlExpr::Cmp(a, _, b) => {
            aliases_of(a, out);
            aliases_of(b, out);
        }
        SqlExpr::And(ps) | SqlExpr::Or(ps) => {
            for p in ps {
                aliases_of(p, out);
            }
        }
        SqlExpr::Not(x) => aliases_of(x, out),
        SqlExpr::InSubquery(x, _) => aliases_of(x, out),
        SqlExpr::RowInSubquery(xs, _) => {
            for x in xs {
                aliases_of(x, out);
            }
        }
        SqlExpr::Agg { arg, .. } => {
            if let Some(a) = arg {
                aliases_of(a, out);
            }
        }
    }
}

/// Splits a `WHERE` clause into conjuncts.
pub(crate) fn conjuncts(e: &SqlExpr) -> Vec<SqlExpr> {
    match e {
        SqlExpr::And(ps) => ps.iter().flat_map(conjuncts).collect(),
        other => vec![other.clone()],
    }
}

/// Counts `IN (subquery)` predicates in an expression tree, *including*
/// those nested inside a sub-query's own `WHERE` clause — every one of
/// them executes through the statement's hoisting cache, so this is the
/// upper bound on `ExecStats::subqueries_executed`.
fn count_subquery_preds(e: &SqlExpr) -> usize {
    match e {
        SqlExpr::InSubquery(x, q) => 1 + count_subquery_preds(x) + count_select_preds(q),
        SqlExpr::RowInSubquery(xs, q) => {
            1 + xs.iter().map(count_subquery_preds).sum::<usize>() + count_select_preds(q)
        }
        SqlExpr::Cmp(a, _, b) => count_subquery_preds(a) + count_subquery_preds(b),
        SqlExpr::And(ps) | SqlExpr::Or(ps) => ps.iter().map(count_subquery_preds).sum(),
        SqlExpr::Not(x) => count_subquery_preds(x),
        SqlExpr::Agg { arg, .. } => arg.as_ref().map(|a| count_subquery_preds(a)).unwrap_or(0),
        SqlExpr::Column { .. } | SqlExpr::Lit(_) | SqlExpr::Param(_) => 0,
    }
}

/// [`count_subquery_preds`] over a whole `SELECT`: its `WHERE` clause plus
/// the clauses of its `FROM` sub-queries (their predicate sub-queries also
/// run through the shared hoisting cache when the plan is interpreted).
fn count_select_preds(q: &SqlSelect) -> usize {
    q.where_clause.as_ref().map(count_subquery_preds).unwrap_or(0)
        + q.from
            .iter()
            .map(|f| match f {
                FromItem::Subquery { query, .. } => count_select_preds(query),
                FromItem::Table { .. } => 0,
            })
            .sum::<usize>()
}

/// Recognizes `a.x = b.y` equi-join predicates between two alias sets.
pub(crate) fn equi_join_keys(
    e: &SqlExpr,
    left: &BTreeSet<Ident>,
    right: &BTreeSet<Ident>,
) -> Option<(SqlExpr, SqlExpr)> {
    if let SqlExpr::Cmp(a, CmpOp::Eq, b) = e {
        let mut qa = BTreeSet::new();
        aliases_of(a, &mut qa);
        let mut qb = BTreeSet::new();
        aliases_of(b, &mut qb);
        if !qa.is_empty() && !qb.is_empty() {
            if qa.is_subset(left) && qb.is_subset(right) {
                return Some(((**a).clone(), (**b).clone()));
            }
            if qa.is_subset(right) && qb.is_subset(left) {
                return Some(((**b).clone(), (**a).clone()));
            }
        }
    }
    None
}

/// Recognizes `alias.col = <lit|param>` for index-scan pushdown; returns the
/// column name and the value expression.
pub(crate) fn index_eq(e: &SqlExpr, alias: &Ident) -> Option<(Ident, SqlExpr)> {
    if let SqlExpr::Cmp(a, CmpOp::Eq, b) = e {
        let col = |x: &SqlExpr| -> Option<Ident> {
            if let SqlExpr::Column { qualifier, name } = x {
                // Unqualified columns are attributed to the scan being
                // planned (single-table pushdown).
                if qualifier.is_none() || qualifier.as_ref() == Some(alias) {
                    return Some(name.clone());
                }
            }
            None
        };
        let is_const = |x: &SqlExpr| matches!(x, SqlExpr::Lit(_) | SqlExpr::Param(_));
        if let Some(c) = col(a) {
            if is_const(b) {
                return Some((c, (**b).clone()));
            }
        }
        if let Some(c) = col(b) {
            if is_const(a) {
                return Some((c, (**a).clone()));
            }
        }
    }
    None
}

/// True when the `ORDER BY` clause pins a total order over the join result:
/// every `FROM` alias contributes its `rowid` as a sort key, making each
/// output row's key unique — sorting then yields one canonical sequence no
/// matter what order the join produced.
fn order_pinned_total(q: &SqlSelect) -> bool {
    !q.order_by.is_empty()
        && q.from.iter().all(|item| {
            q.order_by.iter().any(|k| {
                matches!(&k.expr, SqlExpr::Column { qualifier: Some(a), name }
                    if a == item.alias() && name.as_str() == "rowid")
            })
        })
}

/// When greedy join reordering may be applied without changing observable
/// results. The TOR semantics is order-sensitive (the `⋈` axioms fix
/// left-major order), so reordering is sound only when
///
/// * the query has no `ORDER BY` and no `LIMIT` — results are compared as
///   multisets (the oracle's `proven_equivalence` for such queries), and a
///   join reorder permutes but never changes the multiset; or
/// * the `ORDER BY` pins a total order via every alias's `rowid`
///   ([`order_pinned_total`]) — the sort canonicalizes whatever order the
///   joins produced, `LIMIT`/`OFFSET` included.
fn reorder_permitted(q: &SqlSelect) -> bool {
    if q.limit.is_some() || q.offset.is_some() || !q.order_by.is_empty() {
        order_pinned_total(q)
    } else {
        true
    }
}

/// Cardinality estimate for one scan after pushdown, from table sizes and
/// index selectivity. Deliberately coarse — the estimates only have to rank
/// scans for the greedy join order:
///
/// * index probe on a literal: the exact bucket length;
/// * index probe on a parameter: `len / distinct_keys` (average bucket);
/// * non-indexed equality pushdown: `len / 10`;
/// * any other pushdown: `len / 3`;
/// * bare scan: `len`.
fn estimate_table(
    table: &crate::storage::Table,
    probe: &Option<IndexProbe>,
    pushed: usize,
    has_eq: bool,
) -> usize {
    let len = table.len();
    if let Some(p) = probe {
        if let SqlExpr::Lit(v) = &p.value {
            return table.index_lookup(&p.column, v).map(|rows| rows.len()).unwrap_or(0);
        }
        let distinct = table.index_cardinality(&p.column).unwrap_or(1).max(1);
        return (len / distinct).max(1).min(len);
    }
    if pushed > 0 {
        let divisor = if has_eq { 10 } else { 3 };
        return (len / divisor).max(1).min(len.max(1));
    }
    len
}

/// Computes the full physical plan for a query against the given database.
///
/// Pushdown classification, index selection, join-key extraction, join
/// ordering and cardinality estimation all happen here — `explain` renders
/// the result, `Database::execute_plan` interprets it.
pub fn plan_with(q: &SqlSelect, db: &crate::Database, config: &PlanConfig) -> PhysicalPlan {
    let mut remaining: Vec<SqlExpr> =
        q.where_clause.as_ref().map(conjuncts).unwrap_or_default();
    let hoisted_subqueries = count_select_preds(q);

    // Selection pushdown + per-scan index selection, in FROM order (the
    // classification is per-alias and independent of the join order).
    let mut nodes: Vec<ScanNode> = Vec::with_capacity(q.from.len());
    for item in &q.from {
        let alias = item.alias().clone();
        let mut mine = BTreeSet::new();
        mine.insert(alias.clone());
        let mut pushed = Vec::new();
        let mut rest = Vec::new();
        for c in remaining.drain(..) {
            let mut used = BTreeSet::new();
            aliases_of(&c, &mut used);
            // Unqualified predicates are pushable when there is only one
            // FROM item to attribute them to.
            let pushable = used.is_subset(&mine) && (!used.is_empty() || q.from.len() == 1);
            if pushable {
                pushed.push(c);
            } else {
                rest.push(c);
            }
        }
        remaining = rest;

        let pushed_filters = pushed.len();
        let has_eq = pushed.iter().any(|c| index_eq(c, &alias).is_some());
        let (source, cols, probe, residual, estimated_rows) = match item {
            FromItem::Table { name, .. } => {
                let table = db.table(name);
                // At most one indexed equality probe per scan; the rest of
                // the pushed conjuncts stay as a residual filter.
                let mut probe = None;
                let mut residual = Vec::new();
                for c in pushed {
                    if probe.is_none() {
                        if let Some((col, value)) = index_eq(&c, &alias) {
                            if table.is_some_and(|t| t.has_index(&col)) {
                                probe = Some(IndexProbe { column: col, value });
                                continue;
                            }
                        }
                    }
                    residual.push(c);
                }
                let est = table
                    .map(|t| estimate_table(t, &probe, pushed_filters, has_eq))
                    .unwrap_or(0);
                // The scan's frame layout, fixed at plan time: the table's
                // schema columns plus the hidden rowid.
                let mut cols: Vec<FrameCol> = table
                    .map(|t| {
                        t.schema()
                            .fields()
                            .iter()
                            .map(|f| FrameCol { alias: alias.clone(), name: f.name.clone() })
                            .collect()
                    })
                    .unwrap_or_default();
                cols.push(FrameCol { alias: alias.clone(), name: "rowid".into() });
                (ScanSource::Table(name.clone()), cols, probe, residual, est)
            }
            FromItem::Subquery { query, alias: sub_alias } => {
                // An inner reorder permutes the sub-query's output order,
                // which the *outer* query observes through its own ORDER BY
                // tie-breaking or LIMIT/OFFSET window. Only let inner plans
                // reorder when the outer result is order-insensitive (no
                // ORDER BY, no LIMIT, no OFFSET — multiset semantics end to
                // end).
                let pinned;
                let inner_config = if config.reorder_joins
                    && !(q.order_by.is_empty() && q.limit.is_none() && q.offset.is_none())
                {
                    pinned = PlanConfig { reorder_joins: false, ..config.clone() };
                    &pinned
                } else {
                    config
                };
                let inner = plan_with(query, db, inner_config);
                let est = inner.estimated_output();
                let cols = query
                    .columns
                    .iter()
                    .enumerate()
                    .map(|(k, c)| FrameCol {
                        alias: sub_alias.clone(),
                        name: c
                            .alias
                            .clone()
                            .or_else(|| match &c.expr {
                                SqlExpr::Column { name, .. } => Some(name.clone()),
                                _ => None,
                            })
                            .unwrap_or_else(|| Ident::new(format!("c{k}"))),
                    })
                    .collect();
                (ScanSource::Subquery { plan: Box::new(inner) }, cols, None, pushed, est)
            }
        };
        nodes.push(ScanNode {
            alias,
            source,
            cols,
            emit: None,
            probe,
            filter: (!residual.is_empty()).then(|| SqlExpr::conjoin(residual)),
            cols_read: Vec::new(),
            pushed_filters,
            estimated_rows,
        });
    }

    // Join ordering: greedy smallest-estimated-cardinality-first, gated on
    // observable-order safety; otherwise the FROM order (the axiom order).
    let order: Vec<usize> = if config.reorder_joins && nodes.len() > 1 && reorder_permitted(q) {
        greedy_order(&nodes, &remaining)
    } else {
        (0..nodes.len()).collect()
    };
    let reordered = order.iter().enumerate().any(|(k, &i)| k != i);
    let mut scans: Vec<ScanNode> = Vec::with_capacity(nodes.len());
    for &i in &order {
        scans.push(nodes[i].clone());
    }

    // Join steps, in execution order: pull the connecting conjuncts for
    // each step out of the remaining pool; the first equi-join predicate
    // becomes the hash key, the rest the step residual. (Key positions
    // are resolved in a later pass, once column pruning has fixed the
    // final layouts.)
    let mut joins: Vec<JoinStep> = Vec::with_capacity(scans.len().saturating_sub(1));
    let mut joined: BTreeSet<Ident> = BTreeSet::new();
    let mut acc_est = scans.first().map(|s| s.estimated_rows).unwrap_or(0);
    for (k, scan) in scans.iter().enumerate() {
        if k == 0 {
            joined.insert(scan.alias.clone());
            continue;
        }
        let alias = scan.alias.clone();
        let mut right_set = BTreeSet::new();
        right_set.insert(alias.clone());
        let mut key: Option<(SqlExpr, SqlExpr)> = None;
        let mut connecting = Vec::new();
        let mut rest = Vec::new();
        for c in remaining.drain(..) {
            let mut used = BTreeSet::new();
            aliases_of(&c, &mut used);
            let mut both = joined.clone();
            both.insert(alias.clone());
            if used.is_subset(&both) && used.contains(&alias) {
                if key.is_none() {
                    if let Some(k) = equi_join_keys(&c, &joined, &right_set) {
                        key = Some(k);
                        continue;
                    }
                }
                connecting.push(c);
            } else {
                rest.push(c);
            }
        }
        remaining = rest;
        let algorithm =
            if key.is_some() { JoinAlgorithm::Hash } else { JoinAlgorithm::NestedLoop };
        acc_est = match algorithm {
            // An equi join keeps roughly the larger side's cardinality.
            JoinAlgorithm::Hash => acc_est.max(scan.estimated_rows),
            JoinAlgorithm::NestedLoop => acc_est.saturating_mul(scan.estimated_rows.max(1)),
        };
        joins.push(JoinStep {
            algorithm,
            key,
            key_idx: None,
            residual: (!connecting.is_empty()).then(|| SqlExpr::conjoin(connecting)),
            estimated_rows: acc_est,
        });
        joined.insert(alias);
    }

    // Sort elision: scans of base tables emit rowid-ascending rows and
    // both join algorithms are left-major, so the pipeline's output is
    // already ordered lexicographically by (scans[0].rowid, scans[1].rowid,
    // …). An ORDER BY whose keys are exactly a prefix of those rowids
    // (all ascending) is satisfied by construction — a stable sort would
    // be the identity — and is dropped from the plan.
    let sort_elided = !q.order_by.is_empty()
        && q.group_by.is_empty()
        && q.order_by.len() <= scans.len()
        && q.order_by.iter().zip(&scans).all(|(k, scan)| {
            k.asc
                && matches!(scan.source, ScanSource::Table(_))
                && matches!(&k.expr, SqlExpr::Column { qualifier: Some(a), name }
                    if a == &scan.alias && name.as_str() == "rowid")
        });
    let mut order_by = if sort_elided { Vec::new() } else { q.order_by.clone() };

    // Resolve the projection against the *full* layout first — whether it
    // resolves statically gates column pruning (the dynamic fallback may
    // reference anything).
    let full_layout: Vec<FrameCol> =
        scans.iter().flat_map(|s| s.cols.iter().cloned()).collect();
    let full_projection = resolve_projection(&q.columns, &full_layout);

    // Grouped aggregation: collect the distinct aggregate expressions
    // (select list first, then HAVING-only ones), fix the operator's
    // output layout — key columns then one synthetic `#agg<i>` column per
    // aggregate — and rewrite everything downstream of the operator
    // (HAVING, the select list) to reference that layout. A HAVING-only
    // aggregate gets computed and filtered on, then dropped by the
    // projection.
    let mut columns = q.columns.clone();
    let aggregate = if q.group_by.is_empty() {
        None
    } else {
        let mut agg_exprs: Vec<SqlExpr> = Vec::new();
        for item in &q.columns {
            collect_aggs(&item.expr, &mut agg_exprs);
        }
        if let Some(h) = &q.having {
            collect_aggs(h, &mut agg_exprs);
        }
        for k in &q.order_by {
            collect_aggs(&k.expr, &mut agg_exprs);
        }
        let mut out_cols: Vec<FrameCol> = q
            .group_by
            .iter()
            .map(|k| match k {
                SqlExpr::Column { qualifier, name } => {
                    match crate::exec::resolve_cols(&full_layout, qualifier.as_ref(), name) {
                        Some(i) => full_layout[i].clone(),
                        None => FrameCol {
                            alias: qualifier.clone().unwrap_or_else(|| Ident::new("")),
                            name: name.clone(),
                        },
                    }
                }
                _ => FrameCol { alias: Ident::new(""), name: Ident::new("#key") },
            })
            .collect();
        for i in 0..agg_exprs.len() {
            out_cols
                .push(FrameCol { alias: Ident::new(""), name: Ident::new(format!("#agg{i}")) });
        }
        columns = columns
            .iter()
            .map(|item| SelectItem {
                expr: rewrite_aggs(&item.expr, &agg_exprs),
                alias: item.alias.clone(),
            })
            .collect();
        // ORDER BY runs downstream of the aggregate too (sort elision is
        // off under grouping, so `order_by` is exactly `q.order_by` here).
        order_by = order_by
            .iter()
            .map(|k| OrderKey { expr: rewrite_aggs(&k.expr, &agg_exprs), asc: k.asc })
            .collect();
        Some(AggregateNode {
            keys: q.group_by.clone(),
            aggs: agg_exprs
                .iter()
                .map(|e| match e {
                    SqlExpr::Agg { agg, arg } => {
                        AggSpec { agg: *agg, input: arg.as_deref().cloned() }
                    }
                    other => unreachable!("collect_aggs collects aggregates, got {other:?}"),
                })
                .collect(),
            out_cols,
            having: q.having.as_ref().map(|h| rewrite_aggs(h, &agg_exprs)),
        })
    };

    // Column pruning: a scan column that no post-scan operator (join key,
    // step or plan residual, order key, projection) references is never
    // materialized. Pushed scan filters evaluate against the raw row
    // before materialization, so they impose nothing.
    if full_projection.is_some() || aggregate.is_some() {
        let mut needed: Vec<(Option<Ident>, Ident)> = Vec::new();
        for step in &joins {
            if let Some((lk, rk)) = &step.key {
                column_refs(lk, &mut needed);
                column_refs(rk, &mut needed);
            }
            if let Some(r) = &step.residual {
                column_refs(r, &mut needed);
            }
        }
        for c in &remaining {
            column_refs(c, &mut needed);
        }
        for k in &order_by {
            column_refs(&k.expr, &mut needed);
        }
        // The aggregate's inputs: group keys, aggregate arguments (via the
        // `Agg` arm of `column_refs` below), and HAVING references.
        for k in &q.group_by {
            column_refs(k, &mut needed);
        }
        if let Some(h) = &q.having {
            column_refs(h, &mut needed);
        }
        if aggregate.is_some() {
            // Pre-rewrite ORDER BY keys: an aggregate ordered on reads its
            // argument columns from the scans, not from `order_by` (which
            // now references the post-aggregate `#agg<i>` layout).
            for k in &q.order_by {
                column_refs(&k.expr, &mut needed);
            }
        }
        let keep_all_non_rowid = q.columns.is_empty();
        for item in &q.columns {
            column_refs(&item.expr, &mut needed);
        }
        let is_needed = |col: &FrameCol| {
            (keep_all_non_rowid && col.name.as_str() != "rowid")
                || needed.iter().any(|(qual, name)| {
                    &col.name == name && qual.as_ref().is_none_or(|qq| qq == &col.alias)
                })
        };
        for scan in &mut scans {
            // Only base tables prune (a sub-query's columns were already
            // chosen by its own projection).
            if !matches!(scan.source, ScanSource::Table(_)) {
                continue;
            }
            let keep: Vec<usize> =
                (0..scan.cols.len()).filter(|&i| is_needed(&scan.cols[i])).collect();
            if keep.len() < scan.cols.len() {
                scan.emit = Some(keep);
            }
        }
    }

    // Column-batch metadata: record which positions of each scan's layout
    // a vectorized interpretation touches — the emitted columns plus the
    // pushed filter's references. Computed after pruning so `emit` is
    // final.
    for scan in &mut scans {
        let mut read: BTreeSet<usize> = match &scan.emit {
            Some(keep) => keep.iter().copied().collect(),
            None => (0..scan.cols.len()).collect(),
        };
        if let Some(f) = &scan.filter {
            let mut refs = Vec::new();
            column_refs(f, &mut refs);
            for (qual, name) in &refs {
                if let Some(i) = crate::exec::resolve_cols(&scan.cols, qual.as_ref(), name) {
                    read.insert(i);
                }
            }
        }
        scan.cols_read = read.into_iter().collect();
    }

    // Final (post-pruning) layouts: resolve join-key positions and the
    // projection once, against exactly the columns the executor will
    // materialize.
    let eff_cols: Vec<Vec<FrameCol>> = scans.iter().map(ScanNode::out_cols).collect();
    let mut layout: Vec<FrameCol> = eff_cols.first().cloned().unwrap_or_default();
    for (k, step) in joins.iter_mut().enumerate() {
        let right = &eff_cols[k + 1];
        step.key_idx = step.key.as_ref().and_then(|(lk, rk)| {
            let li = match lk {
                SqlExpr::Column { qualifier, name } => {
                    crate::exec::resolve_cols(&layout, qualifier.as_ref(), name)
                }
                _ => None,
            }?;
            let ri = match rk {
                SqlExpr::Column { qualifier, name } => {
                    crate::exec::resolve_cols(right, qualifier.as_ref(), name)
                }
                _ => None,
            }?;
            Some((li, ri))
        });
        layout.extend(right.iter().cloned());
    }
    let projection = match &aggregate {
        // Post-aggregate, the frame layout is the operator's output —
        // resolve the rewritten select list against it, never the joined
        // layout.
        Some(agg) => resolve_projection(&columns, &agg.out_cols),
        None => match full_projection {
            Some(_) => resolve_projection(&q.columns, &layout),
            None => None,
        },
    };

    PhysicalPlan {
        scans,
        joins,
        residual: (!remaining.is_empty()).then(|| SqlExpr::conjoin(remaining)),
        aggregate,
        order_by,
        columns,
        distinct: q.distinct,
        limit: q.limit.clone(),
        offset: q.offset.clone(),
        reordered,
        hoisted_subqueries,
        sort_elided,
        projection,
    }
}

/// Statically resolves a select list against a column layout (`columns`
/// empty = `SELECT *`, all non-rowid columns); `None` when any item needs
/// runtime resolution.
fn resolve_projection(
    columns: &[SelectItem],
    layout: &[FrameCol],
) -> Option<(Vec<FrameCol>, Vec<usize>)> {
    if columns.is_empty() {
        let mut out_cols = Vec::new();
        let mut out_idx = Vec::new();
        for (i, c) in layout.iter().enumerate() {
            if c.name.as_str() != "rowid" {
                out_cols.push(c.clone());
                out_idx.push(i);
            }
        }
        return Some((out_cols, out_idx));
    }
    columns
        .iter()
        .map(|item| match &item.expr {
            SqlExpr::Column { qualifier, name } => {
                let i = crate::exec::resolve_cols(layout, qualifier.as_ref(), name)?;
                Some((
                    FrameCol {
                        alias: item.alias.clone().unwrap_or_else(|| layout[i].alias.clone()),
                        name: item.alias.clone().unwrap_or_else(|| name.clone()),
                    },
                    i,
                ))
            }
            _ => None,
        })
        .collect::<Option<Vec<(FrameCol, usize)>>>()
        .map(|pairs| pairs.into_iter().unzip())
}

/// Collects every column reference of an expression (qualifier and name).
/// Predicate sub-queries contribute only their probe expressions — their
/// bodies resolve inside their own plans.
fn column_refs(e: &SqlExpr, out: &mut Vec<(Option<Ident>, Ident)>) {
    match e {
        SqlExpr::Column { qualifier, name } => out.push((qualifier.clone(), name.clone())),
        SqlExpr::Lit(_) | SqlExpr::Param(_) => {}
        SqlExpr::Cmp(a, _, b) => {
            column_refs(a, out);
            column_refs(b, out);
        }
        SqlExpr::And(ps) | SqlExpr::Or(ps) => ps.iter().for_each(|p| column_refs(p, out)),
        SqlExpr::Not(x) => column_refs(x, out),
        SqlExpr::InSubquery(x, _) => column_refs(x, out),
        SqlExpr::RowInSubquery(xs, _) => xs.iter().for_each(|x| column_refs(x, out)),
        SqlExpr::Agg { arg, .. } => {
            if let Some(a) = arg {
                column_refs(a, out);
            }
        }
    }
}

/// Collects the distinct aggregate expressions of `e`, in first-appearance
/// order — the order that fixes each aggregate's `#agg<i>` output column.
fn collect_aggs(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
    match e {
        SqlExpr::Agg { .. } if !out.contains(e) => {
            out.push(e.clone());
        }
        SqlExpr::Agg { .. } => {}
        SqlExpr::Cmp(a, _, b) => {
            collect_aggs(a, out);
            collect_aggs(b, out);
        }
        SqlExpr::And(ps) | SqlExpr::Or(ps) => ps.iter().for_each(|p| collect_aggs(p, out)),
        SqlExpr::Not(x) => collect_aggs(x, out),
        _ => {}
    }
}

/// Rewrites every aggregate sub-expression to its `#agg<i>` output column
/// (positions taken from `aggs`, the [`collect_aggs`] order) — how HAVING
/// and the select list become ordinary expressions over the grouped frame.
fn rewrite_aggs(e: &SqlExpr, aggs: &[SqlExpr]) -> SqlExpr {
    if let Some(i) = aggs.iter().position(|a| a == e) {
        return SqlExpr::col(format!("#agg{i}"));
    }
    match e {
        SqlExpr::Cmp(a, op, b) => {
            SqlExpr::Cmp(Box::new(rewrite_aggs(a, aggs)), *op, Box::new(rewrite_aggs(b, aggs)))
        }
        SqlExpr::And(ps) => SqlExpr::And(ps.iter().map(|p| rewrite_aggs(p, aggs)).collect()),
        SqlExpr::Or(ps) => SqlExpr::Or(ps.iter().map(|p| rewrite_aggs(p, aggs)).collect()),
        SqlExpr::Not(x) => SqlExpr::Not(Box::new(rewrite_aggs(x, aggs))),
        other => other.clone(),
    }
}

/// Greedy join order: start from the smallest estimated scan, then
/// repeatedly append the smallest scan that is equi-connected to the set
/// already joined (falling back to the smallest remaining scan when nothing
/// connects — a cross product either way). Ties keep `FROM` order.
fn greedy_order(nodes: &[ScanNode], conjuncts: &[SqlExpr]) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..nodes.len()).collect();
    let mut order = Vec::with_capacity(nodes.len());
    let smallest = |cands: &[usize]| -> usize {
        *cands
            .iter()
            .min_by_key(|&&i| (nodes[i].estimated_rows, i))
            .expect("candidate set is non-empty")
    };
    let first = smallest(&remaining);
    remaining.retain(|&i| i != first);
    order.push(first);
    let mut joined: BTreeSet<Ident> = BTreeSet::new();
    joined.insert(nodes[first].alias.clone());
    while !remaining.is_empty() {
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                let mut right = BTreeSet::new();
                right.insert(nodes[i].alias.clone());
                conjuncts.iter().any(|c| equi_join_keys(c, &joined, &right).is_some())
            })
            .collect();
        let next =
            if connected.is_empty() { smallest(&remaining) } else { smallest(&connected) };
        remaining.retain(|&i| i != next);
        joined.insert(nodes[next].alias.clone());
        order.push(next);
    }
    order
}

/// Plans with the default configuration (no reordering — the TOR axiom
/// order is preserved exactly).
pub fn plan(q: &SqlSelect, db: &crate::Database) -> PhysicalPlan {
    plan_with(q, db, &PlanConfig::default())
}

/// Computes the plan summary for a query against the given database — a
/// rendering of the *same* [`PhysicalPlan`] that
/// [`Database::execute_select`](crate::Database::execute_select) interprets.
pub fn explain(q: &SqlSelect, db: &crate::Database) -> Plan {
    plan(q, db).summary()
}

/// [`explain`] under a non-default [`PlanConfig`].
pub fn explain_with(q: &SqlSelect, db: &crate::Database, config: &PlanConfig) -> Plan {
    plan_with(q, db, config).summary()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting_flattens() {
        let e = SqlExpr::And(vec![
            SqlExpr::cmp(SqlExpr::col("a"), CmpOp::Eq, SqlExpr::int(1)),
            SqlExpr::And(vec![SqlExpr::cmp(SqlExpr::col("b"), CmpOp::Gt, SqlExpr::int(2))]),
        ]);
        assert_eq!(conjuncts(&e).len(), 2);
    }

    #[test]
    fn equi_join_detection_both_orientations() {
        let mut l = BTreeSet::new();
        l.insert(Ident::new("u"));
        let mut r = BTreeSet::new();
        r.insert(Ident::new("r"));
        let e = SqlExpr::cmp(SqlExpr::qcol("u", "k"), CmpOp::Eq, SqlExpr::qcol("r", "k"));
        assert!(equi_join_keys(&e, &l, &r).is_some());
        let flipped = SqlExpr::cmp(SqlExpr::qcol("r", "k"), CmpOp::Eq, SqlExpr::qcol("u", "k"));
        let (lk, _) = equi_join_keys(&flipped, &l, &r).unwrap();
        assert_eq!(lk, SqlExpr::qcol("u", "k"));
        // Non-equality is not an equi-join.
        let lt = SqlExpr::cmp(SqlExpr::qcol("u", "k"), CmpOp::Lt, SqlExpr::qcol("r", "k"));
        assert!(equi_join_keys(&lt, &l, &r).is_none());
    }

    #[test]
    fn index_eq_recognizes_literal_and_param() {
        let alias = Ident::new("t");
        let e = SqlExpr::cmp(SqlExpr::qcol("t", "id"), CmpOp::Eq, SqlExpr::int(5));
        assert!(index_eq(&e, &alias).is_some());
        let p = SqlExpr::cmp(SqlExpr::Param("uid".into()), CmpOp::Eq, SqlExpr::qcol("t", "id"));
        assert!(index_eq(&p, &alias).is_some());
        let col2 = SqlExpr::cmp(SqlExpr::qcol("t", "id"), CmpOp::Eq, SqlExpr::qcol("t", "x"));
        assert!(index_eq(&col2, &alias).is_none());
    }

    #[test]
    fn reorder_gate_requires_total_order_or_multiset_semantics() {
        let mut q = qbs_sql::parse_query(
            "SELECT users.id FROM users, roles WHERE users.roleId = roles.roleId",
        )
        .unwrap();
        // No ORDER BY, no LIMIT: multiset comparison — reordering allowed.
        assert!(reorder_permitted(&q));
        // A non-total ORDER BY pins observable order: not allowed.
        q.order_by = vec![OrderKey { expr: SqlExpr::qcol("users", "id"), asc: true }];
        assert!(!reorder_permitted(&q));
        // Every alias's rowid in the ORDER BY makes the sort canonical.
        q.order_by = vec![
            OrderKey { expr: SqlExpr::qcol("users", "rowid"), asc: true },
            OrderKey { expr: SqlExpr::qcol("roles", "rowid"), asc: true },
        ];
        assert!(reorder_permitted(&q));
        // LIMIT without a total order is order-sensitive even for multisets.
        q.order_by.clear();
        q.limit = Some(SqlExpr::int(3));
        assert!(!reorder_permitted(&q));
        // So is OFFSET alone: it selects a positional window.
        q.limit = None;
        q.offset = Some(SqlExpr::int(2));
        assert!(!reorder_permitted(&q));
    }
}
