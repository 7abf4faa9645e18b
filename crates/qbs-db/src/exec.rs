//! Execution frames and order-preserving operators.

use qbs_common::{Ident, Value};
use qbs_sql::SqlExpr;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A column of an execution frame.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameCol {
    /// The table alias (or sub-query alias) the column came from.
    pub alias: Ident,
    /// Column name.
    pub name: Ident,
}

/// A batch of rows flowing between operators.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Column descriptors.
    pub cols: Vec<FrameCol>,
    /// Row data.
    pub rows: Vec<Vec<Value>>,
}

impl Frame {
    /// An empty frame with the given columns.
    pub fn new(cols: Vec<FrameCol>) -> Frame {
        Frame { cols, rows: Vec::new() }
    }

    /// Resolves a column reference to a position.
    pub fn resolve(&self, qualifier: Option<&Ident>, name: &Ident) -> Option<usize> {
        resolve_cols(&self.cols, qualifier, name)
    }
}

/// Resolves a column reference against a column layout: the unique
/// matching position, or `None` when the reference is unknown or
/// ambiguous. The planner uses this at plan time (join keys, projection)
/// and [`Frame::resolve`] delegates here, so both sides agree exactly.
pub(crate) fn resolve_cols(
    cols: &[FrameCol],
    qualifier: Option<&Ident>,
    name: &Ident,
) -> Option<usize> {
    let mut found = None;
    for (i, c) in cols.iter().enumerate() {
        let matches = c.name == *name
            && match qualifier {
                Some(q) => &c.alias == q,
                None => true,
            };
        if matches {
            if found.is_some() {
                return None; // ambiguous
            }
            found = Some(i);
        }
    }
    found
}

/// A row as seen by expression evaluation: either one materialized slice or
/// the logical concatenation of two slices — the latter lets joins evaluate
/// their predicate *before* cloning the combined row.
#[derive(Clone, Copy)]
pub(crate) enum RowRef<'a> {
    /// One contiguous row.
    Slice(&'a [Value]),
    /// `left ++ right` without materialization.
    Pair(&'a [Value], &'a [Value]),
}

impl<'a> RowRef<'a> {
    fn at(&self, i: usize) -> &'a Value {
        match self {
            RowRef::Slice(r) => &r[i],
            RowRef::Pair(l, r) => {
                if i < l.len() {
                    &l[i]
                } else {
                    &r[i - l.len()]
                }
            }
        }
    }
}

/// Execution counters for benchmarks and plan tests.
///
/// Equality compares the *counters* only: the wall-clock fields
/// ([`parse_ns`](Self::parse_ns), [`plan_ns`](Self::plan_ns),
/// [`exec_ns`](Self::exec_ns)) vary run to run and are excluded, so two
/// executions of the same plan over the same data still compare equal.
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Rows read from base tables.
    pub rows_scanned: usize,
    /// Row pairs compared by join operators.
    pub join_comparisons: usize,
    /// Join algorithms used by the top-level query, in execution order.
    pub joins: Vec<&'static str>,
    /// True when an index satisfied a selection of the top-level query.
    pub used_index: bool,
    /// Predicate sub-queries (`IN (SELECT …)`) actually executed; with the
    /// hoisting cache each distinct sub-query runs once per statement.
    pub subqueries_executed: usize,
    /// Predicate sub-query evaluations answered from the hoisting cache.
    pub subquery_cache_hits: usize,
    /// Executions that reused an already-computed [`PhysicalPlan`]
    /// (prepared statement or plan-cache hit) instead of planning afresh
    /// — always 0 on the plain `execute_*` paths, which plan per call.
    ///
    /// [`PhysicalPlan`]: crate::PhysicalPlan
    pub plan_cache_hits: usize,
    /// Executions that re-planned because a referenced table's generation
    /// counter moved since the plan was computed (inserts, index builds).
    pub replans: usize,
    /// Wall-clock time spent parsing SQL text for this call — non-zero
    /// only on paths that parse (a `query_cached` miss); prepared
    /// statements parse once, at prepare time.
    pub parse_ns: u64,
    /// Wall-clock time spent planning (or resolving a cached plan) for
    /// this call.
    pub plan_ns: u64,
    /// Wall-clock time spent running the plan for this call.
    pub exec_ns: u64,
}

impl PartialEq for ExecStats {
    fn eq(&self, other: &ExecStats) -> bool {
        // Timing fields are deliberately excluded — see the type docs.
        self.rows_scanned == other.rows_scanned
            && self.join_comparisons == other.join_comparisons
            && self.joins == other.joins
            && self.used_index == other.used_index
            && self.subqueries_executed == other.subqueries_executed
            && self.subquery_cache_hits == other.subquery_cache_hits
            && self.plan_cache_hits == other.plan_cache_hits
            && self.replans == other.replans
    }
}

impl ExecStats {
    /// Folds the base-table and sub-query counters of `other` into `self`.
    /// `joins` and `used_index` are *not* merged: they describe the
    /// top-level statement, not its nested sub-queries.
    pub(crate) fn absorb_nested(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.join_comparisons += other.join_comparisons;
        self.subqueries_executed += other.subqueries_executed;
        self.subquery_cache_hits += other.subquery_cache_hits;
    }
}

/// Errors raised during execution.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecError {
    /// Description.
    pub message: String,
}

impl ExecError {
    pub(crate) fn new(m: impl Into<String>) -> ExecError {
        ExecError { message: m.into() }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution error: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

/// The hoisted result of one uncorrelated predicate sub-query: the rows in
/// execution order plus hash sets for O(1) membership probes.
pub(crate) struct SubResult {
    /// First-column values (what `x IN (SELECT …)` probes).
    firsts: HashSet<Value>,
    /// Whole rows (what `(x, y) IN (SELECT …)` probes).
    rowset: HashSet<Vec<Value>>,
}

impl SubResult {
    pub(crate) fn from_frame(frame: Frame) -> SubResult {
        let firsts = frame.rows.iter().filter_map(|r| r.first().cloned()).collect();
        let rowset = frame.rows.into_iter().collect();
        SubResult { firsts, rowset }
    }
}

/// Evaluation context: bind parameters plus a callback resolving an
/// `IN (subquery)` to its hoisted [`SubResult`] (executed once, cached).
pub(crate) struct EvalCtx<'a> {
    pub params: &'a super::db::Params,
    pub subquery: &'a dyn Fn(&qbs_sql::SqlSelect) -> Result<Arc<SubResult>, ExecError>,
}

/// Evaluates a scalar SQL expression against one (possibly split) row.
pub(crate) fn eval_expr(
    e: &SqlExpr,
    frame: &Frame,
    row: RowRef<'_>,
    ctx: &EvalCtx<'_>,
) -> Result<Value, ExecError> {
    match e {
        SqlExpr::Column { qualifier, name } => frame
            .resolve(qualifier.as_ref(), name)
            .map(|i| row.at(i).clone())
            .ok_or_else(|| {
                ExecError::new(format!(
                    "unresolved column {}{name}",
                    qualifier.as_ref().map(|q| format!("{q}.")).unwrap_or_default()
                ))
            }),
        SqlExpr::Lit(v) => Ok(v.clone()),
        SqlExpr::Param(p) => ctx
            .params
            .get(p)
            .cloned()
            .ok_or_else(|| ExecError::new(format!("unbound parameter :{p}"))),
        SqlExpr::Cmp(a, op, b) => {
            let x = eval_expr(a, frame, row, ctx)?;
            let y = eval_expr(b, frame, row, ctx)?;
            Ok(Value::from(op.test(x.total_cmp(&y))))
        }
        SqlExpr::And(parts) => {
            for p in parts {
                if !truthy(&eval_expr(p, frame, row, ctx)?)? {
                    return Ok(Value::from(false));
                }
            }
            Ok(Value::from(true))
        }
        SqlExpr::Or(parts) => {
            for p in parts {
                if truthy(&eval_expr(p, frame, row, ctx)?)? {
                    return Ok(Value::from(true));
                }
            }
            Ok(Value::from(false))
        }
        SqlExpr::Not(x) => Ok(Value::from(!truthy(&eval_expr(x, frame, row, ctx)?)?)),
        SqlExpr::InSubquery(x, q) => {
            let v = eval_expr(x, frame, row, ctx)?;
            let sub = (ctx.subquery)(q)?;
            Ok(Value::from(sub.firsts.contains(&v)))
        }
        SqlExpr::RowInSubquery(xs, q) => {
            let vs = xs
                .iter()
                .map(|x| eval_expr(x, frame, row, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            let sub = (ctx.subquery)(q)?;
            Ok(Value::from(sub.rowset.contains(&vs)))
        }
        // Aggregates never evaluate against a single row: the planner
        // rewrites every aggregate reference to its hash-aggregate output
        // column before execution.
        SqlExpr::Agg { agg, .. } => {
            Err(ExecError::new(format!("aggregate {} outside a grouped context", agg.sql())))
        }
    }
}

pub(crate) fn truthy(v: &Value) -> Result<bool, ExecError> {
    v.as_bool().ok_or_else(|| ExecError::new(format!("expected boolean, got {v:?}")))
}

/// Order-preserving filter.
pub(crate) fn filter(
    frame: Frame,
    pred: &SqlExpr,
    ctx: &EvalCtx<'_>,
) -> Result<Frame, ExecError> {
    let shell = Frame::new(frame.cols.clone());
    let mut rows = Vec::new();
    for row in frame.rows {
        if truthy(&eval_expr(pred, &shell, RowRef::Slice(&row), ctx)?)? {
            rows.push(row);
        }
    }
    Ok(Frame { cols: frame.cols, rows })
}

/// Materializes one joined output row: the concatenated pair, or — when
/// the statement's projection is fused into this join — just the gathered
/// output columns, never building the full combined row.
fn emit_pair(
    l: &[Value],
    r: &[Value],
    emit: Option<&(Vec<FrameCol>, Vec<usize>)>,
) -> Vec<Value> {
    match emit {
        Some((_, idx)) => {
            let pair = RowRef::Pair(l, r);
            idx.iter().map(|&i| pair.at(i).clone()).collect()
        }
        None => {
            let mut combined = l.to_vec();
            combined.extend(r.iter().cloned());
            combined
        }
    }
}

/// The output layout of a join: the concatenated input columns, or the
/// fused projection's columns.
fn join_cols(
    left: &Frame,
    right: &Frame,
    emit: Option<&(Vec<FrameCol>, Vec<usize>)>,
) -> (Vec<FrameCol>, Frame) {
    let mut pair_cols = left.cols.clone();
    pair_cols.extend(right.cols.clone());
    let pair_frame = Frame::new(pair_cols.clone());
    let out = match emit {
        Some((cols, _)) => cols.clone(),
        None => pair_cols,
    };
    (out, pair_frame)
}

/// A join's layouts precomputed at plan-compile time: what [`join_cols`]
/// re-derives (three column-vector clones) on every execute. The bytecode
/// VM builds one per join step whenever both input layouts are
/// compile-time facts, and passes `None` otherwise.
#[derive(Debug)]
pub(crate) struct JoinLayout {
    /// The join's output columns (the concatenated pair, or the fused
    /// projection's columns).
    pub out: Vec<FrameCol>,
    /// The concatenated-pair shell frame residual predicates evaluate in.
    pub pair: Frame,
}

/// The (output columns, pair shell) for one join execution: borrowed from
/// the precomputed layout when one exists, otherwise derived from the
/// input frames exactly as before.
fn join_layout<'a>(
    left: &Frame,
    right: &Frame,
    emit: Option<&(Vec<FrameCol>, Vec<usize>)>,
    layout: Option<&'a JoinLayout>,
    computed: &'a mut Option<Frame>,
) -> (Vec<FrameCol>, &'a Frame) {
    match layout {
        Some(l) => (l.out.clone(), &l.pair),
        None => {
            let (out, pair) = join_cols(left, right, emit);
            (out, computed.insert(pair))
        }
    }
}

/// Nested-loop join: left-major order, right insertion order (the TOR `⋈`
/// axiom order). `O(n·m)`. The predicate is evaluated on a split row view,
/// so only matching pairs are ever materialized.
pub(crate) fn nested_loop_join(
    left: Frame,
    right: Frame,
    pred: Option<&SqlExpr>,
    emit: Option<&(Vec<FrameCol>, Vec<usize>)>,
    layout: Option<&JoinLayout>,
    ctx: &EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Frame, ExecError> {
    let mut computed = None;
    let (cols, pair_frame) = join_layout(&left, &right, emit, layout, &mut computed);
    let mut rows = Vec::new();
    for l in &left.rows {
        for r in &right.rows {
            stats.join_comparisons += 1;
            let keep = match pred {
                Some(p) => truthy(&eval_expr(p, pair_frame, RowRef::Pair(l, r), ctx)?)?,
                None => true,
            };
            if keep {
                rows.push(emit_pair(l, r, emit));
            }
        }
    }
    stats.joins.push("nested-loop");
    Ok(Frame { cols, rows })
}

/// A hash-join key: a column position resolved at plan time (the fast
/// path — direct row access, no per-row expression walk) or an arbitrary
/// key expression evaluated per row.
pub(crate) enum JoinKey<'a> {
    /// Key at a fixed column position of the input frame.
    Idx(usize),
    /// Key computed by evaluating an expression against each row.
    Expr(&'a SqlExpr),
}

/// Hash join on equality keys: builds on the right input (buckets keep right
/// insertion order), probes left rows in order — output order is identical
/// to the nested-loop join. `O(n + m)`.
#[allow(clippy::too_many_arguments)] // one call site; mirrors nested_loop_join
pub(crate) fn hash_join(
    left: Frame,
    right: Frame,
    left_key: JoinKey<'_>,
    right_key: JoinKey<'_>,
    residual: Option<&SqlExpr>,
    emit: Option<&(Vec<FrameCol>, Vec<usize>)>,
    layout: Option<&JoinLayout>,
    ctx: &EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Frame, ExecError> {
    let mut buckets: HashMap<Value, Vec<usize>> = HashMap::new();
    for (i, r) in right.rows.iter().enumerate() {
        let k = match &right_key {
            JoinKey::Idx(j) => r[*j].clone(),
            JoinKey::Expr(e) => eval_expr(e, &right, RowRef::Slice(r), ctx)?,
        };
        buckets.entry(k).or_default().push(i);
    }
    let mut computed = None;
    let (cols, pair_frame) = join_layout(&left, &right, emit, layout, &mut computed);
    let mut rows = Vec::new();
    for l in &left.rows {
        let probe_owned;
        let matches = match &left_key {
            JoinKey::Idx(j) => buckets.get(&l[*j]),
            JoinKey::Expr(e) => {
                probe_owned = eval_expr(e, &left, RowRef::Slice(l), ctx)?;
                buckets.get(&probe_owned)
            }
        };
        if let Some(matches) = matches {
            for &ri in matches {
                stats.join_comparisons += 1;
                let r = &right.rows[ri];
                let keep = match residual {
                    Some(p) => truthy(&eval_expr(p, pair_frame, RowRef::Pair(l, r), ctx)?)?,
                    None => true,
                };
                if keep {
                    rows.push(emit_pair(l, r, emit));
                }
            }
        }
    }
    stats.joins.push("hash");
    Ok(Frame { cols, rows })
}

/// Stable sort by keys (ascending/descending per key).
pub(crate) fn sort(
    frame: Frame,
    keys: &[(SqlExpr, bool)],
    ctx: &EvalCtx<'_>,
) -> Result<Frame, ExecError> {
    let shell = Frame::new(frame.cols.clone());
    let mut decorated: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(frame.rows.len());
    for row in frame.rows {
        let mut ks = Vec::with_capacity(keys.len());
        for (k, _) in keys {
            ks.push(eval_expr(k, &shell, RowRef::Slice(&row), ctx)?);
        }
        decorated.push((ks, row));
    }
    decorated.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, asc)) in keys.iter().enumerate() {
            let ord = ka[i].total_cmp(&kb[i]);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(Frame { cols: frame.cols, rows: decorated.into_iter().map(|(_, r)| r).collect() })
}

/// [`sort`] specialized to key positions resolved at plan-compile time:
/// the same stable order (`total_cmp` per key, ascending/descending) with
/// rows compared in place — no per-row key evaluation, cloning, or
/// decoration. The bytecode VM takes this path when every ORDER BY key is
/// a plain column it can resolve against the pre-sort layout.
pub(crate) fn sort_positions(mut frame: Frame, keys: &[(usize, bool)]) -> Frame {
    frame.rows.sort_by(|a, b| {
        for (pos, asc) in keys {
            let ord = a[*pos].total_cmp(&b[*pos]);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    frame
}

/// Grouped hash aggregation — the bytecode VM's `GROUP BY` operator. One
/// output row per distinct key tuple, in first-occurrence key order: the
/// TOR `Group` axiom order, which is also the iteration order of the
/// kernel's map-accumulator loops.
///
/// Runs in two columnar passes over the materialized input. Pass one
/// assigns each row a group id (keys resolve to column positions up
/// front; only a non-column key, never planned today, pays per-row
/// evaluation). Pass two transposes each aggregate's input column into a
/// typed `i64` vector and folds it group-wise against the id vector.
///
/// The error doctrine mirrors the scalar aggregates
/// ([`Database`](crate::Database) on a `SqlScalar`): a non-integer value
/// under `SUM`/`MIN`/`MAX` is a type error with the same message, and
/// `SUM` uses checked addition. But an empty *group* cannot exist — a key
/// only appears because a row carried it — so grouped `MIN`/`MAX` never
/// raise the empty-aggregate error; empty input yields zero groups.
pub(crate) fn hash_aggregate(
    frame: Frame,
    node: &crate::planner::AggregateNode,
    ctx: &EvalCtx<'_>,
) -> Result<Frame, ExecError> {
    use qbs_tor::AggKind;
    let shell = Frame::new(frame.cols.clone());
    let resolve_pos = |e: &SqlExpr| match e {
        SqlExpr::Column { qualifier, name } => frame.resolve(qualifier.as_ref(), name),
        _ => None,
    };
    // Pass 1: group ids in first-occurrence order. The single resolved
    // key — every planned `GROUP BY` today — probes the hash table with
    // the borrowed cell value, no per-row key vector or clone; compound
    // or computed keys take the general path.
    let key_pos: Vec<Option<usize>> = node.keys.iter().map(&resolve_pos).collect();
    let mut group_keys: Vec<Vec<Value>> = Vec::new();
    let mut gids: Vec<usize> = Vec::with_capacity(frame.rows.len());
    if let [Some(pos)] = key_pos[..] {
        let mut index: HashMap<&Value, usize> = HashMap::new();
        for row in &frame.rows {
            let next = group_keys.len();
            let gid = *index.entry(&row[pos]).or_insert(next);
            if gid == next {
                group_keys.push(vec![row[pos].clone()]);
            }
            gids.push(gid);
        }
    } else {
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        for row in &frame.rows {
            let mut key = Vec::with_capacity(node.keys.len());
            for (k, pos) in node.keys.iter().zip(&key_pos) {
                key.push(match pos {
                    Some(i) => row[*i].clone(),
                    None => eval_expr(k, &shell, RowRef::Slice(row), ctx)?,
                });
            }
            let gid = match index.get(&key) {
                Some(&g) => g,
                None => {
                    let g = group_keys.len();
                    index.insert(key.clone(), g);
                    group_keys.push(key);
                    g
                }
            };
            gids.push(gid);
        }
    }

    // Pass 2: fold each aggregate over (group id, input) pairs.
    let n = group_keys.len();
    let mut agg_cols: Vec<Vec<i64>> = Vec::with_capacity(node.aggs.len());
    for spec in &node.aggs {
        let col = match (&spec.agg, &spec.input) {
            // COUNT ignores its argument: rows carry no NULLs, so
            // `COUNT(c)` and `COUNT(*)` agree.
            (AggKind::Count, _) => {
                let mut counts = vec![0i64; n];
                for &g in &gids {
                    counts[g] += 1;
                }
                counts
            }
            (agg, None) => {
                return Err(ExecError::new(format!("{} requires an argument", agg.sql())))
            }
            (agg, Some(input)) => {
                // Transpose the input column into a typed vector — the
                // scalar aggregates' type doctrine, applied per value.
                let pos = resolve_pos(input);
                let int_of = |v: &Value| {
                    v.as_int().ok_or_else(|| {
                        ExecError::new(format!("{} over non-integer value {v:?}", agg.sql()))
                    })
                };
                let mut xs: Vec<i64> = Vec::with_capacity(frame.rows.len());
                for row in &frame.rows {
                    xs.push(match pos {
                        Some(i) => int_of(&row[i])?,
                        None => int_of(&eval_expr(input, &shell, RowRef::Slice(row), ctx)?)?,
                    });
                }
                match agg {
                    AggKind::Sum => {
                        let mut acc = vec![0i64; n];
                        for (&g, &x) in gids.iter().zip(&xs) {
                            acc[g] = acc[g]
                                .checked_add(x)
                                .ok_or_else(|| ExecError::new("SUM overflows i64"))?;
                        }
                        acc
                    }
                    AggKind::Min => fold_extremum(&gids, &xs, n, i64::min),
                    AggKind::Max => fold_extremum(&gids, &xs, n, i64::max),
                    AggKind::Count => unreachable!("COUNT handled above"),
                }
            }
        };
        agg_cols.push(col);
    }

    let mut rows = Vec::with_capacity(n);
    for (g, key) in group_keys.into_iter().enumerate() {
        let mut row = key;
        row.extend(agg_cols.iter().map(|c| Value::from(c[g])));
        rows.push(row);
    }
    Ok(Frame { cols: node.out_cols.clone(), rows })
}

/// Group-wise `MIN`/`MAX` fold. Every group has at least one row (its key
/// came from one), so the per-group accumulator always initializes.
fn fold_extremum(gids: &[usize], xs: &[i64], n: usize, pick: fn(i64, i64) -> i64) -> Vec<i64> {
    let mut acc: Vec<Option<i64>> = vec![None; n];
    for (&g, &x) in gids.iter().zip(xs) {
        acc[g] = Some(match acc[g] {
            None => x,
            Some(a) => pick(a, x),
        });
    }
    acc.into_iter().map(|a| a.expect("group has at least one row")).collect()
}

/// First-occurrence duplicate elimination (preserves order) — hash-set
/// membership, `O(n)` expected instead of the old `O(n²)` linear scan.
pub(crate) fn distinct(frame: Frame) -> Frame {
    let mut seen: HashSet<Vec<Value>> = HashSet::with_capacity(frame.rows.len());
    let mut rows = Vec::with_capacity(frame.rows.len());
    for r in frame.rows {
        if !seen.contains(&r) {
            seen.insert(r.clone());
            rows.push(r);
        }
    }
    Frame { cols: frame.cols, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_tor::CmpOp;

    fn fc(alias: &str, name: &str) -> FrameCol {
        FrameCol { alias: alias.into(), name: name.into() }
    }

    fn ctx<'a>(params: &'a super::super::db::Params) -> EvalCtx<'a> {
        EvalCtx { params, subquery: &|_| Err(ExecError::new("no subqueries in this test")) }
    }

    fn two_frames() -> (Frame, Frame) {
        let left = Frame {
            cols: vec![fc("l", "k"), fc("l", "x")],
            rows: vec![
                vec![1.into(), 10.into()],
                vec![2.into(), 20.into()],
                vec![1.into(), 30.into()],
            ],
        };
        let right = Frame {
            cols: vec![fc("r", "k"), fc("r", "y")],
            rows: vec![
                vec![1.into(), 100.into()],
                vec![1.into(), 200.into()],
                vec![3.into(), 300.into()],
            ],
        };
        (left, right)
    }

    #[test]
    fn hash_join_order_matches_nested_loop() {
        let params = super::super::db::Params::new();
        let c = ctx(&params);
        let (l, r) = two_frames();
        let pred = SqlExpr::cmp(SqlExpr::qcol("l", "k"), CmpOp::Eq, SqlExpr::qcol("r", "k"));
        let mut s1 = ExecStats::default();
        let nl = nested_loop_join(l.clone(), r.clone(), Some(&pred), None, None, &c, &mut s1)
            .unwrap();
        let mut s2 = ExecStats::default();
        let lk = SqlExpr::qcol("l", "k");
        let rk = SqlExpr::qcol("r", "k");
        let hj = hash_join(
            l.clone(),
            r.clone(),
            JoinKey::Expr(&lk),
            JoinKey::Expr(&rk),
            None,
            None,
            None,
            &c,
            &mut s2,
        )
        .unwrap();
        assert_eq!(nl.rows, hj.rows, "hash join must preserve the axiom order");
        assert_eq!(nl.rows.len(), 4);
        // Hash join does asymptotically less work.
        assert!(s2.join_comparisons < s1.join_comparisons);
        // Plan-resolved key positions take the same path to the same rows.
        let mut s3 = ExecStats::default();
        let by_idx =
            hash_join(l, r, JoinKey::Idx(0), JoinKey::Idx(0), None, None, None, &c, &mut s3)
                .unwrap();
        assert_eq!(by_idx.rows, hj.rows);
        assert_eq!(s3.join_comparisons, s2.join_comparisons);
    }

    #[test]
    fn distinct_keeps_first_occurrence() {
        let f = Frame {
            cols: vec![fc("t", "a")],
            rows: vec![vec![1.into()], vec![2.into()], vec![1.into()]],
        };
        let d = distinct(f);
        assert_eq!(d.rows, vec![vec![Value::from(1)], vec![Value::from(2)]]);
    }

    #[test]
    fn sort_is_stable_and_supports_desc() {
        let params = super::super::db::Params::new();
        let c = ctx(&params);
        let f = Frame {
            cols: vec![fc("t", "a"), fc("t", "b")],
            rows: vec![
                vec![1.into(), 1.into()],
                vec![2.into(), 2.into()],
                vec![1.into(), 3.into()],
            ],
        };
        let sorted = sort(f, &[(SqlExpr::qcol("t", "a"), false)], &c).unwrap();
        assert_eq!(sorted.rows[0][0], Value::from(2));
        // Equal keys keep input order (b = 1 before b = 3).
        assert_eq!(sorted.rows[1][1], Value::from(1));
        assert_eq!(sorted.rows[2][1], Value::from(3));
    }

    #[test]
    fn ambiguous_column_is_detected() {
        let f = Frame { cols: vec![fc("a", "k"), fc("b", "k")], rows: vec![] };
        assert_eq!(f.resolve(None, &"k".into()), None);
        assert_eq!(f.resolve(Some(&"a".into()), &"k".into()), Some(0));
    }

    #[test]
    fn split_row_view_resolves_across_the_seam() {
        let params = super::super::db::Params::new();
        let c = ctx(&params);
        let frame =
            Frame { cols: vec![fc("l", "k"), fc("l", "x"), fc("r", "y")], rows: vec![] };
        let l: Vec<Value> = vec![1.into(), 2.into()];
        let r: Vec<Value> = vec![3.into()];
        let e = SqlExpr::cmp(SqlExpr::qcol("r", "y"), CmpOp::Gt, SqlExpr::qcol("l", "x"));
        let v = eval_expr(&e, &frame, RowRef::Pair(&l, &r), &c).unwrap();
        assert_eq!(v, Value::from(true));
    }
}
