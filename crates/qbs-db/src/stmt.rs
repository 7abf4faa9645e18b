//! Prepared statements: parse and plan a query **once**, execute it many
//! times with typed bind parameters.
//!
//! A [`PreparedStatement`] is created by
//! [`Connection::prepare`](crate::Connection::prepare) and carries
//!
//! * the parsed [`SqlQuery`] and its canonical rendering under the
//!   connection's [`Dialect`] (placeholders spelled per the dialect's
//!   [`ParamStyle`](qbs_sql::ParamStyle): `:name`, `$1`, or `?`);
//! * the [`PhysicalPlan`] of its relational core, computed at prepare
//!   time;
//! * a generation snapshot of every referenced table, so executing after
//!   an insert or index build transparently replans; and
//! * typed parameter slots inferred from the schema, so binding an
//!   integer where the column is a string fails at bind time — without
//!   re-planning.

use crate::db::{Database, DbError, Params};
use crate::planner::{plan_with, PhysicalPlan, PlanConfig};
use qbs_common::{FieldType, Ident, SchemaRef, Value};
use qbs_sql::{
    render_query_bound, render_query_with_params, Dialect, FromItem, SqlExpr, SqlQuery,
    SqlSelect,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One typed bind-parameter slot of a prepared statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamSlot {
    /// Parameter name (named style) or its positional synthetic name.
    pub name: Ident,
    /// Schema-inferred value type; `None` when the parameter's use site
    /// does not pin a type (any value binds).
    pub ty: Option<FieldType>,
}

/// Generation counters of the tables a statement reads, at plan time.
/// `None` records a table that did not exist — creating it later is a
/// change like any other.
pub(crate) type Snapshot = Vec<(Ident, Option<u64>)>;

pub(crate) fn snapshot(db: &Database, tables: &BTreeSet<Ident>) -> Snapshot {
    tables.iter().map(|t| (t.clone(), db.table(t).map(|t| t.generation()))).collect()
}

/// A statement's plan together with the generation snapshot it was
/// computed against — one value behind one lock, so a concurrent replan
/// can never pair a new plan with an old snapshot (or vice versa).
///
/// The compiled bytecode program rides in the same value: it is compiled
/// lazily from `plan` on the first execution (`None` inside the cell
/// records "the VM declined this shape" so the interpreter is used
/// without re-attempting compilation), and because a replan replaces the
/// whole `PlanState`, the program can never outlive the plan it was
/// compiled from — the same generation counters invalidate both.
#[derive(Debug)]
pub(crate) struct PlanState {
    pub(crate) plan: Arc<PhysicalPlan>,
    pub(crate) snapshot: Snapshot,
    pub(crate) program: OnceLock<Option<Arc<crate::vm::PlanProgram>>>,
}

impl PlanState {
    pub(crate) fn new(plan: Arc<PhysicalPlan>, snapshot: Snapshot) -> PlanState {
        PlanState { plan, snapshot, program: OnceLock::new() }
    }
}

/// Hashes the statement's canonical text together with the planner
/// configuration — the key of the connection's plan cache.
pub(crate) fn fingerprint(canonical: &str, config: &PlanConfig) -> u64 {
    let mut h = DefaultHasher::new();
    canonical.hash(&mut h);
    config.reorder_joins.hash(&mut h);
    config.force_row_store.hash(&mut h);
    config.force_interpreter.hash(&mut h);
    h.finish()
}

/// A query prepared on a [`Connection`](crate::Connection): planned once,
/// executable many times.
///
/// # Example
///
/// ```
/// use qbs_common::{FieldType, Schema, Value};
/// use qbs_db::{Connection, Database, QueryOutput};
///
/// let mut db = Database::new();
/// db.create_table(
///     Schema::builder("users")
///         .field("id", FieldType::Int)
///         .field("roleId", FieldType::Int)
///         .finish(),
/// )
/// .unwrap();
/// db.insert("users", vec![Value::from(1), Value::from(10)]).unwrap();
/// db.insert("users", vec![Value::from(2), Value::from(20)]).unwrap();
///
/// let conn = Connection::open(db);
/// let stmt = conn.prepare("SELECT id FROM users WHERE roleId = :r").unwrap();
/// for (role, expect) in [(10, 1), (20, 1), (99, 0)] {
///     let params = stmt.bind().set("r", role).unwrap().finish().unwrap();
///     let QueryOutput::Rows(out) = conn.execute(&stmt, &params).unwrap() else {
///         unreachable!()
///     };
///     assert_eq!(out.rows.len(), expect);
///     // Executions after the first never re-plan.
///     assert_eq!(out.stats.plan_cache_hits, 1);
/// }
/// ```
#[derive(Debug)]
pub struct PreparedStatement {
    query: SqlQuery,
    /// The relational core the plan covers (the select itself, or the
    /// aggregate input of a scalar query).
    pub(crate) core: SqlSelect,
    text: String,
    param_order: Vec<Ident>,
    slots: Vec<ParamSlot>,
    dialect: Dialect,
    pub(crate) fingerprint: u64,
    pub(crate) tables: BTreeSet<Ident>,
    pub(crate) current: Mutex<PlanState>,
    /// The result schema, sniffed once from a row-bearing execution —
    /// identical across executions since value types come from the table
    /// schemas (survives replans: inserts and index builds cannot change
    /// the output layout).
    pub(crate) out_schema: OnceLock<SchemaRef>,
}

impl PreparedStatement {
    /// Assembles a statement from the pieces the connection already
    /// computed during planning (`core`, `fingerprint`, `tables`,
    /// `snapshot`) — nothing is re-derived here beyond the dialect
    /// rendering and slot typing.
    #[allow(clippy::too_many_arguments)] // one call site, in Connection::prepare_query_as
    pub(crate) fn new(
        db: &Database,
        query: SqlQuery,
        core: SqlSelect,
        fingerprint: u64,
        tables: BTreeSet<Ident>,
        snapshot: Snapshot,
        dialect: Dialect,
        plan: Arc<PhysicalPlan>,
    ) -> PreparedStatement {
        let (text, param_order) = render_query_with_params(&query, dialect);
        PreparedStatement {
            slots: infer_slots(db, &query),
            fingerprint,
            core,
            text,
            param_order,
            dialect,
            current: Mutex::new(PlanState::new(plan, snapshot)),
            out_schema: OnceLock::new(),
            tables,
            query,
        }
    }

    /// Locks the current plan/snapshot pair. Poisoning is survivable: the
    /// state is only ever *replaced whole*, so a panic elsewhere cannot
    /// leave it half-written.
    pub(crate) fn lock_current(&self) -> MutexGuard<'_, PlanState> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The parsed query.
    pub fn query(&self) -> &SqlQuery {
        &self.query
    }

    /// The statement text under its dialect — placeholders included
    /// (what a driver would send to the backend).
    pub fn sql(&self) -> &str {
        &self.text
    }

    /// The dialect the statement renders under.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// The bind order of [`sql`](PreparedStatement::sql)'s placeholders:
    /// one entry per distinct parameter for `$n` styles, one per
    /// occurrence for `:name`/`?` styles (see
    /// [`qbs_sql::render_query_with_params`]).
    pub fn param_order(&self) -> &[Ident] {
        &self.param_order
    }

    /// The typed parameter slots, one per distinct parameter, in
    /// first-appearance order.
    pub fn slots(&self) -> &[ParamSlot] {
        &self.slots
    }

    /// The current physical plan (replaced in place when execution
    /// detects a stale generation snapshot).
    pub fn plan(&self) -> Arc<PhysicalPlan> {
        self.lock_current().plan.clone()
    }

    /// Renders the statement's current plan tree — the `EXPLAIN` form,
    /// estimates only. See
    /// [`Connection::explain_analyze`](crate::Connection::explain_analyze)
    /// for the same tree annotated with per-operator actuals.
    pub fn explain(&self) -> String {
        self.lock_current().plan.to_string()
    }

    /// Starts a typed binding for one execution.
    pub fn bind(&self) -> Binder<'_> {
        Binder { stmt: self, params: Params::new(), next: 0 }
    }

    /// Checks a parameter map against the statement's typed slots.
    /// Bindings that are not slots of this statement are ignored (like
    /// [`Database::execute`]) — callers such as the differential oracle
    /// bind one map for both the kernel interpreter and the SQL side;
    /// [`Binder::set`] is the strict, typo-catching path.
    ///
    /// # Errors
    ///
    /// [`DbError::Param`] when a slot is unbound or a value's type
    /// contradicts the inferred slot type.
    pub fn validate(&self, params: &Params) -> Result<(), DbError> {
        for slot in &self.slots {
            let value = params.get(&slot.name).ok_or_else(|| {
                DbError::Param(format!("parameter `{}` is not bound", slot.name))
            })?;
            check_type(&slot.name, slot.ty, value)?;
        }
        Ok(())
    }

    /// Renders the statement with `params` inlined as literals under its
    /// dialect — the fully-bound text, validated against the slots first.
    ///
    /// # Errors
    ///
    /// [`DbError::Param`] exactly as [`validate`](Self::validate).
    pub fn render_bound(&self, params: &Params) -> Result<String, DbError> {
        self.validate(params)?;
        Ok(render_query_bound(&self.query, self.dialect, params).0)
    }
}

/// A typed parameter binding in progress — see [`PreparedStatement::bind`].
#[derive(Debug)]
pub struct Binder<'s> {
    stmt: &'s PreparedStatement,
    params: Params,
    next: usize,
}

impl Binder<'_> {
    /// Binds a parameter by name, type-checked against its slot.
    ///
    /// # Errors
    ///
    /// [`DbError::Param`] on an unknown name or a type mismatch.
    pub fn set(
        mut self,
        name: impl Into<Ident>,
        value: impl Into<Value>,
    ) -> Result<Self, DbError> {
        let name = name.into();
        let slot = self
            .stmt
            .slots
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| DbError::Param(format!("`{name}` is not a parameter")))?;
        let value = value.into();
        check_type(&name, slot.ty, &value)?;
        self.params.insert(name, value);
        Ok(self)
    }

    /// Binds the next unbound slot positionally (slot order = first
    /// appearance in the statement), type-checked.
    ///
    /// # Errors
    ///
    /// [`DbError::Param`] when every slot is already bound or the value's
    /// type contradicts the slot.
    pub fn value(mut self, value: impl Into<Value>) -> Result<Self, DbError> {
        let slot = self.stmt.slots.get(self.next).ok_or_else(|| {
            DbError::Param(format!(
                "statement has {} parameter(s), all bound",
                self.stmt.slots.len()
            ))
        })?;
        let value = value.into();
        check_type(&slot.name, slot.ty, &value)?;
        self.params.insert(slot.name.clone(), value);
        self.next += 1;
        Ok(self)
    }

    /// Finishes the binding, checking that every slot is bound.
    ///
    /// # Errors
    ///
    /// [`DbError::Param`] when a slot is still unbound.
    pub fn finish(self) -> Result<Params, DbError> {
        self.stmt.validate(&self.params)?;
        Ok(self.params)
    }
}

fn check_type(name: &Ident, expected: Option<FieldType>, value: &Value) -> Result<(), DbError> {
    let Some(ty) = expected else { return Ok(()) };
    let ok = matches!(
        (value, ty),
        (Value::Bool(_), FieldType::Bool)
            | (Value::Int(_), FieldType::Int)
            | (Value::Str(_), FieldType::Str)
    );
    if ok {
        Ok(())
    } else {
        Err(DbError::Param(format!("parameter `{name}` expects {ty:?}, got {value:?}")))
    }
}

/// Best-effort slot typing: a parameter compared against a column takes
/// that column's schema type; `LIMIT :n`/`OFFSET :n` and scalar comparisons take
/// `Int`; anything else stays untyped. Conflicting uses keep the first
/// inferred type (the contradiction will fail one comparison at run time
/// regardless).
fn infer_slots(db: &Database, query: &SqlQuery) -> Vec<ParamSlot> {
    let mut slots: Vec<ParamSlot> = Vec::new();
    let mut note = |name: &Ident, ty: Option<FieldType>| match slots
        .iter_mut()
        .find(|s| &s.name == name)
    {
        Some(slot) => {
            if slot.ty.is_none() {
                slot.ty = ty;
            }
        }
        None => slots.push(ParamSlot { name: name.clone(), ty }),
    };

    fn column_type(
        db: &Database,
        aliases: &BTreeMap<Ident, Ident>,
        single: Option<&Ident>,
        qualifier: Option<&Ident>,
        name: &Ident,
    ) -> Option<FieldType> {
        if name.as_str() == "rowid" {
            return Some(FieldType::Int);
        }
        let table = match qualifier {
            Some(q) => aliases.get(q)?,
            None => single?,
        };
        db.table(table)?.schema().fields().iter().find(|f| &f.name == name).map(|f| f.ty)
    }

    fn walk_expr(
        db: &Database,
        aliases: &BTreeMap<Ident, Ident>,
        single: Option<&Ident>,
        e: &SqlExpr,
        note: &mut dyn FnMut(&Ident, Option<FieldType>),
    ) {
        match e {
            SqlExpr::Param(p) => note(p, None),
            SqlExpr::Cmp(a, _, b) => match (&**a, &**b) {
                (SqlExpr::Param(p), SqlExpr::Column { qualifier, name })
                | (SqlExpr::Column { qualifier, name }, SqlExpr::Param(p)) => {
                    note(p, column_type(db, aliases, single, qualifier.as_ref(), name));
                }
                _ => {
                    walk_expr(db, aliases, single, a, note);
                    walk_expr(db, aliases, single, b, note);
                }
            },
            SqlExpr::And(ps) | SqlExpr::Or(ps) => {
                ps.iter().for_each(|p| walk_expr(db, aliases, single, p, note));
            }
            SqlExpr::Not(x) => walk_expr(db, aliases, single, x, note),
            SqlExpr::InSubquery(x, q) => {
                walk_expr(db, aliases, single, x, note);
                walk_select(db, q, note);
            }
            SqlExpr::RowInSubquery(xs, q) => {
                xs.iter().for_each(|x| walk_expr(db, aliases, single, x, note));
                walk_select(db, q, note);
            }
            SqlExpr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    walk_expr(db, aliases, single, a, note);
                }
            }
            SqlExpr::Column { .. } | SqlExpr::Lit(_) => {}
        }
    }

    fn walk_select(
        db: &Database,
        q: &SqlSelect,
        note: &mut dyn FnMut(&Ident, Option<FieldType>),
    ) {
        let mut aliases = BTreeMap::new();
        for f in &q.from {
            match f {
                FromItem::Table { name, alias } => {
                    aliases.insert(alias.clone(), name.clone());
                }
                FromItem::Subquery { query, .. } => walk_select(db, query, note),
            }
        }
        let single = match q.from.as_slice() {
            [FromItem::Table { name, .. }] => Some(name.clone()),
            _ => None,
        };
        for item in &q.columns {
            walk_expr(db, &aliases, single.as_ref(), &item.expr, note);
        }
        if let Some(w) = &q.where_clause {
            walk_expr(db, &aliases, single.as_ref(), w, note);
        }
        for k in &q.group_by {
            walk_expr(db, &aliases, single.as_ref(), k, note);
        }
        if let Some(h) = &q.having {
            walk_expr(db, &aliases, single.as_ref(), h, note);
        }
        for k in &q.order_by {
            walk_expr(db, &aliases, single.as_ref(), &k.expr, note);
        }
        if let Some(SqlExpr::Param(p)) = &q.limit {
            note(p, Some(FieldType::Int));
        }
        if let Some(SqlExpr::Param(p)) = &q.offset {
            note(p, Some(FieldType::Int));
        }
    }

    match query {
        SqlQuery::Select(s) => walk_select(db, s, &mut note),
        SqlQuery::Scalar(s) => {
            walk_select(db, &s.query, &mut note);
            if let Some((_, SqlExpr::Param(p))) = &s.compare {
                note(p, Some(FieldType::Int));
            }
        }
    }
    slots
}

/// Re-plans the statement's core against `db` (the connection calls this
/// when a generation snapshot went stale).
pub(crate) fn replan(
    stmt: &PreparedStatement,
    db: &Database,
    config: &PlanConfig,
) -> Arc<PhysicalPlan> {
    Arc::new(plan_with(&stmt.core, db, config))
}
