//! The serving side (the paper's Fig. 14 axis): the statements a translate
//! pass produced are deployed on a populated database and then served by
//! one closed-loop client, in windows; after each window the original code
//! runs once and a fresh connection takes the cold page and, unless an
//! open-loop writer runs beside the reader, a few write batches.

use crate::spec::{build_db, DbSize, Frag, OrmPage, UNIVERSE_DB};
use crate::stats::median_of;
use crate::trace::record_child;
use crate::translate::Outcome;
use qbs::FragmentStatus;
use qbs_common::{Relation, Value};
use qbs_corpus::{aggregation_pageload, join_pageload, selection_pageload, Mode};
use qbs_db::{
    rows_diff, Connection, Database, Params, PreparedStatement, QueryOutput, RowsEquivalence,
};
use qbs_kernel::KernelProgram;
use qbs_obs::LocalSpans;
use qbs_oracle::{check_many, CheckOptions};
use qbs_sql::{Dialect, SqlQuery};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Rows per writer batch; all of them finished projects, so the selection
/// statement's result never changes while its table grows. Few, so that
/// the table grows by a sixth over a run and a sample's cost depends
/// little on when in the run it was taken.
const WRITE_BATCH_ROWS: usize = 2;

/// The operator a statement mostly exercises, read off its SQL text.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Sel,
    Join,
    Count,
    Group,
    TopK,
    InSub,
    Distinct,
}

impl Kind {
    fn of(sql: &SqlQuery, text: &str) -> Kind {
        let from = text.split_once(" FROM ").map_or("", |(_, rest)| rest);
        let tables =
            from.split(" WHERE ").next().unwrap_or("").split(" ORDER BY ").next().unwrap_or("");
        if matches!(sql, SqlQuery::Scalar(_)) {
            Kind::Count
        } else if text.contains(" GROUP BY ") {
            Kind::Group
        } else if text.contains(" LIMIT ") {
            Kind::TopK
        } else if text.contains(" IN (SELECT ") {
            Kind::InSub
        } else if tables.contains(", ") {
            Kind::Join
        } else if text.starts_with("SELECT DISTINCT ") {
            Kind::Distinct
        } else {
            Kind::Sel
        }
    }
}

/// One translated fragment as the serving side sees it.
pub struct Stmt<'a> {
    pub frag: &'a Frag,
    pub status: &'a FragmentStatus,
    pub sql: &'a SqlQuery,
    pub kernel: &'a KernelProgram,
    pub kind: Kind,
}

/// The translated fragments of a pass, in fragment order.
pub fn statements<'a>(fragments: &'a [Frag], outcomes: &'a [Outcome]) -> Vec<Stmt<'a>> {
    fragments
        .iter()
        .zip(outcomes)
        .filter_map(|(frag, o)| {
            let sql = o.status.sql()?;
            let kernel = o.kernel.as_ref()?;
            let kind = Kind::of(sql, &qbs_sql::render_query(sql, Dialect::Generic));
            Some(Stmt { frag, status: &o.status, sql, kernel, kind })
        })
        .collect()
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(note());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(20);
    }
}

enum Expected {
    Rows(Relation),
    Scalar(Value),
}

impl Expected {
    fn of(out: &QueryOutput) -> Expected {
        match out {
            QueryOutput::Rows(o) => Expected::Rows(o.rows.clone()),
            QueryOutput::Scalar { value, .. } => Expected::Scalar(value.clone()),
        }
    }

    /// `None` when `out` equals the expected output row for row.
    fn diff(&self, out: &QueryOutput) -> Option<String> {
        match (self, out) {
            (Expected::Rows(want), QueryOutput::Rows(got)) => {
                rows_diff(want, &got.rows, RowsEquivalence::Ordered).map(|d| d.to_string())
            }
            (Expected::Scalar(want), QueryOutput::Scalar { value, .. }) => {
                (want != value).then(|| format!("scalar {value:?}, expected {want:?}"))
            }
            _ => Some("result kind changed".to_string()),
        }
    }

    /// Rows produced, or the value of a count — what the original ORM
    /// pages report.
    fn cardinality(&self) -> usize {
        match self {
            Expected::Rows(rows) => rows.len(),
            Expected::Scalar(value) => value.as_int().unwrap_or(0) as usize,
        }
    }
}

/// The statements prepared and executed once on an open connection.
pub struct Deployment {
    pub conn: Connection,
    prepared: Vec<PreparedStatement>,
    expected: Vec<Expected>,
}

fn prepare_all(
    stmts: &[Stmt<'_>],
    conn: &Connection,
) -> Result<Vec<PreparedStatement>, String> {
    stmts
        .iter()
        .map(|s| {
            s.frag
                .engine
                .session()
                .prepare_translated(s.status, conn)
                .map_err(|e| format!("{}: {e}", s.frag.label))
        })
        .collect()
}

/// Set-up as a user pays it: populate, open, prepare every statement and
/// execute each once (plans compiled, caches warm). Returns the
/// deployment and how long it took, in seconds.
pub fn set_up(
    size: &DbSize,
    seed: u64,
    stmts: &[Stmt<'_>],
) -> Result<(Deployment, f64), String> {
    let started = Instant::now();
    let conn = Connection::open(build_db(size, seed));
    let prepared = prepare_all(stmts, &conn)?;
    let params = Params::new();
    let expected = stmts
        .iter()
        .zip(&prepared)
        .map(|(s, p)| {
            conn.execute(p, &params)
                .map(|out| Expected::of(&out))
                .map_err(|e| format!("{}: {e}", s.frag.label))
        })
        .collect::<Result<_, _>>()?;
    Ok((Deployment { conn, prepared, expected }, started.elapsed().as_secs_f64()))
}

fn orm_page(page: OrmPage, db: &Database, sql: &SqlQuery) -> (usize, Duration) {
    match page {
        OrmPage::Selection => selection_pageload(db, Mode::OriginalLazy, sql),
        OrmPage::Join => join_pageload(db, Mode::OriginalLazy, sql),
        OrmPage::Aggregation => aggregation_pageload(db, Mode::OriginalLazy, sql),
    }
}

/// The original code is the corpus's ORM pages where the workload has
/// them; otherwise every statement's kernel program, run by the oracle's
/// interpreter.
fn has_orm_pages(stmts: &[Stmt<'_>]) -> bool {
    stmts.iter().any(|s| s.frag.orm.is_some())
}

/// Which statements the original code covers.
fn covered(stmts: &[Stmt<'_>]) -> Vec<bool> {
    let all = !has_orm_pages(stmts);
    stmts.iter().map(|s| all || s.frag.orm.is_some()).collect()
}

/// Runs the original code once against the current database; returns its
/// wall time and records whether its output matches the inferred one.
fn run_original(stmts: &[Stmt<'_>], dep: &Deployment, tally: &mut Tally) -> Duration {
    let db = dep.conn.database();
    let mut wall = Duration::ZERO;
    if has_orm_pages(stmts) {
        for (s, expected) in stmts.iter().zip(&dep.expected) {
            let Some(page) = s.frag.orm else { continue };
            let (rows, elapsed) = orm_page(page, &db, s.sql);
            wall += elapsed;
            tally.record(rows == expected.cardinality(), || {
                format!(
                    "{}: original page has {rows} rows, inferred {}",
                    s.frag.label,
                    expected.cardinality()
                )
            });
        }
    } else {
        let dbs = [(*db).clone()];
        wall = stmts.iter().map(|s| check_against_kernel(s, &dbs, tally)).sum();
    }
    wall
}

/// The statement's kernel program interpreted against its SQL executed,
/// on each database; every verdict but `Agree` is a failed operation.
/// Returns the time the interpreter took.
fn check_against_kernel(s: &Stmt<'_>, dbs: &[Database], tally: &mut Tally) -> Duration {
    let opts = CheckOptions { minimize: false, ..CheckOptions::default() };
    let mut kernel = Duration::ZERO;
    for outcome in check_many(s.kernel, s.sql, dbs, &Params::new(), &opts) {
        kernel += Duration::from_nanos(outcome.kernel_ns);
        tally.record(outcome.verdict.is_agree(), || {
            format!("{}: {}", s.frag.label, outcome.verdict)
        });
    }
    kernel
}

/// Differential check of every statement on three small seeded
/// databases. Returns the time spent.
pub fn oracle_check(
    stmts: &[Stmt<'_>],
    seed: u64,
    trace: Option<&LocalSpans>,
    tally: &mut Tally,
) -> Duration {
    let started = Instant::now();
    let dbs: Vec<Database> =
        (0..3).map(|k| build_db(&UNIVERSE_DB, seed.wrapping_mul(3).wrapping_add(k))).collect();
    for s in stmts {
        let _span =
            trace.map(|l| l.span("oracle.check", "oracle").arg("fragment", &s.frag.label));
        check_against_kernel(s, &dbs, tally);
    }
    started.elapsed()
}

/// Counters of traced requests, read from `ExecStats` at the call boundary.
#[derive(Default)]
pub struct DbCounts {
    pub requests: u64,
    pub wall_ns: u64,
    pub stmt_wall_ns: [u64; 7],
    pub plan_ns: u64,
    pub exec_ns: u64,
    pub rows_scanned: u64,
    pub rows_out: u64,
    pub join_comparisons: u64,
    pub replans: u64,
}

impl DbCounts {
    pub fn add(&mut self, other: &DbCounts) {
        self.requests += other.requests;
        self.wall_ns += other.wall_ns;
        for (mine, theirs) in self.stmt_wall_ns.iter_mut().zip(other.stmt_wall_ns) {
            *mine += theirs;
        }
        self.plan_ns += other.plan_ns;
        self.exec_ns += other.exec_ns;
        self.rows_scanned += other.rows_scanned;
        self.rows_out += other.rows_out;
        self.join_comparisons += other.join_comparisons;
        self.replans += other.replans;
    }
}

/// One block of the closed loop and the samples taken right after it, so
/// that every kind of sample is spread over the whole run: the host
/// alternates between a fast and a ~1.5x slower state for seconds at a
/// time, and only windows in the fast state are reported (see
/// [`fast_windows`]).
pub struct Window {
    pub traced: bool,
    pub started: Instant,
    /// Per request, µs.
    pub page_us: Vec<f64>,
    /// Per request, µs, the statements the original code covers.
    pub covered_us: Vec<f64>,
    /// The original code, run once, µs.
    pub original_us: f64,
    /// A fresh connection prepares every statement and executes each for
    /// the first time: the whole, and the part spent preparing, µs.
    pub cold_us: f64,
    pub prepare_us: f64,
    /// Unless a writer runs beside the reader: batches inserted into the
    /// fresh connection, each in µs.
    pub write_us: Vec<f64>,
    pub counts: DbCounts,
}

struct Reader<'a> {
    stmts: &'a [Stmt<'a>],
    dep: &'a Deployment,
    covered: Vec<bool>,
    params: Params,
    outputs: Vec<QueryOutput>,
    stamps: Vec<Instant>,
}

impl Reader<'_> {
    /// One request: every statement once, a time stamp between each.
    fn request(
        &mut self,
        trace: Option<&LocalSpans>,
        counts: &mut DbCounts,
    ) -> Result<(), String> {
        // The previous page's rows are dropped before the clock starts.
        self.outputs.clear();
        self.stamps.clear();
        let _request = trace.map(|l| l.span("ledger.request", "ledger"));
        self.stamps.push(Instant::now());
        for (s, p) in self.stmts.iter().zip(&self.dep.prepared) {
            let span = trace.map(|l| {
                (l.span("db.execute", "db").arg("stmt", &s.frag.label), l.tracer().now_ns())
            });
            let out = self
                .dep
                .conn
                .execute(p, &self.params)
                .map_err(|e| format!("{}: {e}", s.frag.label))?;
            if let (Some(local), Some((_span, opened_ns))) = (trace, span) {
                let (stats, rows) = match &out {
                    QueryOutput::Rows(o) => (&o.stats, o.rows.len()),
                    QueryOutput::Scalar { stats, .. } => (stats, 1),
                };
                // The executor reports its own clock; nest it under the call.
                record_child(
                    local,
                    "db.exec",
                    "db",
                    opened_ns + stats.plan_ns,
                    stats.exec_ns,
                    2,
                );
                counts.plan_ns += stats.plan_ns;
                counts.exec_ns += stats.exec_ns;
                counts.rows_scanned += stats.rows_scanned as u64;
                counts.rows_out += rows as u64;
                counts.join_comparisons += stats.join_comparisons as u64;
                counts.replans += stats.replans as u64;
            }
            self.outputs.push(out);
            self.stamps.push(Instant::now());
        }
        Ok(())
    }

    fn wall(&self) -> Duration {
        *self.stamps.last().expect("stamped") - self.stamps[0]
    }

    fn covered_wall(&self) -> Duration {
        self.stamps
            .windows(2)
            .zip(&self.covered)
            .filter(|(_, c)| **c)
            .map(|(w, _)| w[1] - w[0])
            .sum()
    }

    fn check(&self, tally: &mut Tally) {
        for ((s, expected), out) in self.stmts.iter().zip(&self.dep.expected).zip(&self.outputs)
        {
            let diff = expected.diff(out);
            tally.record(diff.is_none(), || {
                format!("{}: {}", s.frag.label, diff.unwrap_or_default())
            });
        }
    }

    /// The cold page — and, with `quiet_writes`, a few write batches — on
    /// a fresh connection over the current database.
    fn fresh_connection(
        &self,
        users: usize,
        quiet_writes: usize,
        trace: Option<&LocalSpans>,
        window: &mut Window,
        tally: &mut Tally,
    ) {
        let conn = Connection::open((*self.dep.conn.database()).clone());
        let t0 = Instant::now();
        let prepared = {
            let _span = trace.map(|l| l.span("db.prepare", "db"));
            prepare_all(self.stmts, &conn)
        };
        let t1 = Instant::now();
        let ok = prepared.is_ok_and(|prepared| {
            let _span = trace.map(|l| l.span("db.first_execute", "db"));
            prepared.iter().all(|p| conn.execute(p, &self.params).is_ok())
        });
        let t2 = Instant::now();
        tally.record(ok, || "cold page failed".to_string());
        window.cold_us = (t2 - t0).as_secs_f64() * 1e6;
        window.prepare_us = (t1 - t0).as_secs_f64() * 1e6;
        for _ in 0..quiet_writes {
            let rows = project_rows(&conn, users);
            let opened = Instant::now();
            let result = {
                let _span = trace.map(|l| l.span("db.insert_many", "db"));
                conn.insert_many("projects", rows)
            };
            window.write_us.push(opened.elapsed().as_secs_f64() * 1e6);
            tally.record(result.is_ok(), || format!("insert_many: {:?}", result.err()));
        }
    }
}

/// The first requests of a window run on caches the original code and the
/// fresh connection just evicted; they are served but not recorded.
const WARM_UP_REQUESTS: usize = 2;
/// A window is in the fast state when its median request latency is
/// within this factor of the reference.
const FAST_CUT: f64 = 1.06;

/// How a serve segment ends: after a time budget, or when the writer
/// beside it has finished.
pub enum Until<'a> {
    Elapsed(Duration),
    Flag(&'a AtomicBool),
}

pub struct Segment<'a> {
    pub stmts: &'a [Stmt<'a>],
    pub dep: &'a Deployment,
    pub users: usize,
    /// Requests per window; the original code runs once after each.
    pub original_every: usize,
    /// Requests between two row-for-row checks against the expected output.
    pub check_every: usize,
    /// Write batches per window on the fresh connection; 0 when a writer
    /// runs beside the reader.
    pub quiet_writes: usize,
    pub min_windows: usize,
}

/// Closed loop, one client: windows of `original_every` requests until the
/// segment ends, each followed by one run of the original code and the
/// fresh-connection samples. In a traced run every other window records
/// spans and counters; the rest stay untraced so the two can be compared.
pub fn serve(
    segment: &Segment<'_>,
    until: Until<'_>,
    trace: Option<&LocalSpans>,
    tally: &mut Tally,
    windows: &mut Vec<Window>,
) {
    let mut reader = Reader {
        stmts: segment.stmts,
        dep: segment.dep,
        covered: covered(segment.stmts),
        params: Params::new(),
        outputs: Vec::with_capacity(segment.stmts.len()),
        stamps: Vec::with_capacity(segment.stmts.len() + 1),
    };
    let started = Instant::now();
    let first_window = windows.len();
    let mut requests = 0usize;
    let done = |windows: usize| match &until {
        Until::Elapsed(budget) => {
            windows >= segment.min_windows && started.elapsed() >= *budget
        }
        Until::Flag(flag) => flag.load(Ordering::Acquire),
    };
    while !done(windows.len() - first_window) {
        let window_trace = trace.filter(|_| windows.len() % 2 == 1);
        let mut window = Window {
            traced: window_trace.is_some(),
            started: Instant::now(),
            page_us: Vec::with_capacity(segment.original_every),
            covered_us: Vec::with_capacity(segment.original_every),
            original_us: 0.0,
            cold_us: 0.0,
            prepare_us: 0.0,
            write_us: Vec::with_capacity(segment.quiet_writes),
            counts: DbCounts::default(),
        };
        for n in 0..WARM_UP_REQUESTS + segment.original_every {
            requests += 1;
            let warm_up = n < WARM_UP_REQUESTS;
            let result = reader.request(window_trace.filter(|_| !warm_up), &mut window.counts);
            tally.record(result.is_ok(), || result.clone().unwrap_err());
            if result.is_err() || warm_up {
                continue;
            }
            let wall = reader.wall();
            window.page_us.push(wall.as_secs_f64() * 1e6);
            window.covered_us.push(reader.covered_wall().as_secs_f64() * 1e6);
            if window.traced {
                window.counts.requests += 1;
                window.counts.wall_ns += wall.as_nanos() as u64;
                for (w, s) in reader.stamps.windows(2).zip(segment.stmts) {
                    window.counts.stmt_wall_ns[s.kind as usize] +=
                        (w[1] - w[0]).as_nanos() as u64;
                }
            }
            if requests.is_multiple_of(segment.check_every) {
                reader.check(tally);
            }
        }
        {
            let _span = window_trace.map(|l| l.span("orig.loop", "orig"));
            window.original_us =
                run_original(segment.stmts, segment.dep, tally).as_secs_f64() * 1e6;
        }
        reader.fresh_connection(
            segment.users,
            segment.quiet_writes,
            window_trace,
            &mut window,
            tally,
        );
        windows.push(window);
    }
}

/// The windows whose samples are reported, as a mask: those in the host's
/// fast state. A window's state is read off its median request latency;
/// the reference is the lower decile over the windows of its kind (traced
/// or not), and a window within 6% of it is fast — the slow state is
/// ~55% slower, so the cut separates them cleanly. Should the fast windows
/// be fewer than `min_windows` or hold fewer than `min_requests` requests,
/// the next fastest are added until they do, so that a p95 can always be
/// read off every kind of sample.
pub fn fast_windows(windows: &[Window], min_requests: usize, min_windows: usize) -> Vec<bool> {
    let mut mask = vec![false; windows.len()];
    for traced in [false, true] {
        let mut by_speed: Vec<(f64, usize)> = windows
            .iter()
            .enumerate()
            .filter(|(_, w)| w.traced == traced && !w.page_us.is_empty())
            .map(|(i, w)| (median_of(w.page_us.clone()), i))
            .collect();
        by_speed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("latencies are never NaN"));
        let Some(&(reference, _)) = by_speed.get(by_speed.len() / 10) else { continue };
        let (mut requests, mut chosen) = (0, 0);
        for (speed, i) in by_speed {
            if speed > reference * FAST_CUT && requests >= min_requests && chosen >= min_windows
            {
                break;
            }
            mask[i] = true;
            requests += windows[i].page_us.len();
            chosen += 1;
        }
    }
    mask
}

/// One write batch beside the reader.
pub struct WriteSample {
    pub due: Instant,
    /// µs from the due time to completion.
    pub write_us: f64,
    /// µs inside `insert_many`.
    pub call_us: f64,
    /// The generator issued it more than a millisecond late.
    pub late: bool,
}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if let Some(left) = due.checked_duration_since(now) {
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
    }
}

/// The next batch of finished projects, ids continuing the table.
fn project_rows(conn: &Connection, users: usize) -> Vec<Vec<Value>> {
    let first_id = conn.database().table(&"projects".into()).map_or(0, |t| t.len());
    (first_id..)
        .take(WRITE_BATCH_ROWS)
        .map(|id| {
            vec![
                Value::from(id as i64),
                Value::from((id % users.max(1)) as i64),
                Value::from(true),
                Value::from(format!("project{id}")),
            ]
        })
        .collect()
}

/// Open loop beside the reader: `batches` batches of finished projects,
/// one due every `period`, each timed from its due time. The trajectory
/// of `projects` is the same in every run.
pub fn write(
    conn: &Connection,
    users: usize,
    batches: usize,
    period: Duration,
    trace: Option<&LocalSpans>,
    tally: &mut Tally,
) -> Vec<WriteSample> {
    let mut samples = Vec::with_capacity(batches);
    let start = Instant::now() + period;
    for b in 0..batches {
        let batch = project_rows(conn, users);
        let due = start + period * b as u32;
        wait_until(due);
        let opened = Instant::now();
        let result = {
            let _span = trace.map(|l| l.span("db.insert_many", "db"));
            conn.insert_many("projects", batch)
        };
        let closed = Instant::now();
        tally.record(result.is_ok(), || format!("insert_many: {:?}", result.err()));
        samples.push(WriteSample {
            due,
            write_us: (closed - due).as_secs_f64() * 1e6,
            call_us: (closed - opened).as_secs_f64() * 1e6,
            late: opened - due > Duration::from_millis(1),
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(text: &str) -> Kind {
        Kind::of(&qbs_sql::parse(text).expect(text), text)
    }

    #[test]
    fn kinds_are_read_off_the_sql_text() {
        assert_eq!(kind("SELECT projects.id FROM projects WHERE projects.finished = false ORDER BY projects.rowid"), Kind::Sel);
        assert_eq!(
            kind("SELECT users.id FROM users, roles WHERE users.roleId = roles.roleId ORDER BY users.rowid, roles.rowid"),
            Kind::Join
        );
        assert_eq!(kind("SELECT COUNT(*) FROM users WHERE users.roleId = 5"), Kind::Count);
        assert_eq!(kind("SELECT COUNT(*) > 0 FROM users"), Kind::Count);
        assert_eq!(
            kind("SELECT participants.projectId AS projectId, COUNT(*) AS val FROM participants GROUP BY participants.projectId HAVING COUNT(*) > 2"),
            Kind::Group
        );
        assert_eq!(
            kind("SELECT users.id FROM users ORDER BY users.id, users.rowid LIMIT 10"),
            Kind::TopK
        );
        assert_eq!(
            kind("SELECT users.id FROM users WHERE users.roleId IN (SELECT roles.roleId FROM roles) ORDER BY users.rowid"),
            Kind::InSub
        );
        assert_eq!(
            kind("SELECT DISTINCT issues.ownerId FROM issues ORDER BY issues.rowid"),
            Kind::Distinct
        );
    }
}
