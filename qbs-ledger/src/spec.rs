//! The five workloads: which fragments are translated, which database the
//! translated statements serve, what the original code is, and whether a
//! writer runs beside the reader. README.md records why each was chosen.

use qbs::QbsEngine;
use qbs_corpus::{
    advanced_idioms, all_fragments, grouped_fragments, populate_itracker, populate_wilos,
    CorpusFragment, ExpectedStatus, WilosConfig,
};
use qbs_db::Database;
use qbs_front::DataModel;
use qbs_kernel::KernelProgram;
use std::time::Duration;

/// Per-fragment budget of the synthesis search; an exhausted budget counts
/// as a failed operation.
pub const FRAGMENT_BUDGET: Duration = Duration::from_secs(5);

/// The generator seed of `synth_fuzz`'s held-out programs. It is a
/// constant, not `--seed`: forty drawn programs cost between 15 and 18 s
/// to translate depending on the draw (one GROUP BY + HAVING program is
/// 1.2 to 2.2 s), and the acceptance run compares runs across seeds.
pub const HELD_OUT_GENERATOR_SEED: u64 = 0x5eed_f022;
pub const HELD_OUT_PROGRAMS: usize = 24;

pub const WORKLOADS: [&str; 5] =
    ["synth_corpus", "synth_fuzz", "page_small", "report_large", "page_churn"];

/// What a fragment is translated from.
pub enum Input {
    /// MiniJava source through the front end (`Session::run_source`).
    Source(String),
    /// A kernel program (`Session::infer`) — generator output has no source.
    Kernel(KernelProgram),
}

/// The original ORM code a page's statement replaced (Fig. 14). Workloads
/// without pages run each statement's kernel program as the original.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OrmPage {
    Selection,
    Join,
    Aggregation,
}

pub struct Frag {
    pub label: String,
    pub engine: QbsEngine,
    pub input: Input,
    pub expected: ExpectedStatus,
    pub orm: Option<OrmPage>,
    /// Left out of `--smoke`: a join, IN or grouped search takes 0.1–1.4 s.
    pub slow: bool,
}

#[derive(Clone, Copy, Debug)]
pub struct DbSize {
    pub users: usize,
    pub roles: usize,
    pub projects: usize,
    pub issues: usize,
}

pub struct Workload {
    pub fragments: Vec<Frag>,
    pub db: DbSize,
    /// Share of `--seconds` spent serving. Translating is fixed work — one
    /// pass per round — and takes what it takes.
    pub serve_share: f64,
    /// Requests between two runs of the original code.
    pub original_every: usize,
    /// Requests between two row-for-row checks against the expected output.
    pub check_every: usize,
    /// A writer inserts into `projects` beside the reader (one batch due
    /// every 10 ms); otherwise the write phase runs alone after serving.
    pub churn: bool,
}

fn engine(model: DataModel) -> QbsEngine {
    QbsEngine::builder(model).time_budget(FRAGMENT_BUDGET).build()
}

const SLOW_CORPUS_IDS: [usize; 13] = [1, 22, 23, 25, 33, 34, 35, 46, 50, 51, 52, 53, 54];

fn corpus_frag(f: &CorpusFragment) -> Frag {
    Frag {
        label: format!("{}#{}", f.app.name(), f.id),
        engine: engine(f.model()),
        input: Input::Source(f.source.clone()),
        expected: f.expected,
        orm: None,
        slow: SLOW_CORPUS_IDS.contains(&f.id),
    }
}

fn advanced_frags() -> Vec<Frag> {
    advanced_idioms()
        .into_iter()
        .map(|a| Frag {
            label: format!("adv:{}", a.name),
            engine: engine(a.model()),
            expected: if a.should_translate {
                ExpectedStatus::Translated
            } else {
                ExpectedStatus::Failed
            },
            input: Input::Source(a.source),
            orm: None,
            slow: a.name == "hash_join",
        })
        .collect()
}

fn corpus_frags() -> Vec<Frag> {
    all_fragments().iter().chain(grouped_fragments().iter()).map(corpus_frag).collect()
}

/// The statements of a page: corpus fragments by Appendix A number, in
/// the order given, the Fig. 14 three tagged with their original ORM code.
fn page_frags(ids: &[usize]) -> Vec<Frag> {
    let mut all = corpus_frags();
    ids.iter()
        .map(|id| {
            let label_end = format!("#{id}");
            let at = all
                .iter()
                .position(|f| f.label.ends_with(&label_end))
                .unwrap_or_else(|| panic!("corpus fragment {id} exists"));
            let mut frag = all.swap_remove(at);
            frag.orm = match id {
                40 => Some(OrmPage::Selection),
                46 => Some(OrmPage::Join),
                38 => Some(OrmPage::Aggregation),
                _ => None,
            };
            frag
        })
        .collect()
}

fn held_out_frags() -> Vec<Frag> {
    use qbs_oracle::genfrag::FragShape as S;
    let mut frags = advanced_frags();
    frags.extend(
        qbs_oracle::genfrag::generate(HELD_OUT_GENERATOR_SEED, HELD_OUT_PROGRAMS)
            .into_iter()
            .map(|g| Frag {
                label: g.name,
                engine: engine(DataModel::new()),
                input: Input::Kernel(g.kernel),
                // Every shape the generator draws is inside the template
                // language; all of them translate today.
                expected: ExpectedStatus::Translated,
                orm: None,
                slow: matches!(g.shape, S::Join | S::GroupCount | S::GroupSum | S::GroupHaving),
            }),
    );
    frags
}

/// The request size of one page: the paper's Fig. 14 databases.
const PAGE_DB: DbSize = DbSize { users: 300, roles: 20, projects: 240, issues: 56 };
/// The differential oracle's universe size: every translated statement of
/// a synth workload runs on it.
pub const UNIVERSE_DB: DbSize = DbSize { users: 60, roles: 12, projects: 48, issues: 56 };

/// The workload of that name at full size, or `None` for an unknown name.
pub fn workload(name: &str) -> Option<Workload> {
    let trio = || page_frags(&[40, 46, 38]);
    Some(match name {
        "synth_corpus" => Workload {
            fragments: corpus_frags(),
            db: UNIVERSE_DB,
            serve_share: 0.4,
            original_every: 20,
            check_every: 20,
            churn: false,
        },
        "synth_fuzz" => Workload {
            fragments: held_out_frags(),
            db: UNIVERSE_DB,
            serve_share: 0.4,
            original_every: 20,
            check_every: 20,
            churn: false,
        },
        "page_small" => Workload {
            fragments: trio(),
            db: PAGE_DB,
            serve_share: 0.85,
            original_every: 100,
            check_every: 1000,
            churn: false,
        },
        "report_large" => {
            let mut fragments = page_frags(&[40, 46, 38, 52]);
            fragments
                .extend(advanced_frags().into_iter().filter(|f| f.label == "adv:sorted_top_k"));
            fragments.extend(page_frags(&[35, 2]));
            Workload {
                fragments,
                db: DbSize { users: 5_000, roles: 20, projects: 1_000, issues: 5_000 },
                serve_share: 0.85,
                original_every: 20,
                check_every: 100,
                churn: false,
            }
        }
        "page_churn" => Workload {
            fragments: trio(),
            db: DbSize { projects: 16_000, ..PAGE_DB },
            serve_share: 0.85,
            original_every: 100,
            check_every: 1000,
            churn: true,
        },
        _ => return None,
    })
}

impl Workload {
    /// The `--smoke` variant: the slow searches left out and the database
    /// at 1/50 size (never below a handful of rows per table).
    pub fn smoke(mut self) -> Workload {
        self.fragments.retain(|f| !f.slow);
        let shrink = |n: usize| (n / 50).max(12);
        self.db = DbSize {
            users: shrink(self.db.users),
            roles: self.db.roles.min(6),
            projects: shrink(self.db.projects),
            issues: shrink(self.db.issues),
        };
        self.original_every = 5;
        self.check_every = 5;
        self
    }
}

/// One database holding both applications' tables (their names are
/// disjoint) — the `columnar_bench` build recipe.
pub fn build_db(size: &DbSize, seed: u64) -> Database {
    let mut db = populate_wilos(
        &WilosConfig {
            users: size.users,
            roles: size.roles,
            projects: size.projects,
            ..WilosConfig::default()
        }
        .with_seed(seed),
    );
    let itracker = populate_itracker(size.issues, seed.wrapping_add(1));
    for table in ["issues", "notifications", "itprojects", "itusers"] {
        let src = itracker.table(&table.into()).expect("itracker table");
        db.create_table(src.schema().clone()).expect("table names are disjoint");
        db.insert_many(table, src.rows().collect()).expect("same schema");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_exists_and_unknown_names_do_not() {
        for name in WORKLOADS {
            let w = workload(name).expect(name);
            assert!(!w.fragments.is_empty());
            assert!(w.smoke().fragments.iter().all(|f| !f.slow));
        }
        assert!(workload("fig13").is_none());
    }

    #[test]
    fn fragment_sets_have_the_documented_shape() {
        assert_eq!(workload("synth_corpus").unwrap().fragments.len(), 54);
        let held_out = workload("synth_fuzz").unwrap().fragments;
        assert_eq!(held_out.len(), 4 + HELD_OUT_PROGRAMS);
        assert_eq!(held_out.iter().filter(|f| matches!(f.input, Input::Source(_))).count(), 4);
        let labels = |name: &str| -> Vec<String> {
            workload(name).unwrap().fragments.into_iter().map(|f| f.label).collect()
        };
        assert_eq!(labels("page_small"), ["wilos#40", "wilos#46", "wilos#38"]);
        assert_eq!(
            labels("report_large"),
            [
                "wilos#40",
                "wilos#46",
                "wilos#38",
                "wilos#52",
                "adv:sorted_top_k",
                "wilos#35",
                "itracker#2"
            ]
        );
    }

    #[test]
    fn databases_hold_both_applications() {
        let db = build_db(&UNIVERSE_DB, 3);
        for (table, rows) in [("users", 60), ("roles", 12), ("projects", 48), ("issues", 56)] {
            assert_eq!(db.table(&table.into()).expect(table).len(), rows, "{table}");
        }
    }
}
