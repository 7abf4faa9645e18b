//! Data generators for the performance experiments (Fig. 14).

use crate::schema;
use qbs_common::Value;
use qbs_db::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wilos database sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct WilosConfig {
    /// Number of `users` rows (and `roles` rows in the join experiment).
    pub users: usize,
    /// Number of distinct roles.
    pub roles: usize,
    /// Number of `projects` rows.
    pub projects: usize,
    /// Fraction of unfinished projects (Fig. 14a/b selectivity).
    pub unfinished_fraction: f64,
    /// Fraction of users who are process managers (roleId = 5, Fig. 14d).
    pub manager_fraction: f64,
    /// Association rows per parent (eager-fetch weight).
    pub assoc_per_parent: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WilosConfig {
    fn default() -> Self {
        WilosConfig {
            users: 1000,
            roles: 20,
            projects: 1000,
            unfinished_fraction: 0.1,
            manager_fraction: 0.1,
            assoc_per_parent: 2,
            seed: 42,
        }
    }
}

impl WilosConfig {
    /// The same sizing with a different RNG seed — the multi-seed
    /// population hook the differential oracle uses to re-run every
    /// fragment on several independently generated databases.
    pub fn with_seed(mut self, seed: u64) -> WilosConfig {
        self.seed = seed;
        self
    }
}

/// Populates a Wilos database. Indexes are created on the join/selection
/// key columns, as Hibernate would (paper Sec. 7.2).
pub fn populate_wilos(cfg: &WilosConfig) -> Database {
    let mut db = Database::new();
    populate_wilos_into(&mut db, cfg);
    db
}

fn populate_wilos_into(db: &mut Database, cfg: &WilosConfig) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    db.create_table(schema::users_schema()).expect("fresh db");
    db.create_table(schema::roles_schema()).expect("fresh db");
    db.create_table(schema::projects_schema()).expect("fresh db");
    db.create_table(schema::participants_schema()).expect("fresh db");
    db.create_table(schema::activities_schema()).expect("fresh db");
    db.create_table(schema::workproducts_schema()).expect("fresh db");

    // Rows are collected per table and bulk-loaded with `insert_many`:
    // one storage chunk and one generation bump per table instead of one
    // per row. Construction order (and thus rowids and RNG consumption)
    // is identical to inserting row by row.
    let roles = cfg.roles.max(1);
    let role_rows = (0..roles)
        .map(|r| vec![Value::from(r as i64), Value::from(format!("role{r}"))])
        .collect();
    let managers = (cfg.users as f64 * cfg.manager_fraction) as usize;
    let mut user_rows = Vec::with_capacity(cfg.users);
    let mut participant_rows = Vec::with_capacity(cfg.users * cfg.assoc_per_parent);
    for u in 0..cfg.users {
        // Process managers carry roleId 5; everyone else a spread of roles
        // avoiding 5 so the manager fraction is exact.
        let role = if u < managers {
            5
        } else {
            let r = (u % roles) as i64;
            if r == 5 {
                (r + 1) % roles as i64
            } else {
                r
            }
        };
        user_rows.push(vec![
            Value::from(u as i64),
            Value::from(role),
            Value::from(u % 2 == 0),
            Value::from(format!("user{u}")),
        ]);
        for k in 0..cfg.assoc_per_parent {
            participant_rows.push(vec![
                Value::from((u * cfg.assoc_per_parent + k) as i64),
                Value::from((u % (cfg.projects.max(1))) as i64),
                Value::from(role),
            ]);
        }
    }
    let unfinished = (cfg.projects as f64 * cfg.unfinished_fraction) as usize;
    let mut project_rows = Vec::with_capacity(cfg.projects);
    let mut activity_rows = Vec::with_capacity(cfg.projects * cfg.assoc_per_parent);
    let mut workproduct_rows = Vec::with_capacity(cfg.projects * cfg.assoc_per_parent);
    for p in 0..cfg.projects {
        project_rows.push(vec![
            Value::from(p as i64),
            Value::from(rng.gen_range(0..cfg.users.max(1)) as i64),
            Value::from(p >= unfinished),
            Value::from(format!("project{p}")),
        ]);
        for k in 0..cfg.assoc_per_parent {
            activity_rows.push(vec![
                Value::from((p * cfg.assoc_per_parent + k) as i64),
                Value::from(p as i64),
                Value::from((k % 3) as i64),
            ]);
            workproduct_rows.push(vec![
                Value::from((p * cfg.assoc_per_parent + k) as i64),
                Value::from(p as i64),
                Value::from((k % 2) as i64),
            ]);
        }
    }
    db.insert_many("roles", role_rows).expect("insert");
    db.insert_many("users", user_rows).expect("insert");
    db.insert_many("participants", participant_rows).expect("insert");
    db.insert_many("projects", project_rows).expect("insert");
    db.insert_many("activities", activity_rows).expect("insert");
    db.insert_many("workproducts", workproduct_rows).expect("insert");
    db.create_index("users", "roleId").expect("index");
    db.create_index("roles", "roleId").expect("index");
    db.create_index("projects", "finished").expect("index");
    db.create_index("participants", "roleId").expect("index");
    db.create_index("activities", "projectId").expect("index");
    db.create_index("workproducts", "projectId").expect("index");
}

/// Populates an itracker database (sized for correctness tests).
pub fn populate_itracker(rows: usize, seed: u64) -> Database {
    let mut db = Database::new();
    populate_itracker_into(&mut db, rows, seed);
    db
}

fn populate_itracker_into(db: &mut Database, rows: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    db.create_table(schema::issues_schema()).expect("fresh db");
    db.create_table(schema::itprojects_schema()).expect("fresh db");
    db.create_table(schema::itusers_schema()).expect("fresh db");
    db.create_table(schema::notifications_schema()).expect("fresh db");
    let mut issue_rows = Vec::with_capacity(rows);
    let mut notification_rows = Vec::with_capacity(rows);
    for i in 0..rows {
        issue_rows.push(vec![
            Value::from(i as i64),
            Value::from((i % 10) as i64),
            Value::from(rng.gen_range(0..4i64)),
            Value::from(rng.gen_range(0..5i64)),
            Value::from((i % 7) as i64),
        ]);
        notification_rows.push(vec![
            Value::from(i as i64),
            Value::from((i % 13) as i64),
            Value::from((i % 5) as i64),
        ]);
    }
    let project_rows = (0..10usize)
        .map(|p| {
            vec![
                Value::from(p as i64),
                Value::from((p % 2) as i64),
                Value::from(format!("proj{p}")),
            ]
        })
        .collect();
    let user_rows = (0..7usize)
        .map(|u| {
            vec![Value::from(u as i64), Value::from(u == 0), Value::from(format!("dev{u}"))]
        })
        .collect();
    db.insert_many("issues", issue_rows).expect("insert");
    db.insert_many("notifications", notification_rows).expect("insert");
    db.insert_many("itprojects", project_rows).expect("insert");
    db.insert_many("itusers", user_rows).expect("insert");
}

/// The differential-oracle universe: one database holding **both**
/// applications' tables (their names are disjoint), deterministically
/// populated from a single seed at a size where whole-corpus differential
/// runs stay fast. Fragments from either app — and fuzzed fragments mixing
/// tables of both — run against the same database.
pub fn populate_universe(seed: u64) -> Database {
    let mut db = Database::new();
    populate_wilos_into(
        &mut db,
        &WilosConfig {
            users: 60,
            roles: 12,
            projects: 48,
            unfinished_fraction: 0.25,
            ..WilosConfig::default()
        }
        .with_seed(seed),
    );
    populate_itracker_into(&mut db, 56, seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_db::Params;
    use qbs_sql::parse_query;

    #[test]
    fn wilos_population_matches_config() {
        let cfg = WilosConfig {
            users: 50,
            projects: 40,
            unfinished_fraction: 0.25,
            ..WilosConfig::default()
        };
        let db = populate_wilos(&cfg);
        let q = parse_query("SELECT * FROM projects WHERE finished = false").unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(out.rows.len(), 10, "25% of 40 projects are unfinished");
        let q = parse_query("SELECT * FROM users WHERE roleId = 5").unwrap();
        let out = db.execute_select(&q, &Params::new()).unwrap();
        assert_eq!(out.rows.len(), 5, "10% managers");
    }

    #[test]
    fn itracker_population_has_all_tables() {
        let db = populate_itracker(20, 1);
        for t in ["issues", "itprojects", "itusers", "notifications"] {
            let q = parse_query(&format!("SELECT * FROM {t}")).unwrap();
            assert!(!db.execute_select(&q, &Params::new()).unwrap().rows.is_empty());
        }
    }
}
