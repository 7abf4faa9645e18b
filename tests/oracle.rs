//! The ISSUE acceptance criteria for the differential oracle, as tests:
//! every translated corpus fragment gets verdict Agree on ≥ 3 differently
//! seeded databases, and a seeded fuzz run completes with zero Mismatch
//! verdicts.

use qbs::FragmentStatus;
use qbs_batch::{corpus_inputs, grouped_inputs, BatchConfig, BatchRunner, OracleConfig};
use qbs_oracle::OracleVerdict;

#[test]
fn whole_corpus_agrees_on_three_seeded_databases() {
    let runner = BatchRunner::new(BatchConfig::new());
    let config = OracleConfig::default().with_db_seeds(vec![1, 2, 3]);
    let report = runner.run_oracle(&corpus_inputs(), &config);

    let counts = report.counts();
    assert_eq!(counts.total, 49, "whole corpus");
    assert_eq!(counts.translated, 33, "the paper's 33 translated fragments");

    let summary = report.oracle.as_ref().expect("oracle summary");
    assert_eq!(summary.checked_fragments, 33);
    assert_eq!(summary.counts.total, 33 * 3, "one check per fragment × seed");
    assert_eq!(summary.counts.agree, 33 * 3, "{report}");
    assert_eq!(summary.counts.mismatch, 0, "{report}");
    assert_eq!(summary.counts.inconclusive, 0, "{report}");
    // Every fragment runs through ONE prepared handle across all seeds:
    // each check's SQL side reuses the plan computed at prepare, never
    // replanning (the seeds share schema and generation history).
    assert_eq!(summary.exec.plan_cache_hits, 33 * 3, "{}", summary.exec);
    assert_eq!(summary.exec.replans, 0, "{}", summary.exec);
    assert_eq!(summary.exec.plan_cache_hit_rate(), 1.0);

    for fr in &report.fragments {
        match &fr.status {
            FragmentStatus::Translated { .. } => {
                assert_eq!(fr.verdicts.len(), 3, "{}", fr.method);
                assert!(
                    fr.verdicts.iter().all(OracleVerdict::is_agree),
                    "{}: {:?}",
                    fr.method,
                    fr.verdicts
                );
            }
            _ => assert!(fr.verdicts.is_empty(), "{}", fr.method),
        }
    }
}

#[test]
fn grouped_fragments_synthesize_group_by_and_agree_on_three_seeds() {
    // The per-key-map fragments (ids 50+) exercise the grouped-aggregation
    // path end-to-end: map-accumulator loop → TOR Group → GROUP BY SQL,
    // with zero Mismatch across three differently seeded databases.
    let runner = BatchRunner::new(BatchConfig::new());
    let config = OracleConfig::default().with_db_seeds(vec![1, 2, 3]);
    let inputs = grouped_inputs();
    assert!(inputs.len() >= 4, "at least four per-key-map fragments");
    let report = runner.run_oracle(&inputs, &config);

    let counts = report.counts();
    assert_eq!(counts.translated, inputs.len(), "{report}");

    let summary = report.oracle.as_ref().expect("oracle summary");
    assert_eq!(summary.counts.total, inputs.len() * 3);
    assert_eq!(summary.counts.agree, inputs.len() * 3, "{report}");
    assert_eq!(summary.counts.mismatch, 0, "{report}");

    for fr in &report.fragments {
        match &fr.status {
            FragmentStatus::Translated { sql, .. } => {
                let rendered = sql.to_string();
                assert!(
                    rendered.contains("GROUP BY"),
                    "{}: expected grouped SQL, got {rendered}",
                    fr.method
                );
                assert!(
                    fr.verdicts.iter().all(OracleVerdict::is_agree),
                    "{}: {:?}",
                    fr.method,
                    fr.verdicts
                );
            }
            other => panic!("{}: expected Translated, got {other:?}", fr.method),
        }
    }
}

#[test]
fn join_reordering_preserves_every_corpus_and_fuzz_verdict() {
    // The order-sensitivity of TOR semantics is the risk in reordering:
    // the planner only reorders when multiset semantics or a total
    // rowid ORDER BY make it unobservable. Running the 33 translated
    // corpus fragments plus 60 fuzzed fragments with reordering enabled
    // must therefore produce zero Mismatch verdicts.
    let runner = BatchRunner::new(BatchConfig::new());
    let config = OracleConfig::default()
        .with_db_seeds(vec![2])
        .with_fuzz(60, 0xace)
        .with_reorder_joins(true);
    let report = runner.run_oracle(&corpus_inputs(), &config);

    assert_eq!(report.counts().total, 49 + 60, "whole corpus plus the fuzz batch");
    let summary = report.oracle.as_ref().expect("oracle summary");
    assert_eq!(summary.fuzz_fragments, 60);
    assert!(summary.reorder_joins);
    assert_eq!(summary.counts.mismatch, 0, "{report}");
    // The corpus's 33 translated fragments all went through the check.
    assert!(summary.checked_fragments >= 33, "{report}");
    // The exec counters roll up: something was actually executed.
    assert!(summary.exec.rows_scanned > 0, "{report}");
}

#[test]
fn seeded_fuzz_run_produces_zero_mismatches() {
    let runner = BatchRunner::new(BatchConfig::new());
    // CI runs 1000 fragments through the oracle_report example; this keeps the
    // cargo-test variant quick while still covering every shape.
    let config = OracleConfig::default().with_db_seeds(vec![4, 5]).with_fuzz(60, 0xace);
    let report = runner.run_oracle(&[], &config);

    assert_eq!(report.fragments.len(), 60);
    let summary = report.oracle.as_ref().expect("oracle summary");
    assert_eq!(summary.fuzz_fragments, 60);
    assert_eq!(summary.counts.mismatch, 0, "{report}");
    // The fuzzer must actually exercise the pipeline: a healthy majority
    // of generated fragments synthesize and run differentially.
    assert!(
        summary.checked_fragments * 2 > report.fragments.len(),
        "only {}/{} fuzzed fragments translated",
        summary.checked_fragments,
        report.fragments.len()
    );
}
