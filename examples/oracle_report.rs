//! Emits `BENCH_oracle.json`: differential-oracle verdicts for the whole
//! Appendix A corpus plus a seeded fuzz batch, and writes any minimized
//! mismatch witnesses to a directory for artifact upload. Exits non-zero
//! when a Mismatch verdict is found, failing the CI oracle job.
//!
//! ```sh
//! cargo run --release --example oracle_report -- \
//!     [output-path] [--fuzz N] [--fuzz-seed S] [--seeds a,b,c] [--witness-dir DIR] [--reorder]
//! ```

use qbs_batch::{corpus_inputs, BatchConfig, BatchRunner, OracleConfig};
use qbs_oracle::OracleVerdict;
use std::fmt::Write as _;
use std::process::ExitCode;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn main() -> ExitCode {
    let mut path = "BENCH_oracle.json".to_string();
    let mut witness_dir = "oracle-witnesses".to_string();
    let mut fuzz: usize = 200;
    let mut fuzz_seed: u64 = 0xd1ff_5eed;
    let mut seeds: Vec<u64> = vec![1, 2, 3];
    let mut reorder = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |name: &str| args.next().unwrap_or_else(|| panic!("{name} requires a value"));
        match arg.as_str() {
            "--fuzz" => fuzz = value("--fuzz").parse().expect("--fuzz N"),
            "--fuzz-seed" => fuzz_seed = value("--fuzz-seed").parse().expect("--fuzz-seed S"),
            "--seeds" => {
                seeds = value("--seeds")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--seeds a,b,c"))
                    .collect()
            }
            "--witness-dir" => witness_dir = value("--witness-dir"),
            "--reorder" => reorder = true,
            // A typo'd flag must not silently become the output path —
            // CI would go green with default settings.
            other if other.starts_with("--") => panic!("unknown flag `{other}`"),
            other => path = other.to_string(),
        }
    }

    let runner = BatchRunner::new(BatchConfig::new());
    let config = OracleConfig::default()
        .with_db_seeds(seeds.clone())
        .with_fuzz(fuzz, fuzz_seed)
        .with_reorder_joins(reorder);
    let report = runner.run_oracle(&corpus_inputs(), &config);
    let counts = report.counts();
    let oracle = report.oracle.as_ref().expect("oracle mode attaches a summary");

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"oracle_corpus\",");
    let _ = writeln!(out, "  \"fragments\": {},", counts.total);
    let _ = writeln!(out, "  \"translated\": {},", counts.translated);
    let _ = writeln!(out, "  \"db_seeds\": {seeds:?},");
    let _ = writeln!(out, "  \"fuzz_fragments\": {},", oracle.fuzz_fragments);
    let _ = writeln!(out, "  \"fuzz_seed\": {fuzz_seed},");
    let _ = writeln!(out, "  \"checked_fragments\": {},", oracle.checked_fragments);
    let _ = writeln!(out, "  \"checks\": {},", oracle.counts.total);
    let _ = writeln!(out, "  \"agree\": {},", oracle.counts.agree);
    let _ = writeln!(out, "  \"mismatch\": {},", oracle.counts.mismatch);
    let _ = writeln!(out, "  \"inconclusive\": {},", oracle.counts.inconclusive);
    let _ = writeln!(out, "  \"reorder_joins\": {},", oracle.reorder_joins);
    let _ = writeln!(out, "  \"exec\": {{");
    let _ = writeln!(out, "    \"rows_scanned\": {},", oracle.exec.rows_scanned);
    let _ = writeln!(out, "    \"join_comparisons\": {},", oracle.exec.join_comparisons);
    let _ = writeln!(out, "    \"subqueries_executed\": {},", oracle.exec.subqueries_executed);
    let _ = writeln!(out, "    \"subquery_cache_hits\": {},", oracle.exec.subquery_cache_hits);
    let _ = writeln!(out, "    \"checks_using_index\": {}", oracle.exec.checks_using_index);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(
        out,
        "  \"oracle_elapsed_s\": {},",
        (oracle.elapsed.as_secs_f64() * 1e6).round() / 1e6
    );
    let _ = writeln!(out, "  \"results\": [");
    let checked: Vec<_> = report.fragments.iter().filter(|f| !f.verdicts.is_empty()).collect();
    for (i, fr) in checked.iter().enumerate() {
        let comma = if i + 1 < checked.len() { "," } else { "" };
        let verdicts: Vec<String> = fr
            .verdicts
            .iter()
            .map(|v| format!("\"{}\"", json_escape(&v.to_string())))
            .collect();
        let _ = writeln!(
            out,
            "    {{\"input\": \"{}\", \"method\": \"{}\", \"verdicts\": [{}]}}{comma}",
            json_escape(&fr.input),
            json_escape(&fr.method),
            verdicts.join(", "),
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    std::fs::write(&path, &out).unwrap_or_else(|e| panic!("write {path}: {e}"));

    // Minimized witnesses as replayable artifact files.
    let mismatches: Vec<_> = report.mismatches().collect();
    if !mismatches.is_empty() {
        std::fs::create_dir_all(&witness_dir)
            .unwrap_or_else(|e| panic!("mkdir {witness_dir}: {e}"));
        for (k, (fr, v)) in mismatches.iter().enumerate() {
            let OracleVerdict::Mismatch(w) = v else { unreachable!("filtered") };
            let mut text = format!("{w}");
            if let Some(kernel) = &fr.kernel {
                let _ = write!(text, "\nkernel program:\n{}", qbs_kernel::pretty(kernel));
            }
            let file = format!("{witness_dir}/{k:03}_{}.txt", fr.method);
            std::fs::write(&file, text).unwrap_or_else(|e| panic!("write {file}: {e}"));
        }
    }

    println!(
        "wrote {path}: {} checks over {} fragments × {} seeds — {} agree, {} mismatch, \
         {} inconclusive",
        oracle.counts.total,
        oracle.checked_fragments,
        seeds.len(),
        oracle.counts.agree,
        oracle.counts.mismatch,
        oracle.counts.inconclusive,
    );
    if oracle.counts.mismatch > 0 {
        eprintln!(
            "MISMATCH: {} semantic-preservation violations; witnesses in {witness_dir}/",
            oracle.counts.mismatch
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
