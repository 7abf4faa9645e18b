//! `qbs-ledger` — the repository's single benchmark: fragment → SQL time
//! and page-load time in one run, with per-layer attribution. README.md
//! has the workloads, the metrics and the commands.

mod args;
mod compare;
mod json;
mod pins;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;
mod translate;

use args::{Command, RunArgs};
use json::Json;
use run::{Options, RunResult, END_TO_END, PER_LAYER};
use std::io::Write as _;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: what a bare `--workload` run measures.
const RUN_SECONDS: f64 = 15.0;

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// Where the numbers were taken: recorded in every `--json` line.
fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(command_output("rustc", &["--version"]))),
        ("git_sha", Json::str(command_output("git", &["rev-parse", "HEAD"]))),
    ])
}

/// The contract's result object: exactly these four keys.
fn result_line(result: &RunResult) -> Json {
    Json::obj([
        ("correct", Json::Bool(result.tally.failed == 0)),
        ("attempted", Json::Num(result.tally.attempted as f64)),
        ("failed", Json::Num(result.tally.failed as f64)),
        (
            "metrics",
            Json::obj(result.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
}

fn append_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(file, "{line}")
}

fn run_one(args: &RunArgs) -> Result<bool, String> {
    let workload = spec::workload(&args.workload).ok_or_else(|| {
        format!("unknown workload `{}` (one of {})", args.workload, spec::WORKLOADS.join(", "))
    })?;
    let opts =
        Options { seed: args.seed, seconds: args.seconds, traced: args.trace, smoke: false };
    let result = run::run(&workload, &opts)?;

    println!(
        "qbs-ledger: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if args.trace {
        print!("{}", trace::render_table(&trace::layer_table(&result.spans)));
    }
    for key in ["samples", "pass_s"] {
        println!("{key}: {}", result.detail.get(key).map_or_else(String::new, Json::render));
    }
    for m in &result.metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for note in &result.tally.notes {
        eprintln!("failed: {note}");
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some((missing, _)) =
        wanted.iter().find(|(name, _)| result.metrics.iter().all(|m| m.name != *name))
    {
        return Err(format!("the sample is too small for `{missing}`; run longer"));
    }
    if result.metrics.iter().any(|m| !m.value.is_finite()) {
        return Err("a metric is not a finite number".to_string());
    }

    if let Some(path) = &args.trace_out {
        std::fs::write(path, qbs_obs::chrome_trace(&result.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let line = result_line(&result);
    if let Some(path) = &args.json {
        let Json::Obj(mut fields) = Json::obj([
            ("workload", Json::str(&args.workload)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Num(f64::from(args.trace as u8))),
            ("environment", environment()),
            ("detail", result.detail.clone()),
        ]) else {
            unreachable!("Json::obj builds an object")
        };
        fields.extend(line.as_obj().expect("the result is an object").iter().cloned());
        append_line(path, &Json::Obj(fields).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", line.render());
    Ok(result.tally.failed == 0)
}

/// Every workload at a fraction of its size, untraced then traced: a
/// correctness check, not a measurement.
fn smoke(seed: u64) -> Result<bool, String> {
    let started = std::time::Instant::now();
    let mut all_correct = true;
    for name in spec::WORKLOADS {
        for traced in [false, true] {
            let workload = spec::workload(name).expect("listed workloads exist").smoke();
            let result =
                run::run(&workload, &Options { seed, seconds: 0.2, traced, smoke: true })?;
            println!(
                "smoke {name:<13} trace {} — {} operations, {} failed",
                traced as u8, result.tally.attempted, result.tally.failed
            );
            for note in &result.tally.notes {
                eprintln!("failed: {note}");
            }
            all_correct &= result.tally.failed == 0;
        }
    }
    println!("smoke: {:.1} s", started.elapsed().as_secs_f64());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&argv, RUN_SECONDS) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("qbs-ledger: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match &command {
        Command::Run(run) => run_one(run),
        Command::Smoke { seed } => smoke(*seed),
        Command::Compare { a, b, benchmark } => {
            compare::compare_files(a, b, benchmark).map(|(table, regressed)| {
                print!("{table}");
                !regressed
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("qbs-ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract; the code's metric and workload
    /// lists must say the same thing.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k).and_then(Json::as_str).unwrap_or_default().to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> =
            names("workloads").into_iter().map(|(name, _)| name).collect();
        assert_eq!(workloads, spec::WORKLOADS);
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS));
    }
}
