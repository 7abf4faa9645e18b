//! The ledger's one command-line grammar. Strict: an unknown flag, a flag
//! without its value, a repeated flag or a stray positional is an error,
//! never a guess (the old `fig13_json` turned `--json` into a file name).

use std::path::PathBuf;

pub const USAGE: &str = "\
usage:
  qbs-ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1]
             [--json FILE] [--trace-out FILE]
  qbs-ledger --smoke [--seed N]
  qbs-ledger compare <a.jsonl> <b.jsonl> [--benchmark BENCHMARK.json]

  --workload   one of the names in BENCHMARK.json
  --seed       drives every generated database (default 1)
  --seconds    how long the run measures (default: run_seconds of BENCHMARK.json)
  --trace      0 = end-to-end metrics (default), 1 = spans on, per-layer metrics
  --json       append this run as one JSON line to FILE (input of `compare`)
  --trace-out  with --trace 1: write the spans as a Chrome trace to FILE
  --smoke      every workload at a fraction of its size, correctness only";

/// One measured run of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub json: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    Run(RunArgs),
    Smoke { seed: u64 },
    Compare { a: PathBuf, b: PathBuf, benchmark: PathBuf },
}

/// Parses the arguments after the program name. `default_seconds` is
/// `run_seconds` of `BENCHMARK.json`, so a bare `--workload` run measures
/// exactly as long as the driver's runs do.
pub fn parse(args: &[String], default_seconds: f64) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return parse_compare(&args[1..]);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut json = None;
    let mut trace_out = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |slot_taken: bool| -> Result<&String, String> {
            if slot_taken {
                return Err(format!("{arg} given twice"));
            }
            match it.next() {
                Some(v) if !v.starts_with("--") => Ok(v),
                _ => Err(format!("{arg} needs a value")),
            }
        };
        match arg.as_str() {
            "--workload" => workload = Some(value(workload.is_some())?.clone()),
            "--seed" => {
                let v = value(seed.is_some())?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed: `{v}` is not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value(seconds.is_some())?;
                match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => seconds = Some(s),
                    _ => return Err(format!("--seconds: `{v}` is not a positive number")),
                }
            }
            "--trace" => {
                trace = Some(match value(trace.is_some())?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                });
            }
            "--json" => json = Some(PathBuf::from(value(json.is_some())?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value(trace_out.is_some())?)),
            "--smoke" if smoke => return Err("--smoke given twice".to_string()),
            "--smoke" => smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            stray => return Err(format!("unexpected argument `{stray}`")),
        }
    }
    let seed = seed.unwrap_or(1);
    if smoke {
        if workload.is_some()
            || seconds.is_some()
            || trace.is_some()
            || json.is_some()
            || trace_out.is_some()
        {
            return Err("--smoke takes only --seed".to_string());
        }
        return Ok(Command::Smoke { seed });
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace = trace.unwrap_or(false);
    if trace_out.is_some() && !trace {
        return Err("--trace-out needs --trace 1".to_string());
    }
    Ok(Command::Run(RunArgs {
        workload,
        seed,
        seconds: seconds.unwrap_or(default_seconds),
        trace,
        json,
        trace_out,
    }))
}

fn parse_compare(args: &[String]) -> Result<Command, String> {
    let mut files = Vec::new();
    let mut benchmark = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" if benchmark.is_some() => {
                return Err("--benchmark given twice".into())
            }
            "--benchmark" => match it.next() {
                Some(v) if !v.starts_with("--") => benchmark = Some(PathBuf::from(v)),
                _ => return Err("--benchmark needs a value".into()),
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file => files.push(PathBuf::from(file)),
        }
    }
    let [a, b] = <[PathBuf; 2]>::try_from(files)
        .map_err(|got| format!("compare takes exactly two files, got {}", got.len()))?;
    Ok(Command::Compare {
        a,
        b,
        benchmark: benchmark.unwrap_or_else(|| "BENCHMARK.json".into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args, 15.0)
    }

    #[test]
    fn driver_invocation_parses() {
        let cmd = parse_str("--workload page_small --seed 7 --seconds 12 --trace 1").unwrap();
        let Command::Run(run) = cmd else { panic!("expected a run") };
        assert_eq!(run.workload, "page_small");
        assert_eq!((run.seed, run.seconds, run.trace), (7, 12.0, true));
        assert_eq!((run.json, run.trace_out), (None, None));
    }

    #[test]
    fn defaults_follow_the_benchmark_file() {
        let Command::Run(run) = parse_str("--workload synth_corpus").unwrap() else { panic!() };
        assert_eq!((run.seed, run.seconds, run.trace), (1, 15.0, false));
    }

    #[test]
    fn json_takes_a_value_and_never_becomes_one() {
        // The fig13_json failure mode: `--json` swallowed as a file name.
        assert_eq!(parse_str("--workload w --json").unwrap_err(), "--json needs a value");
        assert_eq!(
            parse_str("--workload w --json --seed 1").unwrap_err(),
            "--json needs a value"
        );
        let Command::Run(run) = parse_str("--workload w --json out.jsonl").unwrap() else {
            panic!()
        };
        assert_eq!(run.json, Some(PathBuf::from("out.jsonl")));
    }

    #[test]
    fn unknown_flags_strays_and_repeats_are_rejected() {
        assert_eq!(parse_str("--workload w --reps 3").unwrap_err(), "unknown flag `--reps`");
        assert_eq!(
            parse_str("--workload w out.json").unwrap_err(),
            "unexpected argument `out.json`"
        );
        assert_eq!(
            parse_str("--workload a --workload b").unwrap_err(),
            "--workload given twice"
        );
        assert_eq!(parse_str("").unwrap_err(), "--workload is required");
    }

    #[test]
    fn values_are_validated() {
        assert!(parse_str("--workload w --seed -1").is_err());
        assert!(parse_str("--workload w --seconds 0").is_err());
        assert!(parse_str("--workload w --seconds nan").is_err());
        assert!(parse_str("--workload w --trace 2").is_err());
        assert!(parse_str("--workload w --trace-out t.json").is_err(), "needs --trace 1");
        assert!(parse_str("--workload w --trace 1 --trace-out t.json").is_ok());
    }

    #[test]
    fn smoke_stands_alone() {
        assert_eq!(parse_str("--smoke --seed 3").unwrap(), Command::Smoke { seed: 3 });
        assert!(parse_str("--smoke --workload w").is_err());
        assert!(parse_str("--smoke --smoke").is_err());
    }

    #[test]
    fn compare_takes_two_files() {
        assert_eq!(
            parse_str("compare a.jsonl b.jsonl").unwrap(),
            Command::Compare {
                a: "a.jsonl".into(),
                b: "b.jsonl".into(),
                benchmark: "BENCHMARK.json".into()
            }
        );
        assert!(parse_str("compare a.jsonl").is_err());
        assert!(parse_str("compare a b c").is_err());
        assert!(parse_str("compare a b --bound 3").is_err());
        assert!(parse_str("compare a b --benchmark x.json").is_ok());
    }
}
