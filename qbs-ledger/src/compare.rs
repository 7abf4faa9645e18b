//! `qbs-ledger compare <a.jsonl> <b.jsonl>`: the rule every later change
//! is judged by. Both files hold run lines written with `--json`; for each
//! workload and end-to-end metric the medians of the two sides are set
//! against the bound `BENCHMARK.json` fixes.

use crate::json::{self, Json};
use crate::stats::{median, quartile_spread, sort};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// `b`'s median is not worse than `a`'s by more than the bound.
    Within,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// A side's own runs spread wider than the bound: no call either way.
    Unresolved,
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

fn judge(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (f64, f64, f64, f64, Verdict) {
    let spread = |side: &[f64]| quartile_spread(side).unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let worse = worsening(ma, mb, lower_is_better);
    let widest = spread(a).max(spread(b));
    let verdict = if widest > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (ma, mb, worse, widest, verdict)
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    list.iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).ok_or(format!("BENCHMARK.json: a metric lacks `{k}`"));
            Ok(Bound {
                name: field("name")?.as_str().ok_or("metric name is not a string")?.to_string(),
                lower_is_better: match field("better")?.as_str() {
                    Some("lower") => true,
                    Some("higher") => false,
                    _ => return Err("`better` is neither lower nor higher".to_string()),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// `workload → metric → values` over the untraced run lines of a file.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn samples(text: &str) -> Result<Samples, String> {
    let mut out = Samples::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let run = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("line {}: no metrics", n + 1))?;
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    for values in out.values_mut().flat_map(BTreeMap::values_mut) {
        sort(values);
    }
    Ok(out)
}

/// Renders the comparison and tells whether any pairing regressed.
pub fn compare(a: &str, b: &str, benchmark: &str) -> Result<(String, bool), String> {
    let bounds = bounds(&json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?)?;
    let (a, b) = (
        samples(a).map_err(|e| format!("a: {e}"))?,
        samples(b).map_err(|e| format!("b: {e}"))?,
    );
    let mut out = format!(
        "{:<13} {:<20} {:>3}+{:<3} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "n", "n", "a median", "b median", "worse", "spread", "bound"
    );
    let mut regressed = false;
    for (workload, a_metrics) in &a {
        for bound in &bounds {
            let (Some(av), Some(bv)) =
                (a_metrics.get(&bound.name), b.get(workload).and_then(|m| m.get(&bound.name)))
            else {
                out.push_str(&format!(
                    "{workload:<13} {:<20} missing on one side\n",
                    bound.name
                ));
                continue;
            };
            let (ma, mb, worse, spread, verdict) =
                judge(av, bv, bound.lower_is_better, bound.bound);
            regressed |= verdict == Verdict::Regressed;
            out.push_str(&format!(
                "{workload:<13} {:<20} {:>3}+{:<3} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}\n",
                bound.name,
                av.len(),
                bv.len(),
                worse * 100.0,
                spread * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
            ));
        }
    }
    Ok((out, regressed))
}

pub fn compare_files(a: &Path, b: &Path, benchmark: &Path) -> Result<(String, bool), String> {
    let read =
        |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    compare(&read(a)?, &read(b)?, &read(benchmark)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "latency_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

    fn lines(latencies: &[f64], rates: &[f64]) -> String {
        latencies
            .iter()
            .zip(rates)
            .map(|(l, r)| {
                format!(
                    "{{\"workload\": \"w\", \"trace\": 0, \"metrics\": {{\"latency_us\": \
                     {{\"value\": {l}, \"unit\": \"us\"}}, \"per_s\": {{\"value\": {r}, \"unit\": \"1/s\"}}}}}}\n"
                )
            })
            .collect()
    }

    #[test]
    fn worse_is_signed_by_the_metric_direction() {
        assert!((worsening(100.0, 120.0, true) - 0.2).abs() < 1e-12);
        assert!((worsening(100.0, 120.0, false) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(judge(&steady, &[105.0, 104.0, 106.0, 105.0], true, 0.1).4, Verdict::Within);
        assert_eq!(
            judge(&steady, &[125.0, 124.0, 126.0, 125.0], true, 0.1).4,
            Verdict::Regressed
        );
        assert_eq!(judge(&steady, &[80.0, 81.0, 79.0, 80.0], true, 0.1).4, Verdict::Within);
        assert_eq!(judge(&steady, &[80.0, 81.0, 79.0, 80.0], false, 0.1).4, Verdict::Regressed);
        // Noisier than the bound: neither unchanged nor regressed.
        assert_eq!(
            judge(&[80.0, 100.0, 120.0, 140.0], &steady, true, 0.1).4,
            Verdict::Unresolved
        );
    }

    #[test]
    fn files_are_compared_per_workload_and_metric() {
        let a = lines(&[100.0, 101.0, 99.0], &[50.0, 50.5, 49.5]);
        let same = compare(&a, &a, BENCHMARK).unwrap();
        assert!(!same.1);
        assert_eq!(same.0.matches("within").count(), 2);
        let slower = lines(&[130.0, 131.0, 129.0], &[50.0, 50.5, 49.5]);
        let (table, regressed) = compare(&a, &slower, BENCHMARK).unwrap();
        assert!(regressed);
        assert!(table.contains("regressed") && table.contains("within"), "{table}");
    }

    #[test]
    fn traced_lines_and_broken_input_are_handled() {
        let traced = "{\"workload\": \"w\", \"trace\": 1, \"metrics\": {}}\n";
        assert!(samples(traced).unwrap().is_empty());
        assert!(compare("not json\n", "", BENCHMARK).is_err());
        assert!(compare("", "", "{}").is_err());
    }
}
