//! `benchdiff` — guard the BENCH trajectory.
//!
//! ```text
//! benchdiff <baseline-dir> <candidate-dir> [--threshold <pct>]
//! ```
//!
//! Compares every `BENCH_*.json` in the baseline directory against the
//! same-named file in the candidate directory and exits nonzero on:
//!
//! - a baseline bench file with no candidate counterpart,
//! - a baseline metric key that disappeared from the candidate
//!   (renames must update the committed baseline in the same change),
//! - a `seed` or `sites` mismatch: medians from different scales are
//!   not comparable, so a baseline of the wrong scale is a failure,
//!   not a silent skip,
//! - a paired-median regression: a `*_median_ms` key whose candidate
//!   value exceeds baseline by more than the threshold (default 25%).
//!
//! New candidate keys and improvements are reported but never fail the
//! run; the gate is one-sided by design.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One parsed BENCH file: flat key → numeric value (null → NaN,
/// strings only for the `bench` name which we keep separately).
struct BenchFile {
    seed: Option<f64>,
    sites: Option<f64>,
    metrics: BTreeMap<String, f64>,
}

/// Parse the restricted JSON `write_bench_json` emits: one flat object,
/// string or numeric or null values, one `"key": value` pair per line.
fn parse_bench(text: &str) -> BenchFile {
    let mut metrics = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, value)) = rest.split_once("\":") else {
            continue;
        };
        let value = value.trim();
        let num = if value == "null" {
            f64::NAN
        } else if let Ok(v) = value.parse::<f64>() {
            v
        } else {
            continue; // string field (the bench name)
        };
        metrics.insert(key.to_string(), num);
    }
    BenchFile {
        seed: metrics.remove("seed"),
        sites: metrics.remove("sites"),
        metrics,
    }
}

fn load(path: &Path) -> Option<BenchFile> {
    std::fs::read_to_string(path).ok().map(|t| parse_bench(&t))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threshold: f64 = args
        .iter()
        .position(|a| a == "--threshold")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(25.0);
    let dirs: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let dirs: Vec<&String> = dirs
        .iter()
        .enumerate()
        .filter(|(i, _)| !matches!(args.iter().position(|a| a == "--threshold"), Some(p) if *i == p + 1))
        .map(|(_, a)| *a)
        .collect();
    let [baseline_dir, candidate_dir] = dirs.as_slice() else {
        eprintln!("usage: benchdiff <baseline-dir> <candidate-dir> [--threshold <pct>]");
        return ExitCode::from(2);
    };

    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read baseline dir {baseline_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!("no BENCH_*.json baselines in {baseline_dir}");
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    for name in &names {
        // A listed file can still fail to read (permissions, races);
        // name it instead of panicking.
        let base_path = Path::new(baseline_dir).join(name);
        let Some(base) = load(&base_path) else {
            println!("FAIL {name}: cannot read baseline {}", base_path.display());
            failures += 1;
            continue;
        };
        let Some(cand) = load(&Path::new(candidate_dir).join(name)) else {
            println!("FAIL {name}: candidate file missing");
            failures += 1;
            continue;
        };
        let mut file_fail = false;
        let mut compared = 0usize;
        for key in base.metrics.keys() {
            if !cand.metrics.contains_key(key) {
                println!("FAIL {name}: key {key:?} disappeared");
                file_fail = true;
            }
        }
        if base.seed != cand.seed || base.sites != cand.sites {
            println!(
                "FAIL {name}: medians not comparable (seed/sites differ: \
                 baseline {:?}/{:?}, candidate {:?}/{:?})",
                base.seed, base.sites, cand.seed, cand.sites
            );
            file_fail = true;
        } else {
            for (key, bval) in &base.metrics {
                if !key.ends_with("_median_ms") || !bval.is_finite() || *bval <= 0.0 {
                    continue;
                }
                let Some(cval) = cand.metrics.get(key).filter(|v| v.is_finite()) else {
                    continue;
                };
                compared += 1;
                let pct = (cval - bval) / bval * 100.0;
                if pct > threshold {
                    println!(
                        "FAIL {name}: {key} regressed {pct:+.1}% \
                         ({bval:.1} ms -> {cval:.1} ms, threshold {threshold}%)"
                    );
                    file_fail = true;
                } else if pct < -threshold {
                    println!(
                        "note {name}: {key} improved {pct:+.1}% \
                         ({bval:.1} ms -> {cval:.1} ms)"
                    );
                }
            }
        }
        if file_fail {
            failures += 1;
        } else {
            println!(
                "ok   {name}: {} key(s) present, {compared} median(s) compared",
                base.metrics.len()
            );
        }
    }
    if failures > 0 {
        println!("benchdiff: {failures}/{} bench file(s) failed", names.len());
        ExitCode::FAILURE
    } else {
        println!("benchdiff: all {} bench file(s) within bounds", names.len());
        ExitCode::SUCCESS
    }
}
