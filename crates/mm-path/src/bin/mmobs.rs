//! `mmobs` — the one analyzer over the observer artifacts the
//! experiment bins write (synopsis in `USAGE`):
//!
//! - `graph`: render a capture into per-link throughput and
//!   queueing-delay SVG/CSV pairs plus per-load HTTP waterfalls;
//! - `path`: per page load, validate the span tree and print the
//!   critical-path attribution table (exit 1 unless every path sums
//!   exactly to its PLT); `--diff` pairs loads by root URL across two
//!   files, or across one file's two arm labels (exit 1 when none pair);
//! - `audit`: print the violation table (exit 1 on any violation);
//!   `--compare` exits 1 when any digest scope differs or is missing.
//!
//! A directory input to `graph` or `audit` means the artifact file
//! inside it. Usage errors — an unknown subcommand or flag, a flag
//! without its value, the wrong number of inputs — exit 2, as do
//! unreadable audit reports; other read and parse failures exit 1.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mm_audit::{ParsedAudit, ParsedViolation};
use mm_capture::parse_capture_bytes;
use mm_graph::{render_capture, DEFAULT_BIN_MS};
use mm_path::{
    build_pages, critical_path, paired_loads, render_attribution, render_diff, validate,
    waterfall_svg, PageTree,
};

const USAGE: &str = "\
usage: mmobs graph <capture.jsonl|capture.bin|dir> [--out <dir>] [--bin-ms <n>]
       mmobs path <spans.jsonl> [--out <dir>]
       mmobs path --diff <a.jsonl> [<b.jsonl>] [--out <dir>]
       mmobs audit <audit.jsonl|dir>...
       mmobs audit --compare <a> <b>";

/// Why a subcommand stopped: the process exit code and a message.
struct Failure(u8, String);

fn usage(msg: impl Into<String>) -> Failure {
    Failure(2, msg.into())
}

fn failed(msg: impl Into<String>) -> Failure {
    Failure(1, msg.into())
}

type Outcome = Result<ExitCode, Failure>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = match sub.as_str() {
        "graph" => graph(rest),
        "path" => path(rest),
        "audit" => audit(rest),
        other => Err(usage(format!("unknown subcommand {other:?}"))),
    };
    outcome.unwrap_or_else(|Failure(code, msg)| {
        eprintln!("mmobs {sub}: {msg}");
        if code == 2 {
            eprintln!("{USAGE}");
        }
        ExitCode::from(code)
    })
}

/// Parsed arguments: inputs in order, valued flags, bare switches.
#[derive(Default)]
struct Args {
    inputs: Vec<String>,
    values: BTreeMap<&'static str, String>,
    switches: BTreeSet<&'static str>,
}

impl Args {
    /// Split `args` by the subcommand's `valued` flags and `switches`.
    /// Any other `-`-prefixed word, or a valued flag with no value
    /// after it, is a usage error.
    fn parse(
        args: &[String],
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Args, Failure> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(&flag) = valued.iter().find(|f| **f == arg) {
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| usage(format!("{flag} requires a value")))?;
                out.values.insert(flag, value.clone());
            } else if let Some(&switch) = switches.iter().find(|s| **s == arg) {
                out.switches.insert(switch);
            } else if arg.starts_with('-') {
                return Err(usage(format!("unknown flag {arg:?}")));
            } else {
                out.inputs.push(arg.clone());
            }
        }
        Ok(out)
    }

    fn out_dir(&self) -> Option<&Path> {
        self.values.get("--out").map(Path::new)
    }
}

/// An input argument as a file: a directory means the first of `names`
/// inside it that exists (else the first name, so the read reports it).
fn resolve(arg: &str, names: &[&str]) -> PathBuf {
    let p = Path::new(arg);
    if !p.is_dir() {
        return p.to_path_buf();
    }
    names
        .iter()
        .map(|n| p.join(n))
        .find(|c| c.is_file())
        .unwrap_or_else(|| p.join(names[0]))
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write one artifact into `dir` (created on demand) and report it.
fn write_artifact(dir: &Path, name: &str, content: &str) -> Result<(), Failure> {
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, content))
        .map_err(|e| failed(format!("could not write {}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    Ok(())
}

// --- graph -------------------------------------------------------------

fn graph(args: &[String]) -> Outcome {
    let args = Args::parse(args, &["--out", "--bin-ms"], &[])?;
    let [input] = args.inputs.as_slice() else {
        return Err(usage("graph takes exactly one capture"));
    };
    let bin_ms = match args.values.get("--bin-ms") {
        None => DEFAULT_BIN_MS,
        Some(v) => v
            .parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| usage(format!("--bin-ms wants a positive integer, got {v:?}")))?,
    };
    let file = resolve(input, &["capture.jsonl", "capture.bin"]);
    let bytes =
        std::fs::read(&file).map_err(|e| failed(format!("read {}: {e}", file.display())))?;
    let captures = parse_capture_bytes(&bytes)
        .map_err(|e| failed(format!("parse {}: {e}", file.display())))?;
    if captures.is_empty() {
        return Err(failed(format!("{} holds no events", file.display())));
    }
    let out_dir = match args.out_dir() {
        Some(dir) => dir.to_path_buf(),
        None => file.parent().map_or_else(|| ".".into(), Path::to_path_buf),
    };
    let mut written = 0usize;
    for data in &captures {
        if data.dropped > 0 {
            eprintln!(
                "mmobs graph: load {}: {} events were dropped at capture time (caps hit); \
                 graphs undercount",
                data.load, data.dropped
            );
        }
        for artifact in render_capture(data, bin_ms) {
            write_artifact(&out_dir, &artifact.name, &artifact.content)?;
            written += 1;
        }
    }
    println!(
        "mmobs graph: {} loads, {written} artifacts, bin {bin_ms} ms",
        captures.len()
    );
    Ok(ExitCode::SUCCESS)
}

// --- path --------------------------------------------------------------

fn load_pages(path: &str) -> Result<Vec<PageTree>, Failure> {
    let text = read_text(Path::new(path)).map_err(failed)?;
    let spans = mm_trace::parse_spans_jsonl(&text).map_err(|e| failed(format!("{path}: {e}")))?;
    Ok(build_pages(&spans))
}

fn path(args: &[String]) -> Outcome {
    let args = Args::parse(args, &["--out"], &["--diff"])?;
    match (args.switches.contains("--diff"), args.inputs.as_slice()) {
        (false, [input]) => attribution(input, args.out_dir()),
        (true, [a]) => {
            // One file: split the arms by the page spans' detail labels.
            let pages = load_pages(a)?;
            let labels: BTreeSet<String> = pages.iter().map(|t| t.page.detail.clone()).collect();
            let [la, lb]: [String; 2] =
                labels
                    .into_iter()
                    .collect::<Vec<_>>()
                    .try_into()
                    .map_err(|labels| {
                        failed(format!(
                            "--diff with one file needs exactly two arm labels, found {labels:?}"
                        ))
                    })?;
            let (pa, pb): (Vec<_>, Vec<_>) = pages.into_iter().partition(|t| t.page.detail == la);
            diff(&pa, &pb, &la, &lb, args.out_dir())
        }
        (true, [a, b]) => diff(&load_pages(a)?, &load_pages(b)?, a, b, args.out_dir()),
        (false, _) => Err(usage("path takes exactly one span file")),
        (true, _) => Err(usage("path --diff takes one or two span files")),
    }
}

fn attribution(input: &str, out_dir: Option<&Path>) -> Outcome {
    let pages = load_pages(input)?;
    if pages.is_empty() {
        return Err(failed(format!("{input}: no page spans found")));
    }
    let mut exact = true;
    let mut report = String::new();
    for tree in &pages {
        for err in validate(tree) {
            eprintln!("load {}: malformed tree: {err}", tree.page.load);
            exact = false;
        }
        let path = critical_path(tree);
        let sum: u64 = path.iter().map(|s| s.dur_ns()).sum();
        if sum != tree.plt_ns() {
            eprintln!(
                "load {}: critical path sums to {sum} ns, PLT is {} ns",
                tree.page.load,
                tree.plt_ns()
            );
            exact = false;
        }
        let table = render_attribution(tree, &path);
        println!("{table}");
        report.push_str(&table);
        report.push('\n');
        if let Some(dir) = out_dir {
            let name = format!("waterfall-load{}.svg", tree.page.load);
            write_artifact(dir, &name, &waterfall_svg(tree))?;
        }
    }
    if let Some(dir) = out_dir {
        write_artifact(dir, "attribution.txt", &report)?;
    }
    if exact {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn diff(a: &[PageTree], b: &[PageTree], la: &str, lb: &str, out_dir: Option<&Path>) -> Outcome {
    if paired_loads(a, b) == 0 {
        return Err(failed(format!(
            "--diff: no pairs matched: {la} ({} load(s)) and {lb} ({} load(s)) \
             share no root URLs",
            a.len(),
            b.len()
        )));
    }
    let table = render_diff(a, b, la, lb);
    print!("{table}");
    if let Some(dir) = out_dir {
        write_artifact(dir, "diff.txt", &table)?;
    }
    Ok(ExitCode::SUCCESS)
}

// --- audit -------------------------------------------------------------

/// Fold the report `arg` names into `into`.
fn load_audit(arg: &str, into: &mut ParsedAudit) -> Result<(), Failure> {
    let path = resolve(arg, &["audit.jsonl"]);
    let text = read_text(&path).map_err(usage)?;
    into.add_jsonl(&text)
        .map_err(|e| usage(format!("{}: {e}", path.display())))
}

fn audit(args: &[String]) -> Outcome {
    let args = Args::parse(args, &[], &["--compare"])?;
    match (args.switches.contains("--compare"), args.inputs.as_slice()) {
        (true, [a, b]) => compare(a, b),
        (true, _) => Err(usage("--compare takes exactly two reports")),
        (false, []) => Err(usage("audit takes at least one report")),
        (false, inputs) => report(inputs),
    }
}

fn report(inputs: &[String]) -> Outcome {
    let mut combined = ParsedAudit::default();
    for input in inputs {
        load_audit(input, &mut combined)?;
    }
    println!(
        "{} load(s): {} packet event(s), {} flow sample(s), {} span(s), {} digest scope(s)",
        combined.loads,
        combined.packets,
        combined.samples,
        combined.spans,
        combined.digests.len()
    );
    if combined.violations.is_empty() && combined.dropped_violations == 0 {
        println!("no violations");
        return Ok(ExitCode::SUCCESS);
    }
    // Group by code; show each code's count, one example scope/detail.
    let mut by_code: BTreeMap<&str, (u64, &ParsedViolation)> = BTreeMap::new();
    for v in &combined.violations {
        by_code
            .entry(&v.code)
            .and_modify(|e| e.0 += 1)
            .or_insert((1, v));
    }
    println!();
    println!("{:<24} {:>7}  example", "violation", "count");
    println!("{:-<24} {:->7}  {:-<40}", "", "", "");
    for (code, (count, example)) in &by_code {
        println!(
            "{code:<24} {count:>7}  [load {}] {}: {}",
            example.load, example.scope, example.detail
        );
    }
    if combined.dropped_violations > 0 {
        println!(
            "... and {} violation(s) dropped past the per-load cap",
            combined.dropped_violations
        );
    }
    println!();
    println!("{} violation(s) total", combined.violations.len());
    Ok(ExitCode::FAILURE)
}

fn compare(a_arg: &str, b_arg: &str) -> Outcome {
    let (mut a, mut b) = (ParsedAudit::default(), ParsedAudit::default());
    load_audit(a_arg, &mut a)?;
    load_audit(b_arg, &mut b)?;
    if a.digests.is_empty() || b.digests.is_empty() {
        return Err(usage("no digests to compare (was the run audited?)"));
    }
    let mut bad = 0u64;
    for (scope, ha) in &a.digests {
        match b.digests.get(scope) {
            None => {
                println!("scope {scope}: only in {a_arg}");
                bad += 1;
            }
            Some(hb) if hb != ha => {
                println!("scope {scope}: {ha:016x} != {hb:016x}");
                bad += 1;
            }
            Some(_) => {}
        }
    }
    for scope in b.digests.keys() {
        if !a.digests.contains_key(scope) {
            println!("scope {scope}: only in {b_arg}");
            bad += 1;
        }
    }
    if bad > 0 {
        println!(
            "{bad} of {} scope(s) differ: runs are NOT equivalent",
            a.digests.len().max(b.digests.len())
        );
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "{} digest scope(s) identical: runs are equivalent",
        a.digests.len()
    );
    Ok(ExitCode::SUCCESS)
}
