//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--span-out FILE] [--write-oracle DIR]`
//!
//! Prints the human-readable report, then one JSON result line. With
//! `--write-oracle`, records the workload's simulated outputs at the
//! default seed into `DIR/<workload>.txt` instead.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::chunk::{self, Pass, CHUNK_FLAG};
use perfbench::oracle;
use perfbench::run::run;
use perfbench::timed::{self, soak_once, SOAK_FLAG};
use perfbench::workload::{Setup, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    span_out: Option<String>,
    write_oracle: Option<String>,
    /// Work one chunk of sites and print it (a worker process).
    chunk: Option<(Pass, usize, usize)>,
    /// Run one soak world and print it (a worker process).
    soak_world: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Broadband,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        span_out: None,
        write_oracle: None,
        chunk: None,
        soak_world: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--span-out" => args.span_out = Some(value()?),
            "--write-oracle" => args.write_oracle = Some(value()?),
            CHUNK_FLAG => {
                let pass = value()?;
                let pass = Pass::parse(&pass).ok_or(format!("unknown pass {pass:?}"))?;
                let first = value()?.parse().map_err(|e| format!("{CHUNK_FLAG}: {e}"))?;
                let count = value()?.parse().map_err(|e| format!("{CHUNK_FLAG}: {e}"))?;
                args.chunk = Some((pass, first, count));
            }
            SOAK_FLAG => args.soak_world = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn write_oracle(workload: Workload, dir: &str) -> std::io::Result<()> {
    let setup = Setup::new(workload, DEFAULT_SEED);
    let mut text = oracle::header(workload);
    if workload == Workload::Soak {
        let site = mm_corpus::materialize(&setup.plans[0]);
        text.push_str(&oracle::soak_line(&soak_once(&setup, &site).output));
        text.push('\n');
    } else {
        for c in chunk::every_site(&setup, Pass::Timed) {
            for r in &c.records {
                text.push_str(&oracle::load_line(r.site as usize, &r.output()));
                text.push('\n');
            }
        }
    }
    let path = format!("{dir}/{}.txt", workload.name());
    std::fs::write(&path, text)?;
    eprintln!("wrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.chunk.is_some() || args.soak_world {
        // A worker: its own set-up is timed, as part of `setup_s`.
        let t0 = Instant::now();
        let setup = Setup::new(args.workload, args.seed);
        let plan_ns = t0.elapsed().as_nanos() as u64;
        let text = match args.chunk {
            Some((pass, first, count)) => {
                chunk::work(&setup, plan_ns, pass, first, count).to_text()
            }
            None => timed::soak_worker(&setup, plan_ns).to_text(),
        };
        print!("{text}");
        return ExitCode::SUCCESS;
    }
    if let Some(dir) = &args.write_oracle {
        return match write_oracle(args.workload, dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: writing the oracle: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = run(args.workload, args.seed, args.seconds, args.trace);
    if let (true, Some(path)) = (args.trace, &args.span_out) {
        if let Err(e) = std::fs::write(path, outcome.spans.to_jsonl()) {
            eprintln!("perfbench: writing spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{}", perfbench::report::text(&outcome));
    println!("{}", perfbench::report::json(&outcome, args.trace));
    ExitCode::SUCCESS
}
