//! The shared experiment runner: every `bench/src/bin/*` binary is the
//! same six lines of arg parsing, header printing and JSON writing
//! around a different experiment body. [`ExperimentSpec`] owns that
//! boilerplate so a new experiment binary is just a spec literal.

use std::path::{Path, PathBuf};

use mahimahi::obs::{self, Channel};

use crate::report::{header, write_bench_json};

/// The corpus-wide experiment seed (the paper's publication year).
pub const DEFAULT_SEED: u64 = 2014;

/// Flat `(key, value)` metrics an experiment body hands back for the
/// BENCH JSON file.
pub type Metrics = Vec<(String, f64)>;

/// One experiment binary: name, default scale, and the body.
pub struct ExperimentSpec {
    /// Bench name — also the `BENCH_<name>.json` stem.
    pub name: &'static str,
    /// Default for the first CLI argument (sites or loads per arm).
    pub default_sites: usize,
    /// Section-header title for the parsed scale.
    pub title: fn(n: usize) -> String,
    /// Run the experiment at `(n, seed)`: print the human-readable
    /// tables, return the flat JSON metrics — or `None` for experiments
    /// that do not write a BENCH file (corpus_stats).
    pub run: fn(n: usize, seed: u64) -> Option<Metrics>,
}

/// One observer flag: the channel it turns on, that channel's load
/// budget, and where the channel's JSONL goes after the run.
struct ObsFlag {
    flag: &'static str,
    /// A value-less alias that writes into `.`.
    switch: Option<&'static str>,
    channel: Channel,
    /// Loads the channel records. Flow traces (a few samples per ack)
    /// and audits (bounded ledgers, not logs) are cheap enough for
    /// every load; captures and spans keep only the first few.
    budget: u64,
    /// The file written inside the flag's directory; `None` when the
    /// flag's value is the file itself.
    file: Option<&'static str>,
}

/// Every observer flag, in parse and write order.
const OBS_FLAGS: [ObsFlag; 4] = [
    ObsFlag {
        flag: "--trace-out",
        switch: None,
        channel: Channel::Trace,
        budget: u64::MAX,
        file: None,
    },
    ObsFlag {
        flag: "--capture-out",
        switch: None,
        channel: Channel::Capture,
        budget: obs::DEFAULT_CAPTURE_LOADS,
        file: Some("capture.jsonl"),
    },
    ObsFlag {
        flag: "--span-out",
        switch: None,
        channel: Channel::Spans,
        budget: obs::DEFAULT_SPAN_LOADS,
        file: Some("spans.jsonl"),
    },
    ObsFlag {
        flag: "--audit-out",
        switch: Some("--audit"),
        channel: Channel::Audit,
        budget: u64::MAX,
        file: Some("audit.jsonl"),
    },
];

impl ObsFlag {
    /// The output this flag (or its switch, meaning `.`) names in
    /// `args`. The flag without its value exits with status 2.
    fn out(&self, args: &[String]) -> Option<String> {
        let value = args.iter().position(|a| a == self.flag).map(|i| {
            args.get(i + 1)
                .filter(|p| !p.starts_with("--"))
                .unwrap_or_else(|| {
                    let kind = if self.file.is_some() {
                        "directory"
                    } else {
                        "path"
                    };
                    eprintln!("{} requires a {kind} argument", self.flag);
                    std::process::exit(2);
                })
                .clone()
        });
        let switched = self.switch.is_some_and(|s| args.iter().any(|a| a == s));
        value.or_else(|| switched.then(|| ".".to_string()))
    }

    /// Write the channel's JSONL to `out` (or to `out/<file>`) and
    /// report it.
    fn write(&self, out: &str) {
        let jsonl = obs::take(self.channel);
        let summary = match self.channel {
            Channel::Trace => format!("{} flow samples", jsonl.lines().count()),
            Channel::Capture => format!("{} capture events", jsonl.lines().count()),
            Channel::Spans => format!("{} spans", jsonl.lines().count()),
            Channel::Audit => {
                let violation = "\"ev\":\"violation\"";
                let n = jsonl.lines().filter(|l| l.contains(violation)).count();
                format!("{n} violation{}", if n == 1 { "" } else { "s" })
            }
        };
        let path = match self.file {
            None => PathBuf::from(out),
            Some(file) => Path::new(out).join(file),
        };
        let write = match self.file {
            None => std::fs::write(&path, &jsonl),
            Some(_) => std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, &jsonl)),
        };
        match write {
            Ok(()) => println!("\n  wrote {} ({summary})", path.display()),
            Err(e) => eprintln!("\n  could not write {}: {e}", path.display()),
        }
    }
}

impl ExperimentSpec {
    /// Parse `argv[1]` (falling back to `default_sites`), print the
    /// header, run the body, and write `BENCH_<name>.json` if the body
    /// returned metrics. Binaries call this from `main`.
    ///
    /// Observer flags (after any positional arguments) turn on one
    /// process-global [`Channel`] each and write its JSONL after the
    /// run. Observers only observe: the BENCH output is byte-identical
    /// with any of them on or off.
    ///
    /// | flag | channel, loads | writes | read with |
    /// |---|---|---|---|
    /// | `--trace-out <path>` | per-flow TCP samples, every load | `<path>` | — |
    /// | `--capture-out <dir>` | per-packet and HTTP events, first [`obs::DEFAULT_CAPTURE_LOADS`] | `<dir>/capture.jsonl` | `mmobs graph` |
    /// | `--span-out <dir>` | causal spans, first [`obs::DEFAULT_SPAN_LOADS`] | `<dir>/spans.jsonl` | `mmobs path` |
    /// | `--audit`, `--audit-out <dir>` | conformance audit, every load | `<dir>/audit.jsonl` (default `.`) | `mmobs audit` |
    ///
    /// A flag given without its value exits with status 2.
    pub fn main(&self) {
        let args: Vec<String> = std::env::args().collect();
        let outs: Vec<Option<String>> = OBS_FLAGS
            .iter()
            .map(|f| {
                let out = f.out(&args);
                if out.is_some() {
                    obs::enable(f.channel, f.budget);
                }
                out
            })
            .collect();
        let n = args
            .get(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(self.default_sites);
        header(&(self.title)(n));
        let metrics = (self.run)(n, DEFAULT_SEED);
        for (f, out) in OBS_FLAGS.iter().zip(&outs) {
            if let Some(out) = out {
                f.write(out);
            }
        }
        if let Some(metrics) = metrics {
            match write_bench_json(self.name, DEFAULT_SEED, n, &metrics) {
                Ok(path) => println!("\n  wrote {}", path.display()),
                Err(e) => eprintln!("\n  could not write BENCH_{}.json: {e}", self.name),
            }
        }
    }
}
