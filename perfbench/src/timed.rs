//! Simulated outputs and their checks, and the soak's timed pass: soak
//! worlds through `run_soak`, back to back, closed loop, each in a
//! worker process of its own.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mahimahi::metrics::Registry;
use mahimahi::soak::{run_soak, SoakResult};
use mm_browser::PageLoadResult;
use mm_corpus::materialize;
use mm_record::StoredSite;
use mm_trace::Span;

use crate::workload::Setup;
use crate::{chunk, oracle, rss};

/// The simulated outputs of one page load that the output checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOutput {
    pub plt_ns: u64,
    pub resources: u64,
    pub body_bytes: u64,
    pub failures: u64,
}

impl LoadOutput {
    pub fn of(r: &PageLoadResult) -> LoadOutput {
        LoadOutput {
            plt_ns: r.plt.as_nanos(),
            resources: r.resource_count() as u64,
            body_bytes: r.total_body_bytes,
            failures: r.failures,
        }
    }
}

/// Observer checks of one load: the audit is clean, the span stream
/// holds one page whose span is the PLT, and its critical path sums
/// exactly to it.
pub fn observers_ok(report_clean: bool, spans: &[Span], plt_ns: u64) -> bool {
    let pages = mm_path::build_pages(spans);
    report_clean
        && pages.len() == 1
        && pages[0].plt_ns() == plt_ns
        && mm_path::critical_path(&pages[0])
            .iter()
            .map(|s| s.dur_ns())
            .sum::<u64>()
            == plt_ns
}

/// The simulated outputs of one soak world that the output checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakOutput {
    pub started: u64,
    pub completed: u64,
    pub shed: u64,
    pub resources: u64,
    pub failures: u64,
    pub plt_p50_ms: f64,
    pub plt_p95_ms: f64,
    pub plt_p99_ms: f64,
    pub completed_at_ns: u64,
    pub server_conns_final: u64,
    pub client_sockets_final: u64,
}

impl SoakOutput {
    pub fn of(r: &SoakResult) -> SoakOutput {
        SoakOutput {
            started: r.sessions_started,
            completed: r.sessions_completed,
            shed: r.sessions_shed,
            resources: r.resources_fetched,
            failures: r.failures,
            plt_p50_ms: r.plt_p50_ms,
            plt_p95_ms: r.plt_p95_ms,
            plt_p99_ms: r.plt_p99_ms,
            completed_at_ns: r.completed_at.as_nanos(),
            server_conns_final: r.server_conns_final as u64,
            client_sockets_final: r.client_sockets_final as u64,
        }
    }

    /// Parse [`oracle::soak_line`]; `None` if malformed.
    pub fn from_line(line: &str) -> Option<SoakOutput> {
        let mut words = line.strip_prefix("soak ")?.split(' ');
        let mut field = |name: &str| -> Option<&str> {
            (words.next()? == name).then_some(())?;
            words.next()
        };
        let out = SoakOutput {
            started: field("started")?.parse().ok()?,
            completed: field("completed")?.parse().ok()?,
            shed: field("shed")?.parse().ok()?,
            resources: field("resources")?.parse().ok()?,
            failures: field("failures")?.parse().ok()?,
            plt_p50_ms: field("plt_p50_ms")?.parse().ok()?,
            plt_p95_ms: field("plt_p95_ms")?.parse().ok()?,
            plt_p99_ms: field("plt_p99_ms")?.parse().ok()?,
            completed_at_ns: field("completed_at_ns")?.parse().ok()?,
            server_conns_final: field("server_conns_final")?.parse().ok()?,
            client_sockets_final: field("client_sockets_final")?.parse().ok()?,
        };
        words.next().is_none().then_some(out)
    }

    /// Connection tables drained and every fetch succeeded.
    pub fn drained_clean(&self) -> bool {
        self.server_conns_final == 0 && self.client_sockets_final == 0 && self.failures == 0
    }
}

/// One soak world, as a worker process reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedSoak {
    /// Host time of `run_soak`.
    pub wall_ns: u64,
    /// Host time of the worker's set-up: planning and traces, and
    /// materializing the soak's page.
    pub plan_ns: u64,
    pub materialize_ns: u64,
    pub output: SoakOutput,
    /// The world's registry, parsed from its Prometheus text snapshot.
    pub registry: BTreeMap<String, f64>,
    /// Sample lines in the snapshot.
    pub series: u64,
    /// Sum of the session PLTs (the registry's PLT histogram sum), s.
    pub plt_sum_s: f64,
    /// The worker's peak RSS, and its RSS before and after the world, MiB.
    pub peak_rss_mb: f64,
    pub rss_start_mb: f64,
    pub rss_end_mb: f64,
}

impl TimedSoak {
    /// RSS the world left behind, KiB.
    pub fn growth_kb(&self) -> f64 {
        (self.rss_end_mb - self.rss_start_mb) * 1024.0
    }

    pub fn to_text(&self) -> String {
        let mut out = format!(
            "world {} {} {} {} {:?} {:?} {:?} {:?}\n{}\n",
            self.wall_ns,
            self.plan_ns,
            self.materialize_ns,
            self.series,
            self.plt_sum_s,
            self.peak_rss_mb,
            self.rss_start_mb,
            self.rss_end_mb,
            oracle::soak_line(&self.output),
        );
        for (name, value) in &self.registry {
            out.push_str(&format!("reg {name} {value:?}\n"));
        }
        out
    }

    /// Parse [`TimedSoak::to_text`]; `None` if malformed.
    pub fn from_text(text: &str) -> Option<TimedSoak> {
        let mut lines = text.lines();
        let w: Vec<&str> = lines.next()?.strip_prefix("world ")?.split(' ').collect();
        let [wall, plan, mat, series, plt, peak, start, end] = w[..] else {
            return None;
        };
        let output = SoakOutput::from_line(lines.next()?)?;
        let mut registry = BTreeMap::new();
        for line in lines {
            let (name, value) = line.strip_prefix("reg ")?.split_once(' ')?;
            registry.insert(name.to_string(), value.parse().ok()?);
        }
        Some(TimedSoak {
            wall_ns: wall.parse().ok()?,
            plan_ns: plan.parse().ok()?,
            materialize_ns: mat.parse().ok()?,
            output,
            registry,
            series: series.parse().ok()?,
            plt_sum_s: plt.parse().ok()?,
            peak_rss_mb: peak.parse().ok()?,
            rss_start_mb: start.parse().ok()?,
            rss_end_mb: end.parse().ok()?,
        })
    }
}

/// Run one soak world over `site` in this process.
pub fn soak_once(setup: &Setup, site: &StoredSite) -> TimedSoak {
    let spec = setup.soak_spec(site);
    let registry = Registry::new();
    let rss_start_mb = rss::rss_mb();
    let t0 = Instant::now();
    let result = run_soak(&spec, &registry);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let rss_end_mb = rss::rss_mb();
    let (samples, series) = parse_prometheus(&registry.encode());
    let plt_sum_s = samples.get("soak_plt_seconds_sum").copied().unwrap_or(0.0);
    TimedSoak {
        wall_ns,
        plan_ns: 0,
        materialize_ns: 0,
        output: SoakOutput::of(&result),
        registry: samples,
        series,
        plt_sum_s,
        peak_rss_mb: rss::peak_rss_mb(),
        rss_start_mb,
        rss_end_mb,
    }
}

/// Worker side: materialize the soak's page and run one world.
/// `plan_ns` is what this worker's set-up took.
pub fn soak_worker(setup: &Setup, plan_ns: u64) -> TimedSoak {
    let t0 = Instant::now();
    let site = materialize(&setup.plans[0]);
    let materialize_ns = t0.elapsed().as_nanos() as u64;
    TimedSoak {
        plan_ns,
        materialize_ns,
        ..soak_once(setup, &site)
    }
}

/// The soak's timed pass: `worlds` soak worlds, each in a worker process
/// of its own, one after another. A world that would start after `cap`
/// is skipped; the caller reports the shortfall.
pub fn timed_soak(setup: &Setup, worlds: usize, cap: Duration) -> Vec<TimedSoak> {
    let start = Instant::now();
    let mut runs = Vec::with_capacity(worlds);
    while runs.len() < worlds && (runs.is_empty() || start.elapsed() < cap) {
        let text = chunk::run_worker(setup, &[SOAK_FLAG]);
        runs.push(TimedSoak::from_text(&text).expect("soak worker output is well formed"));
    }
    runs
}

/// The flag that makes the benchmark binary a soak worker.
pub const SOAK_FLAG: &str = "--soak-world";

/// Unlabeled sample values of a Prometheus text snapshot, plus the
/// number of sample lines (labeled ones included).
pub fn parse_prometheus(text: &str) -> (BTreeMap<String, f64>, u64) {
    let mut values = BTreeMap::new();
    let mut series = 0;
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        series += 1;
        let mut parts = line.split_whitespace();
        if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
            if !name.contains('{') {
                if let Ok(v) = value.parse::<f64>() {
                    values.insert(name.to_string(), v);
                }
            }
        }
    }
    (values, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_worlds_round_trip_through_text() {
        let world = TimedSoak {
            wall_ns: 7,
            plan_ns: 8,
            materialize_ns: 9,
            output: SoakOutput {
                started: 120,
                completed: 112,
                shed: 0,
                resources: 1360,
                failures: 0,
                plt_p50_ms: 1234.5,
                plt_p95_ms: 0.1,
                plt_p99_ms: 1e-7,
                completed_at_ns: 125_000_000_001,
                server_conns_final: 0,
                client_sockets_final: 0,
            },
            registry: BTreeMap::from([("sim_events_host_total".to_string(), 419268.0)]),
            series: 255,
            plt_sum_s: 1.0 / 3.0,
            peak_rss_mb: 81.25,
            rss_start_mb: 20.5,
            rss_end_mb: 80.0,
        };
        assert_eq!(TimedSoak::from_text(&world.to_text()), Some(world));
        assert_eq!(TimedSoak::from_text("world 1 2"), None);
    }
}
