//! Worker processes: each loads one chunk of a workload's sites and
//! hands the parent one line per site.
//!
//! `run_page_load` leaves every load's world behind (about 3 MB per
//! broadband load), so a process that loads the whole 500-site corpus
//! several times would hold gigabytes. Every per-site pass therefore runs
//! in chunks of [`CHUNK_SITES`] sites, each in a fresh child process,
//! one at a time. Small chunks also spread each site's loads over many
//! processes: on a shared host, a process runs fast or slow as a whole
//! (see `NOTES.md`), and many processes per run average that out.

use std::time::{Duration, Instant};

use mahimahi::harness::run_page_load;
use mm_audit::Auditor;
use mm_corpus::materialize;
use mm_trace::TraceBuffer;

use crate::rss;
use crate::timed::{observers_ok, LoadOutput};
use crate::workload::Setup;
use crate::world::{run_world, WorldRun};

/// Sites per worker process.
pub const CHUNK_SITES: usize = 25;

/// The flag that makes the benchmark binary a worker.
pub const CHUNK_FLAG: &str = "--chunk";

/// What a worker does with each site of its chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Time `run_page_load`, with the workload's observers.
    Timed,
    /// Run the bench-built world: step timing per tag, counters, and the
    /// workload's observers.
    Trace,
}

impl Pass {
    pub fn name(self) -> &'static str {
        match self {
            Pass::Timed => "timed",
            Pass::Trace => "trace",
        }
    }

    pub fn parse(s: &str) -> Option<Pass> {
        [Pass::Timed, Pass::Trace]
            .into_iter()
            .find(|p| p.name() == s)
    }
}

macro_rules! site_record {
    ($($field:ident),* $(,)?) => {
        /// One site's results, as a worker reports them. Fields a pass
        /// does not measure stay 0. Times are host nanoseconds.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SiteRecord {
            $(pub $field: u64,)*
        }

        impl SiteRecord {
            /// `site <field>...`, in declaration order.
            pub fn to_line(&self) -> String {
                let mut line = String::from("site");
                $(
                    line.push(' ');
                    line.push_str(&self.$field.to_string());
                )*
                line
            }

            /// Parse [`SiteRecord::to_line`]; `None` if malformed.
            pub fn from_line(line: &str) -> Option<SiteRecord> {
                let mut fields = line.strip_prefix("site ")?.split(' ');
                let record = SiteRecord {
                    $($field: fields.next()?.parse().ok()?,)*
                };
                fields.next().is_none().then_some(record)
            }
        }
    };
}

site_record!(
    site,
    plt_ns,
    resources,
    body_bytes,
    failures,
    observers_ok,
    // Host time of the load (timed) or of the whole bench-built world
    // (trace), output checks excluded, and of the site's materialization.
    wall_ns,
    materialize_ns,
    // Start of the load relative to the worker's start (trace).
    t0_ns,
    build_ns,
    events,
    ev_delay,
    ev_host,
    ev_link,
    ev_timer,
    ev_timer_mux,
    ev_fault,
    ev_untagged,
    ns_delay,
    ns_host,
    ns_link,
    ns_timer,
    ns_timer_mux,
    ns_fault,
    ns_untagged,
    heap_high_water,
    delay_up,
    delay_down,
    link_up,
    link_down,
    q_enqueues,
    q_enqueue_ns,
    q_dequeues,
    q_dequeue_ns,
    q_drops,
    q_peak_pkts,
    segments_in,
    conns,
    retransmits,
    rto,
    tlp,
    flow_samples,
    match_misses,
    spans,
);

/// Engine tags in ledger order.
pub const TAGS: [&str; 7] = [
    "delay",
    "host",
    "link",
    "timer",
    "timer_mux",
    "fault",
    "untagged",
];

impl SiteRecord {
    pub fn output(&self) -> LoadOutput {
        LoadOutput {
            plt_ns: self.plt_ns,
            resources: self.resources,
            body_bytes: self.body_bytes,
            failures: self.failures,
        }
    }

    /// (events, self ns) of each tag in [`TAGS`] order.
    pub fn tags(&self) -> [(u64, u64); 7] {
        [
            (self.ev_delay, self.ns_delay),
            (self.ev_host, self.ns_host),
            (self.ev_link, self.ns_link),
            (self.ev_timer, self.ns_timer),
            (self.ev_timer_mux, self.ns_timer_mux),
            (self.ev_fault, self.ns_fault),
            (self.ev_untagged, self.ns_untagged),
        ]
    }

    /// The record of one bench-built world (`wall_ns` is the caller's).
    pub fn of_world(site: usize, run: &WorldRun) -> SiteRecord {
        let o = LoadOutput::of(&run.result);
        let mut r = SiteRecord {
            site: site as u64,
            plt_ns: o.plt_ns,
            resources: o.resources,
            body_bytes: o.body_bytes,
            failures: o.failures,
            build_ns: run.build_ns,
            events: run.events,
            heap_high_water: run.heap_high_water,
            delay_up: run.shells.delay_up,
            delay_down: run.shells.delay_down,
            link_up: run.shells.link_up,
            link_down: run.shells.link_down,
            q_enqueues: run.qdisc.enqueues,
            q_enqueue_ns: run.qdisc.enqueue_ns,
            q_dequeues: run.qdisc.dequeues,
            q_dequeue_ns: run.qdisc.dequeue_ns,
            q_drops: run.qdisc.drops,
            q_peak_pkts: run.qdisc.peak_pkts,
            segments_in: run.net.segments_in,
            conns: run.net.conns,
            retransmits: run.net.retransmits,
            rto: run.net.rto,
            tlp: run.net.tlp,
            flow_samples: run.net.flow_samples,
            match_misses: run.match_misses,
            spans: run.spans.len() as u64,
            ..SiteRecord::default()
        };
        for t in &run.tags {
            let (ev, ns) = match t.tag.as_str() {
                "delay" => (&mut r.ev_delay, &mut r.ns_delay),
                "host" => (&mut r.ev_host, &mut r.ns_host),
                "link" => (&mut r.ev_link, &mut r.ns_link),
                "timer" => (&mut r.ev_timer, &mut r.ns_timer),
                "timer_mux" => (&mut r.ev_timer_mux, &mut r.ns_timer_mux),
                "fault" => (&mut r.ev_fault, &mut r.ns_fault),
                _ => (&mut r.ev_untagged, &mut r.ns_untagged),
            };
            *ev += t.events;
            *ns += t.self_ns;
        }
        r
    }
}

/// One worker's results.
#[derive(Debug, Clone, Default)]
pub struct Chunk {
    pub records: Vec<SiteRecord>,
    /// Host time the worker took to plan the corpus and generate the
    /// traces (its `Setup::new`).
    pub plan_ns: u64,
    /// The worker's peak RSS, and its RSS before the first and after the
    /// last site, MiB.
    pub peak_rss_mb: f64,
    pub rss_start_mb: f64,
    pub rss_end_mb: f64,
    /// When the parent started the worker (not serialized).
    pub started: Option<Instant>,
}

impl Chunk {
    /// RSS growth per load, KiB: what each load leaves behind.
    pub fn growth_kb_per_load(&self) -> f64 {
        (self.rss_end_mb - self.rss_start_mb) * 1024.0 / self.records.len().max(1) as f64
    }

    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "worker {} {:?} {:?} {:?}\n",
            self.plan_ns, self.peak_rss_mb, self.rss_start_mb, self.rss_end_mb
        ));
        out
    }

    pub fn from_text(text: &str) -> Option<Chunk> {
        let mut c = Chunk::default();
        let mut worker_seen = false;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("worker ") {
                let (plan, rss) = rest.split_once(' ')?;
                let v: Vec<f64> = rss
                    .split(' ')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .ok()?;
                let [peak, start, end] = v[..] else {
                    return None;
                };
                c.plan_ns = plan.parse().ok()?;
                (c.peak_rss_mb, c.rss_start_mb, c.rss_end_mb) = (peak, start, end);
                worker_seen = true;
            } else {
                c.records.push(SiteRecord::from_line(line)?);
            }
        }
        (worker_seen && !c.records.is_empty()).then_some(c)
    }
}

/// Worker side: run `pass` over sites `first..first + count` in this
/// process. `plan_ns` is what this worker's set-up took.
pub fn work(setup: &Setup, plan_ns: u64, pass: Pass, first: usize, count: usize) -> Chunk {
    let observed = setup.workload.observed();
    let start = Instant::now();
    let mut chunk = Chunk {
        plan_ns,
        rss_start_mb: rss::rss_mb(),
        ..Chunk::default()
    };
    let end = (first + count).min(setup.plans.len());
    for (i, plan) in setup.plans.iter().enumerate().take(end).skip(first) {
        let t_mat = Instant::now();
        let site = materialize(plan);
        let materialize_ns = t_mat.elapsed().as_nanos() as u64;
        let mut spec = setup.load_spec(&site, i);
        let t0 = Instant::now();
        let mut record = match pass {
            Pass::Timed => {
                // The load ends when `run_page_load` returns and, when
                // observed, the audit is finished; the span and
                // critical-path checks run after the clock stops.
                let observers = observed
                    .then(|| (Auditor::for_load(i as u64), TraceBuffer::for_load(i as u64)));
                if let Some((auditor, buffer)) = &observers {
                    spec.audit = Some(auditor.clone());
                    spec.span = Some(buffer.handle());
                }
                let result = run_page_load(&spec);
                let clean = observers.as_ref().map(|(a, _)| a.finish().is_clean());
                let wall_ns = t0.elapsed().as_nanos() as u64;
                let ok = observers.as_ref().is_none_or(|(_, buffer)| {
                    observers_ok(clean == Some(true), &buffer.spans(), result.plt.as_nanos())
                });
                let o = LoadOutput::of(&result);
                SiteRecord {
                    site: i as u64,
                    plt_ns: o.plt_ns,
                    resources: o.resources,
                    body_bytes: o.body_bytes,
                    failures: o.failures,
                    observers_ok: ok as u64,
                    wall_ns,
                    ..SiteRecord::default()
                }
            }
            Pass::Trace => {
                let run = run_world(&spec, observed, i as u64);
                let wall_ns = t0.elapsed().as_nanos() as u64;
                let clean = run.audit.as_ref().is_none_or(|a| a.is_clean());
                let ok = !observed || observers_ok(clean, &run.spans, run.result.plt.as_nanos());
                SiteRecord {
                    observers_ok: ok as u64,
                    wall_ns,
                    ..SiteRecord::of_world(i, &run)
                }
            }
        };
        record.materialize_ns = materialize_ns;
        record.t0_ns = t0.duration_since(start).as_nanos() as u64;
        chunk.records.push(record);
    }
    chunk.rss_end_mb = rss::rss_mb();
    chunk.peak_rss_mb = rss::peak_rss_mb();
    chunk
}

/// Parent side: run this binary as a worker for `setup` with `args`,
/// wait for it, and return its standard output.
pub fn run_worker(setup: &Setup, args: &[&str]) -> String {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let out = std::process::Command::new(exe)
        .args(args)
        .args([
            "--workload",
            setup.workload.name(),
            "--seed",
            &setup.seed.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a worker process");
    assert!(
        out.status.success(),
        "worker process failed: {}",
        out.status
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Run one worker process over sites `first..first + count` and wait for it.
pub fn spawn(setup: &Setup, pass: Pass, first: usize, count: usize) -> Chunk {
    let started = Instant::now();
    let text = run_worker(
        setup,
        &[
            CHUNK_FLAG,
            pass.name(),
            &first.to_string(),
            &count.to_string(),
        ],
    );
    let mut chunk = Chunk::from_text(&text).expect("worker process output is well formed");
    chunk.started = Some(started);
    chunk
}

/// Run `pass` over every site once, chunk by chunk.
pub fn every_site(setup: &Setup, pass: Pass) -> Vec<Chunk> {
    (0..setup.plans.len())
        .step_by(CHUNK_SITES)
        .map(|first| spawn(setup, pass, first, CHUNK_SITES))
        .collect()
}

/// The timed pass: `cycles` whole cycles over the sites, chunk by chunk,
/// so every site gets the same number of timed loads whatever the host's
/// speed. A cycle that starts after `cap` has passed is skipped, so a
/// host far slower than expected still ends in time; the caller reports
/// the shortfall.
pub fn timed(setup: &Setup, cycles: usize, cap: Duration) -> Vec<Vec<Chunk>> {
    let start = Instant::now();
    let mut done = Vec::with_capacity(cycles);
    while done.len() < cycles && (done.is_empty() || start.elapsed() < cap) {
        done.push(every_site(setup, Pass::Timed));
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_lines() {
        let r = SiteRecord {
            site: 7,
            plt_ns: 123,
            ns_untagged: u64::MAX,
            spans: 1,
            ..SiteRecord::default()
        };
        assert_eq!(SiteRecord::from_line(&r.to_line()), Some(r));
        assert_eq!(SiteRecord::from_line("site 1 2"), None);
        let c = Chunk {
            records: vec![r],
            plan_ns: 42,
            peak_rss_mb: 1.5,
            rss_start_mb: 0.25,
            rss_end_mb: 1.0,
            started: None,
        };
        let back = Chunk::from_text(&c.to_text()).expect("parses");
        assert_eq!(back.records, c.records);
        assert_eq!((back.plan_ns, back.peak_rss_mb), (42, 1.5));
        assert!(Chunk::from_text("worker 1 2").is_none());
    }
}
