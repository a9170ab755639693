//! One benchmark run: the timed pass (with set-up timed inside it), the
//! reference pass, the output checks, and (with tracing) the per-layer
//! ledger.

use std::time::{Duration, Instant};

use mahimahi::harness::run_page_load;
use mm_corpus::materialize;
use mm_record::StoredSite;

use crate::chunk::{self, Chunk, Pass, SiteRecord, TAGS};
use crate::oracle;
use crate::probes;
use crate::spanlog::SpanLog;
use crate::stats::{median, percentile, tail_percentile};
use crate::timed::{self, LoadOutput, TimedSoak};
use crate::workload::{Setup, Workload};
use crate::world::run_world;

/// Tags whose per-event self time the ledger reports (the others do not
/// occur in a single-load world).
const TIMED_TAGS: [&str; 5] = ["delay", "host", "link", "timer", "untagged"];

/// Exact counters that are 0 on some workload by construction (a tag
/// that only one kind of world dispatches, drops behind an infinite
/// queue, observer output on unobserved loads). They are printed with the
/// exact counters but are not in the JSON ledger, where a relative change
/// from 0 means nothing.
const TEXT_ONLY: [&str; 9] = [
    "sim.events.timer",
    "sim.events.timer_mux",
    "sim.events.fault",
    "shells.qdisc.drops",
    "net.tlp",
    "net.flow_samples",
    "replay.match_misses",
    "obs.spans",
    "metrics.series",
];

/// Sites in the fixed subsample the observer and codec probes use.
const PROBE_SITES: usize = 10;

/// No repeat of the timed work starts after this many times the
/// requested seconds, so a host far slower than expected still ends in
/// time.
const CAP_FACTOR: f64 = 3.0;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run reports.
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    /// Timed loads (or soak worlds).
    pub attempted: u64,
    /// Timed loads that failed a fetch or an output check.
    pub failed: u64,
    /// Every auxiliary check held (reference passes, probes).
    pub checks_ok: bool,
    /// End-to-end host-cost metrics, by name.
    pub end_to_end: Vec<Metric>,
    /// Deterministic work counters.
    pub exact: Vec<Metric>,
    /// The traced per-layer ledger (trace runs only).
    pub ledger: Vec<Metric>,
    /// Free-form notes printed with the tables.
    pub notes: Vec<String>,
    /// The traced pass's span log (trace runs only).
    pub spans: SpanLog,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_ok
    }

    /// Add exact counters: all of them to the printed table and, in a
    /// traced run, those that are never 0 by construction to the ledger.
    fn exact_counters(&mut self, rows: Vec<Metric>, trace: bool) {
        if trace {
            self.ledger.extend(
                rows.iter()
                    .filter(|r| !TEXT_ONLY.contains(&r.name.as_str()))
                    .cloned(),
            );
        }
        self.exact.extend(rows);
    }
}

/// Run `workload` at `seed` with about `seconds` of timed work; `trace`
/// adds the per-layer ledger.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let setup = Setup::new(workload, seed);
    let repeats = workload.repeats(seconds);
    let cap = Duration::from_secs_f64(CAP_FACTOR * seconds.max(1.0));
    let mut out = Outcome {
        workload,
        seed,
        attempted: 0,
        failed: 0,
        checks_ok: true,
        end_to_end: Vec::new(),
        exact: Vec::new(),
        ledger: Vec::new(),
        notes: Vec::new(),
        spans: SpanLog::default(),
    };
    match workload {
        Workload::Soak => run_soak(&setup, repeats, cap, trace, &mut out),
        _ => run_replay(&setup, repeats, cap, trace, &mut out),
    }
    out
}

fn run_replay(setup: &Setup, repeats: usize, cap: Duration, trace: bool, out: &mut Outcome) {
    let sites = setup.plans.len();
    let cycles = chunk::timed(setup, repeats, cap);
    if cycles.len() < repeats {
        out.notes.push(format!(
            "time cap: {} of {repeats} cycles ran",
            cycles.len()
        ));
    }
    // The reference pass: one bench-built world per site, timing every
    // engine step and counting every layer's work.
    let reference_chunks = chunk::every_site(setup, Pass::Trace);
    let reference: Vec<SiteRecord> = reference_chunks
        .iter()
        .flat_map(|c| c.records.iter().copied())
        .collect();
    out.checks_ok &= reference.len() == sites
        && reference
            .iter()
            .enumerate()
            .all(|(i, r)| r.site == i as u64 && r.observers_ok == 1);

    // Output checks: every timed load against the reference pass for its
    // site, the committed oracle (default seed), and the observer checks.
    let expected = oracle::expected(setup.workload, setup.seed);
    if let Some(lines) = &expected {
        if lines.len() != sites {
            out.notes.push(format!(
                "oracle holds {} sites, workload has {sites}",
                lines.len()
            ));
            out.checks_ok = false;
        }
    }
    let chunks: Vec<&Chunk> = cycles.iter().flatten().collect();
    let loads: Vec<&SiteRecord> = chunks.iter().flat_map(|c| &c.records).collect();
    for load in &loads {
        let site = load.site as usize;
        let oracle_ok = expected.as_ref().is_none_or(|lines| {
            lines.get(site).copied() == Some(oracle::load_line(site, &load.output()).as_str())
        });
        let ok = load.failures == 0
            && load.observers_ok == 1
            && reference.get(site).map(SiteRecord::output) == Some(load.output())
            && oracle_ok;
        out.attempted += 1;
        if !ok {
            out.failed += 1;
        }
    }

    // Every cycle loads the same sites, and every site gets one load per
    // cycle. Other tenants of the host only ever slow a load down, so
    // each site is charged its fastest load of the run, and the host-time
    // metrics are those of this composite cycle.
    let mut fastest: Vec<&SiteRecord> = loads[..sites].to_vec();
    for load in &loads {
        let best = &mut fastest[load.site as usize];
        if load.wall_ns < best.wall_ns {
            *best = load;
        }
    }
    let walls_ms: Vec<f64> = fastest.iter().map(|l| l.wall_ns as f64 / 1e6).collect();
    let wall_s = walls_ms.iter().sum::<f64>() / 1e3;
    let sim_s: f64 = fastest.iter().map(|l| l.plt_ns as f64 / 1e9).sum();
    let events: u64 = reference.iter().map(|r| r.events).sum();
    let tail_p = tail_percentile(sites);
    // Each cycle is one complete set-up: a worker's corpus plan and
    // traces (charged once per cycle, the median worker's) plus every
    // site's materialization.
    let setups_s: Vec<f64> = cycles
        .iter()
        .map(|cycle| {
            let plan_ns = median(&cycle.iter().map(|c| c.plan_ns as f64).collect::<Vec<_>>());
            let mat_ns: u64 = cycle
                .iter()
                .flat_map(|c| &c.records)
                .map(|r| r.materialize_ns)
                .sum();
            (plan_ns + mat_ns as f64) / 1e9
        })
        .collect();
    // Host ms per load of each worker: the spread shows the host noise
    // the fastest-load rule filters out.
    let worker_ms: Vec<f64> = chunks
        .iter()
        .map(|c| chunk_wall_ns(c) as f64 / 1e6 / c.records.len() as f64)
        .collect();
    let (lo, hi) = worker_ms
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    out.notes.push(format!(
        "{} cycles of {sites} sites, {} timed loads in {} worker processes; each site is \
         charged its fastest load; tail is p{tail_p} of the {sites} sites; workers took \
         {lo:.2} to {hi:.2} ms per load",
        cycles.len(),
        loads.len(),
        chunks.len(),
    ));
    // Memory comes from the first cycle's workers: the same loads in
    // every run, however many cycles the host managed.
    let first = &cycles[0];
    let growth_kb = median(
        &first
            .iter()
            .map(Chunk::growth_kb_per_load)
            .collect::<Vec<_>>(),
    );
    out.end_to_end = vec![
        m("loads_per_s", sites as f64 / wall_s, "1/s"),
        m("load_wall_ms_p50", median(&walls_ms), "ms"),
        m("load_wall_ms_tail", percentile(&walls_ms, tail_p), "ms"),
        m("sim_s_per_wall_s", sim_s / wall_s, "s/s"),
        m("events_per_s", events as f64 / wall_s, "1/s"),
        m(
            "peak_rss_mb",
            median(&first.iter().map(|c| c.peak_rss_mb).collect::<Vec<_>>()),
            "MB",
        ),
        m("setup_s", median(&setups_s), "s"),
    ];
    out.notes.push(format!(
        "peak_rss_mb is the median VmHWM of the first cycle's workers ({} sites each); RSS \
         grew {growth_kb:.0} KB per load; setup_s is the median of {} cycles' set-ups",
        chunk::CHUNK_SITES,
        setups_s.len(),
    ));

    let mut acc = LedgerAcc::default();
    for r in &reference {
        acc.add(r);
    }
    let mut exact = acc.engine_counts();
    exact.extend(acc.layer_counts());
    out.exact_counters(exact, trace);
    if !trace {
        return;
    }
    out.ledger.extend(acc.host_rows());
    record_spans(&reference_chunks, &mut out.spans);
    let stride = (sites / PROBE_SITES).max(1);
    let probe_sites: Vec<(usize, StoredSite)> = (0..sites)
        .step_by(stride)
        .map(|i| (i, materialize(&setup.plans[i])))
        .collect();
    probe_ledger(setup, &probe_sites, out);
    let mat_ms: Vec<f64> = loads
        .iter()
        .map(|l| l.materialize_ns as f64 / 1e6)
        .collect();
    let plan_ms: Vec<f64> = chunks.iter().map(|c| c.plan_ns as f64 / 1e6).collect();
    // Tracing overhead: the reference pass's worlds against the timed
    // pass's loads of the same sites (the median cycle).
    let timed_ms = median(
        &cycles
            .iter()
            .map(|cycle| cycle.iter().map(chunk_wall_ns).sum::<u64>() as f64 / 1e6)
            .collect::<Vec<_>>(),
    ) / sites as f64;
    let traced_ms = acc.wall_ns as f64 / 1e6 / acc.loads.max(1) as f64;
    let l = &mut out.ledger;
    l.push(m("rss.growth_kb_per_load", growth_kb, "KB"));
    l.push(m("corpus.plan_ms", median(&plan_ms), "ms"));
    l.push(m("corpus.materialize_ms", median(&mat_ms), "ms"));
    l.push(m("trace.overhead_ratio", traced_ms / timed_ms, "x"));
    out.notes.push(format!(
        "tracing overhead: traced {traced_ms:.3} ms/load vs timed {timed_ms:.3} ms/load \
         (median cycle), {:+.3} ms",
        traced_ms - timed_ms
    ));
}

/// Host time a worker spent in its loads.
fn chunk_wall_ns(c: &Chunk) -> u64 {
    c.records.iter().map(|r| r.wall_ns).sum()
}

/// The traced pass's spans: one per worker, one per load under it, and
/// under each load its world build and its per-tag dispatch totals.
fn record_spans(chunks: &[Chunk], log: &mut SpanLog) {
    for c in chunks {
        let started = c.started.expect("spawned chunks carry their start");
        let n = c.records.len() as u64;
        let worker = log.record(0, "worker", "trace", started, chunk_wall_ns(c), n);
        for r in &c.records {
            let t0 = started + Duration::from_nanos(r.t0_ns);
            let load = log.record(
                worker,
                "load",
                &format!("site-{}", r.site),
                t0,
                r.wall_ns,
                r.events,
            );
            log.record(load, "build", "world", t0, r.build_ns, 1);
            for (tag, (events, ns)) in TAGS.iter().zip(r.tags()) {
                if events > 0 {
                    log.record(load, "tag", tag, t0, ns, events);
                }
            }
        }
    }
}

/// Ledger sums over bench-built worlds.
#[derive(Default)]
struct LedgerAcc {
    events: [u64; TAGS.len()],
    self_ns: [u64; TAGS.len()],
    build_ns: Vec<f64>,
    wall_ns: u64,
    loads: u64,
    /// Field-wise sums (maxima for the high-water marks).
    sum: SiteRecord,
}

impl LedgerAcc {
    fn add(&mut self, r: &SiteRecord) {
        for (k, (events, ns)) in r.tags().into_iter().enumerate() {
            self.events[k] += events;
            self.self_ns[k] += ns;
        }
        self.build_ns.push(r.build_ns as f64);
        self.wall_ns += r.wall_ns;
        self.loads += 1;
        let s = &mut self.sum;
        s.heap_high_water = s.heap_high_water.max(r.heap_high_water);
        s.q_peak_pkts = s.q_peak_pkts.max(r.q_peak_pkts);
        for (acc, v) in [
            (&mut s.delay_up, r.delay_up),
            (&mut s.delay_down, r.delay_down),
            (&mut s.link_up, r.link_up),
            (&mut s.link_down, r.link_down),
            (&mut s.q_enqueues, r.q_enqueues),
            (&mut s.q_enqueue_ns, r.q_enqueue_ns),
            (&mut s.q_dequeues, r.q_dequeues),
            (&mut s.q_dequeue_ns, r.q_dequeue_ns),
            (&mut s.q_drops, r.q_drops),
            (&mut s.segments_in, r.segments_in),
            (&mut s.conns, r.conns),
            (&mut s.retransmits, r.retransmits),
            (&mut s.rto, r.rto),
            (&mut s.tlp, r.tlp),
            (&mut s.flow_samples, r.flow_samples),
            (&mut s.resources, r.resources),
            (&mut s.match_misses, r.match_misses),
            (&mut s.spans, r.spans),
        ] {
            *acc += v;
        }
    }

    /// Host-time rows: self time per engine tag, world build, qdisc calls.
    fn host_rows(&self) -> Vec<Metric> {
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        let s = &self.sum;
        let mut rows = vec![m(
            "sim.step_ns",
            per(self.self_ns.iter().sum(), self.events.iter().sum()),
            "ns",
        )];
        for tag in TIMED_TAGS {
            let k = TAGS
                .iter()
                .position(|&t| t == tag)
                .expect("timed tag is a tag");
            rows.push(m(
                format!("sim.step_ns.{tag}"),
                per(self.self_ns[k], self.events[k]),
                "ns",
            ));
        }
        rows.extend([
            m("world.build_us", median(&self.build_ns) / 1e3, "us"),
            m(
                "trace.wall_ms_per_load",
                per(self.wall_ns, self.loads) / 1e6,
                "ms",
            ),
            m(
                "shells.qdisc.enqueue_ns",
                per(s.q_enqueue_ns, s.q_enqueues),
                "ns",
            ),
            m(
                "shells.qdisc.dequeue_ns",
                per(s.q_dequeue_ns, s.q_dequeues),
                "ns",
            ),
        ]);
        rows
    }

    /// Exact counters of the shells, hosts and applications.
    fn layer_counts(&self) -> Vec<Metric> {
        let s = &self.sum;
        vec![
            m("shells.packets.delay.up", s.delay_up as f64, "count"),
            m("shells.packets.delay.down", s.delay_down as f64, "count"),
            m("shells.packets.link.up", s.link_up as f64, "count"),
            m("shells.packets.link.down", s.link_down as f64, "count"),
            m("shells.qdisc.peak_pkts", s.q_peak_pkts as f64, "count"),
            m("net.segments_in", s.segments_in as f64, "count"),
            m("net.conns", s.conns as f64, "count"),
            m("net.flow_samples", s.flow_samples as f64, "count"),
            m("browser.resources", s.resources as f64, "count"),
            m("replay.match_misses", s.match_misses as f64, "count"),
            m("obs.spans", s.spans as f64, "count"),
        ]
    }

    /// Exact counters of the engine, the queue and TCP recovery (the soak
    /// takes these from its registry instead).
    fn engine_counts(&self) -> Vec<Metric> {
        let s = &self.sum;
        let mut rows = vec![m(
            "sim.events",
            self.events.iter().sum::<u64>() as f64,
            "count",
        )];
        for (tag, n) in TAGS.iter().zip(self.events) {
            rows.push(m(format!("sim.events.{tag}"), n as f64, "count"));
        }
        rows.extend([
            m("sim.heap_high_water", s.heap_high_water as f64, "count"),
            m("shells.qdisc.drops", s.q_drops as f64, "count"),
            m("net.retransmits", s.retransmits as f64, "count"),
            m("net.rto", s.rto as f64, "count"),
            m("net.tlp", s.tlp as f64, "count"),
        ]);
        rows
    }
}

/// The offline probes shared by every workload: codecs, record round
/// trip, observer channels.
fn probe_ledger(setup: &Setup, sites: &[(usize, StoredSite)], out: &mut Outcome) {
    let root = out.spans.start();
    let plain: Vec<StoredSite> = sites.iter().map(|(_, s)| s.clone()).collect();
    let codecs = probes::codecs(&plain, &mut out.spans, root.id);
    let record = probes::record_roundtrip(&plain[0], &mut out.spans, root.id);
    let observers = probes::observer_cost(setup, sites, &mut out.spans, root.id);
    out.spans.end(root, 0, "pass", "probes", sites.len() as u64);
    for (what, ok) in [
        ("codec", codecs.ok),
        ("record", record.ok),
        ("observer", observers.ok),
    ] {
        if !ok {
            out.notes
                .push(format!("{what} probe failed its round-trip check"));
        }
        out.checks_ok &= ok;
    }
    out.notes.push(format!(
        "observer cost on the probe subsample: bare load {:.3} ms; audit x{:.3}, spans x{:.3}, \
         capture x{:.3}",
        observers.bare_ms_per_load,
        observers.audit_ratio,
        observers.span_ratio,
        observers.capture_ratio,
    ));
    out.ledger.extend([
        m("http.parse_ns_per_kb", codecs.http_parse_ns_per_kb, "ns/KB"),
        m(
            "http.serialize_ns_per_kb",
            codecs.http_serialize_ns_per_kb,
            "ns/KB",
        ),
        m("replay.match_ns", codecs.replay_match_ns, "ns"),
        m(
            "browser.scan_ns_per_kb",
            codecs.browser_scan_ns_per_kb,
            "ns/KB",
        ),
        m("mux.encode_ns_per_kb", codecs.mux_encode_ns_per_kb, "ns/KB"),
        m("mux.decode_ns_per_kb", codecs.mux_decode_ns_per_kb, "ns/KB"),
        m("record.proxy_ms", record.proxy_ms, "ms"),
        m("record.encode_ns_per_kb", record.encode_ns_per_kb, "ns/KB"),
        m("record.decode_ns_per_kb", record.decode_ns_per_kb, "ns/KB"),
        m("obs.audit_ratio", observers.audit_ratio, "x"),
        m("obs.span_ratio", observers.span_ratio, "x"),
        m("obs.capture_ratio", observers.capture_ratio, "x"),
        m("obs.span_encode_ns", observers.span_encode_ns, "ns"),
        m("path.analyze_ns", observers.path_analyze_ns, "ns"),
    ]);
    out.exact_counters(
        vec![
            m("record.pairs", record.pairs as f64, "count"),
            m("record.store_kb", record.store_kb, "KB"),
        ],
        true,
    );
}

fn run_soak(setup: &Setup, repeats: usize, cap: Duration, trace: bool, out: &mut Outcome) {
    let runs = timed::timed_soak(setup, repeats, cap);
    let n = runs.len();
    if n < repeats {
        out.notes
            .push(format!("time cap: {n} of {repeats} soak worlds ran"));
    }

    // Output checks: every world against the first (determinism, exact
    // counters included), the oracle (default seed), drained connection
    // tables, clean fetches.
    let expected = oracle::expected(setup.workload, setup.seed);
    let first = &runs[0];
    for run in &runs {
        let oracle_ok = expected
            .as_ref()
            .is_none_or(|lines| lines.len() == 1 && lines[0] == oracle::soak_line(&run.output));
        out.attempted += 1;
        if !(run.output == first.output
            && run.registry == first.registry
            && run.output.drained_clean()
            && oracle_ok)
        {
            out.failed += 1;
        }
    }

    let events = soak_events(first);
    // Every world of a run is the same work, so, as each replay site is
    // charged its fastest load, the soak is charged its fastest world.
    // Sessions overlap inside a world and cannot be timed apart: each
    // is charged the world's host time over its sessions, so the p50
    // and the tail of one world coincide. Simulated time is the sum of
    // session PLTs, as for replay loads: the world's own span is fixed
    // by its arrival window, whatever the number of sessions it served.
    let best = runs
        .iter()
        .min_by_key(|r| r.wall_ns)
        .expect("at least one soak world");
    let best_s = best.wall_ns as f64 / 1e9;
    let per_session_ms = best_s * 1e3 / best.output.completed.max(1) as f64;
    let med = |f: fn(&TimedSoak) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    out.notes.push(format!(
        "{n} soak worlds of {} sessions each, one worker process per world; host-time \
         metrics are the fastest world's; a load is one session, charged its world's host \
         time over its sessions",
        first.output.completed
    ));
    out.end_to_end = vec![
        m("loads_per_s", best.output.completed as f64 / best_s, "1/s"),
        m("load_wall_ms_p50", per_session_ms, "ms"),
        m("load_wall_ms_tail", per_session_ms, "ms"),
        m("sim_s_per_wall_s", best.plt_sum_s / best_s, "s/s"),
        m("events_per_s", events as f64 / best_s, "1/s"),
        m("peak_rss_mb", med(|r| r.peak_rss_mb), "MB"),
        m(
            "setup_s",
            med(|r| (r.plan_ns + r.materialize_ns) as f64 / 1e9),
            "s",
        ),
    ];
    let growth_kb = med(TimedSoak::growth_kb);
    out.notes.push(format!(
        "peak_rss_mb is the median VmHWM of the world workers; a world left {growth_kb:.0} KB \
         behind; setup_s is the median worker's plan and materialization"
    ));
    // Exact counters come from the registry the soak exports (its
    // engine profile and TCP counters); every world repeats them.
    let get = |name: &str| first.registry.get(name).copied().unwrap_or(0.0);
    let mut exact = vec![m("sim.events", events as f64, "count")];
    for tag in TAGS {
        exact.push(m(
            format!("sim.events.{tag}"),
            get(&format!("sim_events_{tag}_total")),
            "count",
        ));
    }
    exact.extend([
        m(
            "sim.heap_high_water",
            get("sim_heap_high_water_events"),
            "count",
        ),
        m(
            "shells.qdisc.drops",
            get("qdisc_up_drops_total") + get("qdisc_down_drops_total"),
            "count",
        ),
        m("net.retransmits", get("tcp_retransmits_total"), "count"),
        m("net.rto", get("tcp_rto_total"), "count"),
        m("net.tlp", get("tcp_tlp_fires_total"), "count"),
        m("metrics.series", first.series as f64, "count"),
    ]);
    out.notes.push(
        "figsoak smoke baseline (ROADMAP): 1.01 M events: delay 430k, host 419k, \
         link 84k, timer_mux 64k"
            .to_string(),
    );
    out.exact_counters(exact, trace);
    if !trace {
        return;
    }

    // The soak world hides its simulator, so host time per tag, world
    // build, shell packets and qdisc timing come from single loads of
    // the soak's page behind the soak's network.
    let site = materialize(&setup.plans[0]);
    let proxy = soak_proxy_ledger(setup, &site, out);
    out.ledger.extend(proxy.acc.host_rows());
    out.exact_counters(proxy.acc.layer_counts(), true);
    let proxies: Vec<(usize, StoredSite)> = (0..PROBE_SITES).map(|i| (i, site.clone())).collect();
    probe_ledger(setup, &proxies, out);
    out.ledger.extend([
        m("rss.growth_kb_per_load", growth_kb, "KB"),
        m("corpus.plan_ms", med(|r| r.plan_ns as f64 / 1e6), "ms"),
        m(
            "corpus.materialize_ms",
            med(|r| r.materialize_ns as f64 / 1e6),
            "ms",
        ),
        m(
            "trace.overhead_ratio",
            proxy.acc.wall_ns as f64 / proxy.timed_ns.max(1) as f64,
            "x",
        ),
    ]);
    out.notes.push(format!(
        "tracing overhead: the soak's ledger rides its own registry; on the {SOAK_PROXY_LOADS} \
         proxy loads the bench world took {:.3} ms/load against {:.3} ms/load for \
         run_page_load",
        proxy.acc.wall_ns as f64 / 1e6 / SOAK_PROXY_LOADS as f64,
        proxy.timed_ns as f64 / 1e6 / SOAK_PROXY_LOADS as f64,
    ));
}

/// Number of single loads of the soak's page behind the soak's network
/// that stand in for the soak where its simulator is out of reach.
const SOAK_PROXY_LOADS: usize = 20;

/// The soak's proxy loads: each run once through `run_page_load` (timed,
/// and the output to match) and once as a bench-built world.
struct SoakProxy {
    acc: LedgerAcc,
    /// Host time of the `run_page_load` runs.
    timed_ns: u64,
}

fn soak_proxy_ledger(setup: &Setup, site: &StoredSite, out: &mut Outcome) -> SoakProxy {
    let mut proxy = SoakProxy {
        acc: LedgerAcc::default(),
        timed_ns: 0,
    };
    let root = out.spans.start();
    for i in 0..SOAK_PROXY_LOADS {
        let spec = setup.load_spec(site, i);
        let t0 = Instant::now();
        let timed = run_page_load(&spec);
        proxy.timed_ns += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let run = run_world(&spec, false, i as u64);
        let record = SiteRecord {
            wall_ns: t0.elapsed().as_nanos() as u64,
            ..SiteRecord::of_world(i, &run)
        };
        out.checks_ok &= record.failures == 0 && record.output() == LoadOutput::of(&timed);
        let load = out.spans.record(
            root.id,
            "load",
            &format!("proxy-{i}"),
            t0,
            record.wall_ns,
            record.events,
        );
        out.spans
            .record(load, "build", "world", t0, record.build_ns, 1);
        for (tag, (events, ns)) in TAGS.iter().zip(record.tags()) {
            if events > 0 {
                out.spans.record(load, "tag", tag, t0, ns, events);
            }
        }
        proxy.acc.add(&record);
    }
    out.spans
        .end(root, 0, "pass", "soak-proxy", SOAK_PROXY_LOADS as u64);
    proxy
}

/// Engine events of one soak world, from its exported profile.
fn soak_events(run: &TimedSoak) -> u64 {
    run.registry
        .iter()
        .filter(|(k, _)| k.starts_with("sim_events_") && k.ends_with("_total"))
        .map(|(_, v)| *v as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_sums_counters_and_keeps_high_water_maxima() {
        let a = SiteRecord {
            ev_host: 10,
            ns_host: 1000,
            heap_high_water: 5,
            q_drops: 2,
            build_ns: 100,
            ..SiteRecord::default()
        };
        let b = SiteRecord {
            ev_host: 30,
            ns_host: 1000,
            heap_high_water: 3,
            q_drops: 1,
            build_ns: 300,
            ..SiteRecord::default()
        };
        let mut acc = LedgerAcc::default();
        acc.add(&a);
        acc.add(&b);
        assert_eq!(acc.events[1], 40);
        assert_eq!(acc.sum.heap_high_water, 5);
        assert_eq!(acc.sum.q_drops, 3);
        assert_eq!(median(&acc.build_ns), 200.0);
    }

    #[test]
    fn zero_capable_counters_stay_out_of_the_ledger() {
        let mut out = run_outcome();
        out.exact_counters(
            vec![m("net.tlp", 0.0, "count"), m("net.rto", 3.0, "count")],
            true,
        );
        assert_eq!(out.exact.len(), 2);
        let names: Vec<&str> = out.ledger.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["net.rto"]);
    }

    fn run_outcome() -> Outcome {
        Outcome {
            workload: Workload::Broadband,
            seed: 1,
            attempted: 0,
            failed: 0,
            checks_ok: true,
            end_to_end: Vec::new(),
            exact: Vec::new(),
            ledger: Vec::new(),
            notes: Vec::new(),
            spans: SpanLog::default(),
        }
    }
}
