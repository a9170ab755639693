//! The bench-built page-load world.
//!
//! [`run_world`] builds one load's world from the same public
//! constructors `mahimahi::harness::run_page_load` uses (`ReplayShell`,
//! `ShellStack`, `Host::new_in`, `Browser`), wires observers the same
//! way, and drives the simulator itself. Owning the loop is what lets
//! the traced pass time every `Simulator::step` and charge it to the
//! component tag whose dispatch count rose, and owning the wiring lets
//! it add counting sinks and a timing qdisc wrapper. All of them only
//! observe, so the world simulates exactly what `run_page_load` does
//! (the `equivalence` test and the per-load PLT cross-check pin this).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use mahimahi::harness::{LoadSpec, QdiscKind};
use mm_audit::{AuditReport, Auditor};
use mm_browser::{Browser, PageLoadResult, ProtocolMode, Resolver};
use mm_metrics::{FanoutSink, FlowSample, MetricsHandle, MetricsSink};
use mm_net::{Host, IpAddr, Namespace, Packet, PacketIdGen, SocketAddr};
use mm_replay::{ReplayShell, ServerProtocol};
use mm_shells::{
    CoDel, DropHead, DropTail, EnqueueResult, Pie, Qdisc, QdiscStats, QueueLimit, ShellLayer,
    ShellStack,
};
use mm_sim::{Simulator, Timestamp};
use mm_trace::{FanoutSpan, Span, TraceBuffer};

/// The browser's address inside the innermost namespace (the harness's).
const BROWSER_IP: IpAddr = IpAddr::new(100, 64, 0, 2);

/// Engine events and self time charged to one component tag.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TagCost {
    /// Short tag name (`delay`, `host`, `untagged`, ...).
    pub tag: String,
    pub events: u64,
    pub self_ns: u64,
}

/// Per-direction shell packet counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShellPackets {
    pub delay_up: u64,
    pub delay_down: u64,
    pub link_up: u64,
    pub link_down: u64,
}

/// Queue-discipline cost and counters, summed over both directions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QdiscCost {
    pub enqueues: u64,
    pub enqueue_ns: u64,
    pub dequeues: u64,
    pub dequeue_ns: u64,
    pub drops: u64,
    pub peak_pkts: u64,
}

/// TCP and host counters over every host in the world.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// Segments delivered to a host's TCP layer.
    pub segments_in: u64,
    /// Connections the servers accepted.
    pub conns: u64,
    pub retransmits: u64,
    pub rto: u64,
    pub tlp: u64,
    pub flow_samples: u64,
}

/// Everything one bench-built load produced.
pub struct WorldRun {
    pub result: PageLoadResult,
    /// Engine events dispatched (exact).
    pub events: u64,
    /// Host time from the first constructor to `navigate` returning.
    pub build_ns: u64,
    /// Host time spent driving the simulator.
    pub run_ns: u64,
    /// Per-tag events and self time.
    pub tags: Vec<TagCost>,
    pub heap_high_water: u64,
    pub shells: ShellPackets,
    pub qdisc: QdiscCost,
    pub net: NetCounts,
    pub match_misses: u64,
    /// Observer outputs (observed workloads only).
    pub audit: Option<AuditReport>,
    pub spans: Vec<Span>,
}

/// `QdiscKind` → the discipline the harness builds for it.
pub fn build_qdisc(kind: QdiscKind) -> Box<dyn Qdisc> {
    match kind {
        QdiscKind::Infinite => Box::new(DropTail::infinite()),
        QdiscKind::DropTailPackets(n) => Box::new(DropTail::new(QueueLimit::Packets(n))),
        QdiscKind::DropHeadPackets(n) => Box::new(DropHead::new(QueueLimit::Packets(n))),
        QdiscKind::Codel => Box::new(CoDel::default_params()),
        QdiscKind::Pie(mbps) => Box::new(Pie::default_params(mbps * 1e6 / 8.0)),
    }
}

/// Run one load of `spec` in a bench-built world. Its `audit`, `span`
/// and `capture` fields are ignored: with `observed`, the world gets an
/// auditor and a span buffer, wired as `run_page_load` wires
/// `LoadSpec.audit` and `LoadSpec.span`.
pub fn run_world(spec: &LoadSpec<'_>, observed: bool, load_id: u64) -> WorldRun {
    let t_build = Instant::now();
    let mut sim = Simulator::new();
    sim.enable_profiler();
    let ids = PacketIdGen::new();

    // Observers, wired as run_page_load wires an explicit auditor and
    // span sink: the auditor is the tap, fans into the span stream
    // behind the recorder, and is the TCP and qdisc metrics sink.
    let auditor = observed.then(|| Auditor::for_load(load_id));
    let buffer = observed.then(|| TraceBuffer::for_load(load_id));
    let tap = auditor.as_ref().map(Auditor::tap_handle);
    let span = match (&buffer, &auditor) {
        (Some(b), Some(a)) => Some(FanoutSpan::new(vec![b.handle(), a.span_handle()]).handle()),
        _ => None,
    };
    let counter = Rc::new(NetCounter {
        flows: observed,
        ..NetCounter::default()
    });
    let mut tcp = spec.tcp.clone();
    if let Some(sp) = &span {
        tcp = Some(
            tcp.unwrap_or_default()
                .to_builder()
                .span(sp.clone())
                .build(),
        );
    }
    let mut sinks = vec![MetricsHandle::new(CounterSink(counter.clone()))];
    if let Some(a) = &auditor {
        sinks.insert(0, a.metrics_handle());
    }
    let metrics = match sinks.len() {
        1 => sinks.pop().expect("one sink"),
        _ => MetricsHandle::new(FanoutSink::new(sinks)),
    };
    tcp = Some(
        tcp.unwrap_or_default()
            .to_builder()
            .metrics(metrics)
            .build(),
    );

    let mut replay_config = spec.replay.clone();
    if let ProtocolMode::Mux(mux) = &spec.browser.protocol {
        replay_config.protocol = ServerProtocol::Mux(mux.clone());
    }
    replay_config.tcp = tcp.clone();
    replay_config.capture = tap.clone();
    replay_config.span = span.clone();
    let shell = Rc::new(ReplayShell::new(
        &Namespace::root("replayshell"),
        spec.site,
        replay_config,
        &ids,
    ));
    let explicit_iw = tcp.as_ref().and_then(|t| t.initial_cwnd_segments);
    if let ProtocolMode::Mux(mux) = &spec.browser.protocol {
        if let (None, Some(iw)) = (explicit_iw, mux.server_initial_cwnd_segments) {
            for host in &shell.hosts {
                host.set_tcp_config(
                    host.tcp_config()
                        .to_builder()
                        .initial_cwnd_segments(iw)
                        .build(),
                );
            }
        }
    }

    let mut stack = ShellStack::new(&shell.ns);
    if let Some(tap) = &tap {
        stack = stack.with_tap(tap.clone());
    }
    if let Some(a) = &auditor {
        stack = stack.with_qdisc_metrics(a.metrics_handle());
    }
    if let Some(overhead) = spec.net.shell_overhead {
        stack = stack.with_shell_overhead(overhead);
    }
    if let Some(delay) = spec.net.delay {
        stack = stack.delay(delay);
    }
    let qdisc_acc = Rc::new(Cell::new(QdiscCost::default()));
    if let Some(link) = &spec.net.link {
        let kind = link.qdisc;
        let acc = qdisc_acc.clone();
        stack = stack.link_asymmetric(link.uplink.clone(), link.downlink.clone(), &move || {
            TimingQdisc::boxed(build_qdisc(kind), acc.clone())
        });
    }
    assert!(
        spec.net.loss.is_none() && spec.host_profile.is_none() && spec.live_web.is_none(),
        "the bench world mirrors run_page_load for the benchmark's workloads only: \
         no loss shell, host profile or live-web model"
    );

    let browser_host = Host::new_in(BROWSER_IP, ids, &stack.innermost());
    let mut browser_config = spec.browser.clone();
    browser_config.tcp = tcp;
    browser_config.capture = tap;
    browser_config.span = span;
    let resolver: Resolver = {
        let shell = shell.clone();
        Rc::new(move |url: &mm_http::Url| {
            let ip: IpAddr = url.host.parse().expect("replay corpora use IP literals");
            shell.resolve(SocketAddr::new(ip, url.port))
        })
    };
    let browser = Browser::new(browser_host.clone(), resolver, browser_config);
    let slot: Rc<RefCell<Option<PageLoadResult>>> = Rc::new(RefCell::new(None));
    let done = slot.clone();
    browser.navigate(&mut sim, &spec.site.root_url, move |_, r| {
        *done.borrow_mut() = Some(r);
    });
    let build_ns = t_build.elapsed().as_nanos() as u64;

    let t_run = Instant::now();
    let mut self_ns: Vec<u64> = Vec::new();
    step_timed(&mut sim, &mut self_ns);
    let run_ns = t_run.elapsed().as_nanos() as u64;

    let profile = sim.profile().expect("profiler enabled");
    let tags = profile
        .dispatched()
        .enumerate()
        .map(|(i, (tag, events))| TagCost {
            tag: short_tag(tag).to_string(),
            events,
            self_ns: self_ns.get(i).copied().unwrap_or(0),
        })
        .collect();
    let mut shells = ShellPackets::default();
    for layer in stack.layers() {
        match layer {
            ShellLayer::Delay(s) => {
                shells.delay_up += s.uplink.stats().forwarded;
                shells.delay_down += s.downlink.stats().forwarded;
            }
            ShellLayer::Link(s) => {
                shells.link_up += s.uplink.stats().arrived;
                shells.link_down += s.downlink.stats().arrived;
            }
            ShellLayer::Loss(_) => {}
        }
    }
    let mut net = NetCounts {
        retransmits: counter.retransmits.get(),
        rto: counter.rto.get(),
        tlp: counter.tlp.get(),
        flow_samples: counter.flow_samples.get(),
        ..NetCounts::default()
    };
    for host in shell.hosts.iter().chain(std::iter::once(&browser_host)) {
        let s = host.stats();
        net.segments_in += s.packets_in;
        net.conns += s.connections_accepted;
    }
    let result = slot
        .borrow_mut()
        .take()
        .expect("page load did not complete in the bench world");
    WorldRun {
        result,
        events: sim.events_executed(),
        build_ns,
        run_ns,
        tags,
        heap_high_water: profile.heap_high_water() as u64,
        shells,
        qdisc: qdisc_acc.get(),
        net,
        match_misses: shell.matcher.stats().miss,
        audit: auditor.map(|a| a.finish()),
        spans: buffer.map(|b| b.spans()).unwrap_or_default(),
    }
}

/// Drive `sim` to completion one step at a time, charging each step's
/// host time to the tag whose dispatch count rose. `self_ns[i]` follows
/// the profile's first-seen tag order.
fn step_timed(sim: &mut Simulator, self_ns: &mut Vec<u64>) {
    let mut seen: Vec<u64> = Vec::new();
    loop {
        let t0 = Instant::now();
        if !sim.step() {
            break;
        }
        let dt = t0.elapsed().as_nanos() as u64;
        let profile = sim.profile().expect("profiler enabled");
        for (i, (_, n)) in profile.dispatched().enumerate() {
            if i == seen.len() {
                seen.push(0);
                self_ns.push(0);
            }
            if seen[i] != n {
                seen[i] = n;
                self_ns[i] += dt;
                break;
            }
        }
    }
}

/// `sim_events_delay_total` → `delay`.
pub fn short_tag(tag: &str) -> &str {
    tag.strip_prefix("sim_events_")
        .and_then(|t| t.strip_suffix("_total"))
        .unwrap_or(tag)
}

/// Counts the TCP recovery counters and (when the world already traces
/// flows for an observer) flow samples. Observes only.
#[derive(Default)]
struct NetCounter {
    /// Opt into flow samples. Only observed worlds do: there the TCP
    /// layer emits samples for the auditor anyway.
    flows: bool,
    retransmits: Cell<u64>,
    rto: Cell<u64>,
    tlp: Cell<u64>,
    flow_samples: Cell<u64>,
}

struct CounterSink(Rc<NetCounter>);

impl MetricsSink for CounterSink {
    fn counter_add(&self, name: &'static str, delta: u64) {
        let c = &self.0;
        let cell = match name {
            "tcp_retransmits_total" => &c.retransmits,
            "tcp_rto_total" => &c.rto,
            "tcp_tlp_fires_total" => &c.tlp,
            _ => return,
        };
        cell.set(cell.get() + delta);
    }

    fn flow_open(&self, _desc: &str) -> Option<u64> {
        self.0.flows.then_some(0)
    }

    fn flow_sample(&self, _flow: u64, _sample: &FlowSample) {
        self.0.flow_samples.set(self.0.flow_samples.get() + 1);
    }
}

/// A [`Qdisc`] decorator timing every enqueue and dequeue of the inner
/// discipline. Decisions, order and timing of packets are the inner
/// discipline's own.
struct TimingQdisc {
    inner: Box<dyn Qdisc>,
    /// Shared by both directions of the world's link.
    acc: Rc<Cell<QdiscCost>>,
    /// The inner discipline's counters as last folded into `acc`.
    folded: QdiscStats,
}

impl TimingQdisc {
    fn boxed(inner: Box<dyn Qdisc>, acc: Rc<Cell<QdiscCost>>) -> Box<dyn Qdisc> {
        let folded = inner.stats();
        Box::new(TimingQdisc { inner, acc, folded })
    }

    /// Fold one timed call (`dequeue` tells which kind) and the inner
    /// discipline's counter deltas into the shared accumulator.
    fn fold(&mut self, dequeue: bool, ns: u64) {
        let s = self.inner.stats();
        let mut c = self.acc.get();
        if dequeue {
            c.dequeues += 1;
            c.dequeue_ns += ns;
        } else {
            c.enqueues += 1;
            c.enqueue_ns += ns;
        }
        c.drops += s.dropped - self.folded.dropped;
        c.peak_pkts = c.peak_pkts.max(s.max_backlog_packets as u64);
        self.acc.set(c);
        self.folded = s;
    }
}

impl Qdisc for TimingQdisc {
    fn enqueue(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult {
        let t0 = Instant::now();
        let r = self.inner.enqueue(now, pkt);
        let ns = t0.elapsed().as_nanos() as u64;
        self.fold(false, ns);
        r
    }

    fn dequeue(&mut self, now: Timestamp) -> Option<Packet> {
        let t0 = Instant::now();
        let r = self.inner.dequeue(now);
        let ns = t0.elapsed().as_nanos() as u64;
        self.fold(true, ns);
        r
    }

    fn peek_size(&self) -> Option<usize> {
        self.inner.peek_size()
    }

    fn len_packets(&self) -> usize {
        self.inner.len_packets()
    }

    fn len_bytes(&self) -> usize {
        self.inner.len_bytes()
    }

    fn stats(&self) -> QdiscStats {
        self.inner.stats()
    }
}
