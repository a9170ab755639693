//! The measurement harness: one call = one page load in a fresh,
//! fully-isolated world.
//!
//! Every load builds its own simulator, replay environment, shell stack
//! and browser, mirroring how each mahimahi measurement runs in its own
//! namespaces. Determinism: a [`LoadSpec`] plus a seed fully determines
//! the resulting [`PageLoadResult`].

use std::cell::RefCell;
use std::rc::Rc;

use mm_browser::{Browser, BrowserConfig, PageLoadResult, ProtocolMode, Resolver};
use mm_net::{Host, IpAddr, Namespace, PacketIdGen, SocketAddr};
use mm_record::StoredSite;
use mm_replay::{ReplayConfig, ReplayShell, ServerProtocol};
use mm_shells::{CoDel, DropHead, DropTail, Pie, Qdisc, QueueLimit, ShellStack};
use mm_sim::{RngStream, SimDuration, Simulator};
use mm_trace::Trace;
use mm_web::{apply_live_web_variability, HostProfile, LiveWebConfig};

use crate::obs::{self, Channel};

/// Queue discipline selection for LinkShell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QdiscKind {
    /// Infinite droptail (the paper's configuration).
    Infinite,
    /// Droptail bounded in packets.
    DropTailPackets(usize),
    /// Drophead bounded in packets.
    DropHeadPackets(usize),
    /// CoDel with RFC defaults.
    Codel,
    /// PIE with RFC defaults, given the link rate in Mbit/s.
    Pie(f64),
}

impl QdiscKind {
    pub(crate) fn build(&self) -> Box<dyn Qdisc> {
        match *self {
            QdiscKind::Infinite => Box::new(DropTail::infinite()),
            QdiscKind::DropTailPackets(n) => Box::new(DropTail::new(QueueLimit::Packets(n))),
            QdiscKind::DropHeadPackets(n) => Box::new(DropHead::new(QueueLimit::Packets(n))),
            QdiscKind::Codel => Box::new(CoDel::default_params()),
            QdiscKind::Pie(mbps) => Box::new(Pie::default_params(mbps * 1e6 / 8.0)),
        }
    }
}

/// A LinkShell specification.
#[derive(Clone)]
pub struct LinkSpec {
    pub uplink: Trace,
    pub downlink: Trace,
    pub qdisc: QdiscKind,
}

impl LinkSpec {
    /// Symmetric link from one trace with an infinite droptail queue.
    pub fn symmetric(trace: Trace) -> LinkSpec {
        LinkSpec {
            uplink: trace.clone(),
            downlink: trace,
            qdisc: QdiscKind::Infinite,
        }
    }
}

/// The emulated network between browser and servers: any combination of
/// DelayShell, LinkShell and LossShell, nested in mahimahi order
/// (delay outermost, then link, then loss).
#[derive(Clone, Default)]
pub struct NetSpec {
    /// `mm-delay <ms>`: fixed one-way delay each direction.
    pub delay: Option<SimDuration>,
    /// `mm-link <up> <down>`: trace-driven link.
    pub link: Option<LinkSpec>,
    /// `mm-loss <up> <down>`: i.i.d. loss rates.
    pub loss: Option<(f64, f64)>,
    /// Per-packet forwarding overhead of each shell process
    /// (None = the calibrated default).
    pub shell_overhead: Option<SimDuration>,
}

impl NetSpec {
    /// No emulation at all: bare ReplayShell.
    pub fn none() -> NetSpec {
        NetSpec::default()
    }

    /// Just a delay shell (the paper's `mm-delay <ms>`).
    pub fn delay_ms(ms: u64) -> NetSpec {
        NetSpec {
            delay: Some(SimDuration::from_millis(ms)),
            ..NetSpec::default()
        }
    }
}

/// Everything that defines one measured page load.
pub struct LoadSpec<'a> {
    /// The recorded site to replay.
    pub site: &'a StoredSite,
    /// Replay topology and server think time.
    pub replay: ReplayConfig,
    /// Browser parameters.
    pub browser: BrowserConfig,
    /// The emulated network between browser and servers.
    pub net: NetSpec,
    /// Host machine profile applied to browser and servers (Table 1).
    pub host_profile: Option<HostProfile>,
    /// Live-web variability applied to the servers (Figure 3's
    /// "Actual Web" arm).
    pub live_web: Option<LiveWebConfig>,
    /// TCP configuration for every host in the world (None = defaults).
    /// Lets protocol studies A/B congestion control and socket knobs.
    pub tcp: Option<mm_net::TcpConfig>,
    /// Explicit per-packet/per-request tap for this load, attached to
    /// every shell layer plus the browser and replay boundaries. `None`
    /// falls back to the process-global `--capture-out` capture (see
    /// [`crate::obs::Channel::Capture`]). Taps only observe: results are
    /// byte-identical with or without one.
    pub capture: Option<mm_capture::TapHandle>,
    /// Explicit causal-span sink for this load, attached to the browser
    /// (page/resource/phase spans), the replay servers (`ServerThink`)
    /// and every host's TCP layer (`ConnSetup`/`HolWait`/`Conn`). `None`
    /// falls back to the process-global `--span-out` channel (see
    /// [`crate::obs::Channel::Spans`]). Sinks only observe: results are
    /// byte-identical with or without one.
    pub span: Option<mm_trace::SpanHandle>,
    /// Explicit conformance auditor for this load, registered as the
    /// world's metrics sink, packet tap and span sink at once (fanned
    /// out alongside any other sinks). The caller keeps the auditor and
    /// calls [`mm_audit::Auditor::finish`] after the load. `None` falls
    /// back to the process-global `--audit` channel (see
    /// [`crate::obs::Channel::Audit`]). Auditors only observe: results
    /// are byte-identical with or without one.
    pub audit: Option<mm_audit::Auditor>,
    /// Seed for all stochastic elements of this load.
    pub seed: u64,
}

impl<'a> LoadSpec<'a> {
    /// A plain multi-origin replay load with default settings.
    pub fn new(site: &'a StoredSite) -> LoadSpec<'a> {
        LoadSpec {
            site,
            replay: ReplayConfig::default(),
            browser: BrowserConfig::default(),
            net: NetSpec::none(),
            host_profile: None,
            live_web: None,
            tcp: None,
            capture: None,
            span: None,
            audit: None,
            seed: 0,
        }
    }
}

/// The address the browser host uses inside the innermost namespace.
const BROWSER_IP: IpAddr = IpAddr::new(100, 64, 0, 2);

/// Run one page load to completion and return its result.
///
/// Panics if the site's root URL cannot be fetched (an unusable recording
/// is a harness bug).
pub fn run_page_load(spec: &LoadSpec<'_>) -> PageLoadResult {
    let mut sim = Simulator::new();
    let rng = RngStream::from_seed(spec.seed);
    let ids = PacketIdGen::new();

    // Per-flow trace capture (the experiment bins' `--trace-out`
    // plumbing): when the process-global trace is on and this spec
    // carries no explicit sink, give the load a private tracer and
    // merge its samples on completion. The substituted config differs
    // from the untraced path only in the sink field — hosts fall back
    // to `TcpConfig::default()` when no config flows in, and sinks only
    // observe — so the simulation itself is unchanged.
    let trace = (spec.tcp.as_ref().is_none_or(|t| t.metrics.is_none())
        && obs::claim(Channel::Trace).is_some())
    .then(mm_metrics::FlowTracer::new);
    let spec_tcp = match &trace {
        Some(tracer) => Some(
            spec.tcp
                .clone()
                .unwrap_or_default()
                .to_builder()
                .metrics(mm_metrics::MetricsHandle::new(
                    mm_metrics::RegistrySink::with_tracer(
                        mm_metrics::Registry::new(),
                        tracer.clone(),
                    ),
                ))
                .build(),
        ),
        None => spec.tcp.clone(),
    };

    // Per-packet capture (the experiment bins' `--capture-out`
    // plumbing): an explicit tap on the spec wins; otherwise, when the
    // process-global capture is on and its load budget allows, this
    // load records into a private `Capture` merged on completion. Taps
    // only observe, so the simulation is byte-identical either way.
    let claimed = if spec.capture.is_none() {
        obs::claim(Channel::Capture).map(mm_capture::Capture::for_load)
    } else {
        None
    };
    let tap = spec
        .capture
        .clone()
        .or_else(|| claimed.as_ref().map(mm_capture::Capture::handle));

    // Conformance auditing (the experiment bins' `--audit` plumbing):
    // an explicit auditor on the spec wins (its owner calls `finish`);
    // otherwise, when the process-global audit channel is on, this load
    // gets a private auditor whose report is merged on completion. The
    // same auditor instance is fanned into the metrics, tap and span
    // hooks below — the cross-stream checks (qdisc gauge vs packet
    // ledger, server bytes vs browser bytes) need one shared view.
    let audit_claimed = if spec.audit.is_none() {
        obs::claim(Channel::Audit).map(mm_audit::Auditor::for_load)
    } else {
        None
    };
    let audit = spec.audit.clone().or_else(|| audit_claimed.clone());
    let tap = match (&tap, &audit) {
        (Some(t), Some(a)) => Some(mm_capture::TapHandle::new(mm_capture::FanoutTap::new(
            vec![t.clone(), a.tap_handle()],
        ))),
        (None, Some(a)) => Some(a.tap_handle()),
        _ => tap,
    };

    // Causal spans (the experiment bins' `--span-out` plumbing): an
    // explicit sink on the spec wins; otherwise, when the process-global
    // span channel is on and its load budget allows, this load records
    // into a private `TraceBuffer` merged on completion. Sinks only
    // observe, so the simulation is byte-identical either way.
    let span_claimed = if spec.span.is_none() {
        obs::claim(Channel::Spans).map(mm_trace::TraceBuffer::for_load)
    } else {
        None
    };
    let span = spec
        .span
        .clone()
        .or_else(|| span_claimed.as_ref().map(mm_trace::TraceBuffer::handle));
    // The auditor's span view rides the same handle: alone, or fanned
    // out behind a recorder (the fanout allocates the ids both see).
    let span = match (&span, &audit) {
        (Some(s), Some(a)) => {
            Some(mm_trace::FanoutSpan::new(vec![s.clone(), a.span_handle()]).handle())
        }
        (None, Some(a)) => Some(a.span_handle()),
        _ => span,
    };
    // The TCP-layer spans ride the same per-load TCP config as flow
    // tracing; like the tracer substitution above, the sink field is the
    // only difference from the unspanned config.
    let spec_tcp = match &span {
        Some(sp) if spec_tcp.as_ref().is_none_or(|t| t.span.is_none()) => Some(
            spec_tcp
                .clone()
                .unwrap_or_default()
                .to_builder()
                .span(sp.clone())
                .build(),
        ),
        _ => spec_tcp,
    };
    // The auditor's TCP-conformance view: fan its metrics sink in next
    // to whatever sink the config already carries (the flow tracer's
    // RegistrySink, or an experimenter's own).
    let spec_tcp = match &audit {
        Some(a) => {
            let base = spec_tcp.unwrap_or_default();
            let metrics = match &base.metrics {
                Some(m) => mm_metrics::MetricsHandle::new(mm_metrics::FanoutSink::new(vec![
                    m.clone(),
                    a.metrics_handle(),
                ])),
                None => a.metrics_handle(),
            };
            Some(base.to_builder().metrics(metrics).build())
        }
        None => spec_tcp,
    };

    // Outermost: ReplayShell's world. The browser's protocol choice is
    // passed through to the servers so both ends of the connection speak
    // the same wire format — one knob on the spec drives the whole stack.
    let mut replay_config = spec.replay.clone();
    if let ProtocolMode::Mux(mux) = &spec.browser.protocol {
        replay_config.protocol = ServerProtocol::Mux(mux.clone());
    }
    // The per-load TCP knob flows through ReplayConfig/BrowserConfig so
    // replay worlds and browsers built outside this harness wire up the
    // same way; an explicit config on either side wins.
    if replay_config.tcp.is_none() {
        replay_config.tcp = spec_tcp.clone();
    }
    if replay_config.capture.is_none() {
        replay_config.capture = tap.clone();
    }
    if replay_config.span.is_none() {
        replay_config.span = span.clone();
    }
    let shell = {
        let root_ns = Namespace::root("replayshell");
        Rc::new(ReplayShell::new(&root_ns, spec.site, replay_config, &ids))
    };
    let root_ns = shell.ns.clone();
    // An explicit IW in `spec.tcp` is the experimenter's ablation knob and
    // must win over the mux deployment default.
    let explicit_iw = spec_tcp.as_ref().and_then(|t| t.initial_cwnd_segments);
    if let ProtocolMode::Mux(mux) = &spec.browser.protocol {
        if explicit_iw.is_none() {
            if let Some(iw) = mux.server_initial_cwnd_segments {
                // Model the deployed SPDY-era server stack: a raised
                // initial cwnd on the servers (only), so one multiplexed
                // connection can match the burst capacity of an HTTP/1.1
                // pool.
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
    }
    if let Some(live) = &spec.live_web {
        apply_live_web_variability(&shell, live, &rng.fork("live-web"));
    }
    if let Some(profile) = &spec.host_profile {
        for (i, host) in shell.hosts.iter().enumerate() {
            host.set_noise(profile.noise(spec.seed, &format!("server-{i}")));
        }
    }

    // Nested emulation shells. The tap must attach before any layer is
    // added so every shell's direction reports under its point.
    let mut stack = ShellStack::new(&root_ns);
    if let Some(tap) = &tap {
        stack = stack.with_tap(tap.clone());
    }
    // The auditor also observes the qdiscs' own depth gauges and
    // counters, cross-checked against the packet ledger its tap builds.
    if let Some(a) = &audit {
        stack = stack.with_qdisc_metrics(a.metrics_handle());
    }
    if let Some(overhead) = spec.net.shell_overhead {
        stack = stack.with_shell_overhead(overhead);
    }
    if let Some(delay) = spec.net.delay {
        stack = stack.delay(delay);
    }
    if let Some(link) = &spec.net.link {
        let qdisc = link.qdisc;
        stack = stack.link_asymmetric(link.uplink.clone(), link.downlink.clone(), &move || {
            qdisc.build()
        });
    }
    if let Some((up, down)) = spec.net.loss {
        stack = stack.loss(up, down, &rng.fork("loss"));
    }
    let inner_ns = stack.innermost();

    // The browser host, innermost.
    let browser_host = Host::new_in(BROWSER_IP, ids, &inner_ns);
    if let Some(profile) = &spec.host_profile {
        browser_host.set_noise(profile.noise(spec.seed, "browser"));
    }
    let mut browser_config = spec.browser.clone();
    if browser_config.tcp.is_none() {
        browser_config.tcp = spec_tcp.clone();
    }
    if browser_config.capture.is_none() {
        browser_config.capture = tap.clone();
    }
    if browser_config.span.is_none() {
        browser_config.span = span.clone();
    }

    let resolver: Resolver = {
        let shell = shell.clone();
        Rc::new(move |url: &mm_http::Url| {
            let ip: IpAddr = url
                .host
                .parse()
                .expect("replay corpora address hosts by IP literal");
            shell.resolve(SocketAddr::new(ip, url.port))
        })
    };
    let browser = Browser::new(browser_host, resolver, browser_config);
    if let Some(profile) = &spec.host_profile {
        let rng = RngStream::from_seed(spec.seed)
            .fork(&profile.name)
            .fork("browser-cpu");
        browser.set_cpu_jitter(rng, profile.cpu_sigma);
    }

    let result: Rc<RefCell<Option<PageLoadResult>>> = Rc::new(RefCell::new(None));
    let slot = result.clone();
    let root_url = spec.site.root_url.clone();
    browser.navigate(&mut sim, &root_url, move |_sim, r| {
        *slot.borrow_mut() = Some(r);
    });
    sim.run();
    // Every claimed recorder drains into its channel.
    for (channel, jsonl) in [
        (Channel::Trace, trace.map(|t| t.take_jsonl())),
        (Channel::Capture, claimed.map(|c| c.take_jsonl())),
        (Channel::Spans, span_claimed.map(|b| b.to_jsonl())),
        (Channel::Audit, audit_claimed.map(|a| a.finish().to_jsonl())),
    ] {
        if let Some(jsonl) = jsonl {
            obs::append(channel, &jsonl);
        }
    }
    let r = result
        .borrow_mut()
        .take()
        .expect("page load did not complete; dead recording or network");
    r
}

/// Run `n` loads of the same spec with per-load seeds forked from
/// `spec.seed`, returning each PLT in milliseconds.
pub fn run_loads(spec: &LoadSpec<'_>, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let load_spec = LoadSpec {
                site: spec.site,
                replay: spec.replay.clone(),
                browser: spec.browser.clone(),
                net: spec.net.clone(),
                host_profile: spec.host_profile.clone(),
                live_web: spec.live_web.clone(),
                tcp: spec.tcp.clone(),
                capture: spec.capture.clone(),
                span: spec.span.clone(),
                audit: spec.audit.clone(),
                seed: spec.seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
            };
            run_page_load(&load_spec).plt.as_millis_f64()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_corpus::{materialize, plan_site, SiteParams};
    use mm_replay::ReplayMode;
    use mm_trace::constant_rate;

    fn small_site() -> StoredSite {
        let params = SiteParams {
            servers: Some(6),
            median_objects: 18.0,
            ..SiteParams::default()
        };
        let plan = plan_site(950, &params, &mut RngStream::from_seed(7));
        materialize(&plan)
    }

    #[test]
    fn bare_replay_load_completes() {
        let site = small_site();
        let r = run_page_load(&LoadSpec::new(&site));
        assert_eq!(r.failures, 0);
        assert!(r.resource_count() >= 19);
        assert!(r.plt > SimDuration::from_millis(50), "plt {}", r.plt);
    }

    #[test]
    fn delay_shell_increases_plt() {
        let site = small_site();
        let bare = run_page_load(&LoadSpec::new(&site)).plt;
        let mut spec = LoadSpec::new(&site);
        spec.net = NetSpec::delay_ms(100);
        let delayed = run_page_load(&spec).plt;
        assert!(
            delayed > bare + SimDuration::from_millis(150),
            "bare {bare}, delayed {delayed}"
        );
    }

    #[test]
    fn slow_link_increases_plt() {
        let site = small_site();
        let mut fast = LoadSpec::new(&site);
        fast.net.link = Some(LinkSpec::symmetric(constant_rate(100.0, 1000)));
        let mut slow = LoadSpec::new(&site);
        slow.net.link = Some(LinkSpec::symmetric(constant_rate(1.0, 1000)));
        let f = run_page_load(&fast).plt;
        let s = run_page_load(&slow).plt;
        assert!(s > f, "slow {s} vs fast {f}");
        // 1 Mbit/s on a ~500 KB page: transfer alone is ≥ 3 s.
        assert!(s > SimDuration::from_secs(2), "slow {s}");
    }

    #[test]
    fn loss_increases_plt() {
        let site = small_site();
        let mut clean = LoadSpec::new(&site);
        clean.net = NetSpec::delay_ms(20);
        let mut lossy = LoadSpec::new(&site);
        lossy.net = NetSpec::delay_ms(20);
        lossy.net.loss = Some((0.05, 0.05));
        let c = run_page_load(&clean).plt;
        let l = run_page_load(&lossy).plt;
        assert!(l > c, "lossy {l} vs clean {c}");
    }

    #[test]
    fn single_server_slower_at_high_bandwidth() {
        // Needs a site big enough for single-server CGI contention to
        // outrun the browser's own CPU time (the Table 2 mechanism).
        let params = SiteParams {
            servers: Some(20),
            median_objects: 120.0,
            ..SiteParams::default()
        };
        let plan = plan_site(951, &params, &mut RngStream::from_seed(8));
        let site = materialize(&plan);
        let net = NetSpec {
            delay: Some(SimDuration::from_millis(30)),
            link: Some(LinkSpec::symmetric(constant_rate(25.0, 1000))),
            ..NetSpec::default()
        };
        let mut multi = LoadSpec::new(&site);
        multi.net = net.clone();
        let mut single = LoadSpec::new(&site);
        single.net = net;
        single.replay.mode = ReplayMode::SingleServer;
        let m = run_page_load(&multi).plt;
        let s = run_page_load(&single).plt;
        assert!(s > m, "single {s} vs multi {m}");
    }

    #[test]
    fn determinism_same_seed_same_plt() {
        let site = small_site();
        let mut a = LoadSpec::new(&site);
        a.net = NetSpec::delay_ms(30);
        a.seed = 42;
        let mut b = LoadSpec::new(&site);
        b.net = NetSpec::delay_ms(30);
        b.seed = 42;
        assert_eq!(run_page_load(&a).plt, run_page_load(&b).plt);
    }

    #[test]
    fn capture_tap_is_byte_identical_and_nonempty() {
        // The per-packet tap must only observe: the same spec with a
        // capture attached produces the exact same simulation, while the
        // capture itself fills with link/packet/http events.
        let site = small_site();
        let net = NetSpec {
            delay: Some(SimDuration::from_millis(20)),
            link: Some(LinkSpec::symmetric(constant_rate(8.0, 1000))),
            loss: Some((0.01, 0.01)),
            ..NetSpec::default()
        };
        let mut bare = LoadSpec::new(&site);
        bare.net = net.clone();
        bare.seed = 42;
        let mut tapped = LoadSpec::new(&site);
        tapped.net = net;
        tapped.seed = 42;
        let capture = mm_capture::Capture::for_load(7);
        tapped.capture = Some(capture.handle());
        let a = run_page_load(&bare);
        let b = run_page_load(&tapped);
        assert_eq!(a.plt, b.plt, "tap must not perturb the simulation");
        assert_eq!(a.total_body_bytes, b.total_body_bytes);
        let data = capture.data();
        assert!(!data.links.is_empty(), "link meta recorded");
        let has = |k| data.packets.iter().any(|p| p.kind == k);
        assert!(has(mm_capture::PacketEventKind::Enqueue));
        assert!(has(mm_capture::PacketEventKind::Dequeue));
        assert!(has(mm_capture::PacketEventKind::Deliver));
        assert!(!data.https.is_empty(), "http events recorded");
        let jsonl = capture.take_jsonl();
        assert!(jsonl.contains("\"ev\":\"link\""));
        assert!(jsonl.contains("\"ev\":\"pkt\""));
        assert!(jsonl.contains("\"ev\":\"http\""));
    }

    #[test]
    fn host_noise_perturbs_but_barely() {
        let site = small_site();
        let mut base = LoadSpec::new(&site);
        base.net = NetSpec::delay_ms(30);
        let quiet = run_page_load(&base).plt;
        let mut noisy_spec = LoadSpec::new(&site);
        noisy_spec.net = NetSpec::delay_ms(30);
        noisy_spec.host_profile = Some(HostProfile::machine_1());
        let noisy = run_page_load(&noisy_spec).plt;
        assert_ne!(quiet, noisy);
        let rel = (noisy.as_millis_f64() - quiet.as_millis_f64()).abs() / quiet.as_millis_f64();
        assert!(rel < 0.05, "noise shifted PLT by {}%", rel * 100.0);
    }

    #[test]
    fn run_loads_varies_with_noise() {
        let site = small_site();
        let mut spec = LoadSpec::new(&site);
        spec.net = NetSpec::delay_ms(10);
        spec.host_profile = Some(HostProfile::machine_1());
        let plts = run_loads(&spec, 5);
        assert_eq!(plts.len(), 5);
        let distinct: std::collections::HashSet<u64> =
            plts.iter().map(|p| (p * 1000.0) as u64).collect();
        assert!(distinct.len() > 1, "noise must vary across loads");
    }
}
