//! Observability glue for the harness layers: registry export helpers
//! for page-load and fleet results, and the process-global channel
//! table behind the experiment binaries' `--trace-out`, `--capture-out`,
//! `--span-out` and `--audit-out` flags.
//!
//! The channels are process-global because experiment bodies shard
//! site loops across threads (`bench::parallel_map`) and each load
//! builds its own world: every instrumented load gets a private
//! single-threaded recorder ([`FlowTracer`](mm_metrics::FlowTracer),
//! [`mm_capture::Capture`], [`mm_trace::TraceBuffer`],
//! [`mm_audit::Auditor`]) and appends its JSONL to the shared buffer
//! when the load completes. Every [`Channel`] has the same shape — an
//! enable flag, a CAS-claimed load budget handing out process-unique
//! load ids, and the merge buffer — driven by four functions:
//! [`enable`], [`claim`], [`append`] and [`take`]. Recorders only
//! observe; simulation results (and therefore BENCH outputs) are
//! byte-identical with them on or off.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::fleet::FleetResult;
use mm_metrics::{Registry, LATENCY_BUCKETS_S};
use mm_sim::SimDuration;
use mm_trace::{Span, SpanKind, SpanSink};

/// One process-global observer channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Channel {
    /// Per-flow TCP samples (`--trace-out`).
    Trace,
    /// Per-packet and per-request events (`--capture-out`).
    Capture,
    /// Causal spans (`--span-out`).
    Spans,
    /// Conformance audit reports (`--audit`, `--audit-out`).
    Audit,
}

/// One channel's state: an on/off flag, a budget of page loads still
/// to record (claimed by CAS so threaded site loops never over-record),
/// a process-unique load-id allocator, and the buffer completed loads
/// append their JSONL to.
struct ChannelState {
    enabled: AtomicBool,
    budget: AtomicU64,
    next_load: AtomicU64,
    buffer: Mutex<String>,
}

impl ChannelState {
    const fn off() -> ChannelState {
        ChannelState {
            enabled: AtomicBool::new(false),
            budget: AtomicU64::new(0),
            next_load: AtomicU64::new(0),
            buffer: Mutex::new(String::new()),
        }
    }
}

/// The channel table, indexed by `Channel as usize`.
static CHANNELS: [ChannelState; 4] = [
    ChannelState::off(),
    ChannelState::off(),
    ChannelState::off(),
    ChannelState::off(),
];

fn state(channel: Channel) -> &'static ChannelState {
    &CHANNELS[channel as usize]
}

/// Default number of page loads a `--capture-out` run captures. Packet
/// captures are far denser than flow traces (every enqueue/dequeue/
/// deliver at every shell), so the budget keeps a many-hundred-load
/// sweep from writing gigabytes while still giving `mmobs graph`
/// several complete loads to draw.
pub const DEFAULT_CAPTURE_LOADS: u64 = 8;

/// Default number of page loads a `--span-out` run records. Spans are
/// per-resource rather than per-packet (a few hundred per load), so
/// the budget can afford more loads than packet capture — enough for
/// `mmobs path --diff` to pair both arms of a protocol comparison
/// across several sites.
pub const DEFAULT_SPAN_LOADS: u64 = 64;

/// Turn `channel` on for the next `max_loads` page loads (`u64::MAX`
/// for every load). Each [`run_page_load`](crate::harness::run_page_load)
/// that claims a slot records into a private recorder and appends its
/// JSONL to the channel's buffer when the load completes.
pub fn enable(channel: Channel, max_loads: u64) {
    let st = state(channel);
    st.budget.store(max_loads, Ordering::SeqCst);
    st.enabled.store(true, Ordering::SeqCst);
}

/// Claim a recording slot for one page load, returning its
/// process-unique load id, or `None` when the channel is off or its
/// budget is spent.
pub fn claim(channel: Channel) -> Option<u64> {
    let st = state(channel);
    if !st.enabled.load(Ordering::SeqCst) {
        return None;
    }
    let mut budget = st.budget.load(Ordering::SeqCst);
    loop {
        if budget == 0 {
            return None;
        }
        match st
            .budget
            .compare_exchange(budget, budget - 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => return Some(st.next_load.fetch_add(1, Ordering::SeqCst)),
            Err(seen) => budget = seen,
        }
    }
}

/// Append one load's JSONL to the channel's buffer.
pub fn append(channel: Channel, jsonl: &str) {
    if !jsonl.is_empty() {
        state(channel)
            .buffer
            .lock()
            .expect("obs buffer poisoned")
            .push_str(jsonl);
    }
}

/// Take everything appended to the channel so far (the `--*-out`
/// writers).
pub fn take(channel: Channel) -> String {
    std::mem::take(&mut *state(channel).buffer.lock().expect("obs buffer poisoned"))
}

/// A [`SpanSink`] that turns per-resource phase spans into labeled
/// duration histograms in a [`Registry`] — the soak harness's view of
/// the span layer: no buffering, no ids, just which phase's tail grows
/// as the offered load approaches the knee. Histogram names follow
/// `<prefix>_phase_<kind>_seconds` so the `_seconds` suffix picks up
/// the latency bucket ladder downstream.
pub struct PhaseSink {
    registry: Registry,
    prefix: &'static str,
}

impl PhaseSink {
    pub fn new(registry: Registry, prefix: &'static str) -> PhaseSink {
        PhaseSink { registry, prefix }
    }

    fn name_for(&self, kind: SpanKind) -> Option<String> {
        if !kind.is_phase() || kind == SpanKind::Failed {
            return None;
        }
        Some(format!("{}_phase_{}_seconds", self.prefix, kind.as_str()))
    }
}

impl SpanSink for PhaseSink {
    fn record(&self, span: Span) {
        let Some(name) = self.name_for(span.kind) else {
            return;
        };
        self.registry
            .histogram(
                &name,
                "Per-resource phase duration from the span layer.",
                &LATENCY_BUCKETS_S,
            )
            .observe(span.dur_ns() as f64 / 1e9);
    }
}

/// Record one page-load time into the `plt_seconds` histogram.
pub fn record_plt(registry: &Registry, plt: SimDuration) {
    registry
        .histogram(
            "plt_seconds",
            "Page load time distribution.",
            &LATENCY_BUCKETS_S,
        )
        .observe(plt.as_secs_f64());
}

/// Export a fleet world's outcome: the population PLT histogram,
/// per-user goodput gauges, and the bottleneck-queue high-water marks
/// in both denominations.
pub fn export_fleet_metrics(result: &FleetResult, registry: &Registry) {
    let plt = registry.histogram(
        "fleet_plt_seconds",
        "Per-user page load times in the shared world.",
        &LATENCY_BUCKETS_S,
    );
    for user in &result.users {
        plt.observe(user.plt_ms / 1e3);
        registry
            .gauge_with(
                "fleet_user_goodput_bps",
                "Bulk goodput of one user's download.",
                &[("user", &user.user.to_string())],
            )
            .set(user.goodput_bps);
    }
    registry
        .gauge(
            "fleet_queue_max_downlink_packets",
            "High-water backlog of the bottleneck downlink queue.",
        )
        .set(result.max_downlink_queue_packets as f64);
    registry
        .gauge(
            "fleet_queue_max_uplink_packets",
            "High-water backlog of the bottleneck uplink queue.",
        )
        .set(result.max_uplink_queue_packets as f64);
    registry
        .gauge(
            "fleet_queue_max_downlink_bytes",
            "Byte-denominated downlink backlog high-water mark.",
        )
        .set(result.max_downlink_queue_bytes as f64);
    registry
        .gauge(
            "fleet_queue_max_uplink_bytes",
            "Byte-denominated uplink backlog high-water mark.",
        )
        .set(result.max_uplink_queue_bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_buffer_accumulates_and_drains() {
        // Note: shares process-global state with other tests, so only
        // assert on our own marker line surviving the round trip.
        append(Channel::Trace, "{\"flow\":999999}\n");
        let drained = take(Channel::Trace);
        assert!(drained.contains("{\"flow\":999999}"));
        assert!(!take(Channel::Trace).contains("999999"));
    }

    #[test]
    fn capture_claim_requires_enable_and_buffer_roundtrips() {
        // The capture flag is process-global, so unit tests leave it
        // off (enabling here would leak capture work into every other
        // concurrently-running harness test).
        assert!(claim(Channel::Capture).is_none());
        append(Channel::Capture, "{\"ev\":\"pkt\",\"load\":123456}\n");
        let drained = take(Channel::Capture);
        assert!(drained.contains("123456"));
        assert!(!take(Channel::Capture).contains("123456"));
    }

    #[test]
    fn span_claim_requires_enable_and_buffer_roundtrips() {
        // Like capture, the span flag is process-global; unit tests
        // leave it off and only exercise the buffer round trip.
        assert!(claim(Channel::Spans).is_none());
        append(Channel::Spans, "{\"ev\":\"span\",\"load\":654321}\n");
        let drained = take(Channel::Spans);
        assert!(drained.contains("654321"));
        assert!(!take(Channel::Spans).contains("654321"));
    }

    #[test]
    fn phase_sink_observes_phase_kinds_only() {
        let registry = Registry::new();
        let sink = PhaseSink::new(registry.clone(), "soak");
        let span = |kind| Span {
            load: 0,
            id: 0,
            parent: 0,
            kind,
            t0_ns: 0,
            t1_ns: 250_000_000,
            res: 0,
            conn: 0,
            url: String::new(),
            detail: String::new(),
        };
        sink.record(span(SpanKind::Queued));
        sink.record(span(SpanKind::Transfer));
        sink.record(span(SpanKind::Page)); // not a phase: ignored
        sink.record(span(SpanKind::Conn)); // not a phase: ignored
        let text = registry.encode();
        assert!(text.contains("soak_phase_queued_seconds_count 1"));
        assert!(text.contains("soak_phase_transfer_seconds_count 1"));
        assert!(!text.contains("soak_phase_page"));
        assert!(!text.contains("soak_phase_conn"));
    }

    #[test]
    fn record_plt_fills_buckets() {
        let registry = Registry::new();
        record_plt(&registry, SimDuration::from_millis(300));
        record_plt(&registry, SimDuration::from_millis(1500));
        let text = registry.encode();
        assert!(text.contains("plt_seconds_count 2"));
        assert!(text.contains("plt_seconds_bucket{le=\"0.5\"} 1"));
    }
}
