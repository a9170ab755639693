//! The traced pass's own span log: one span per load, per world build,
//! per probe call, and per-tag dispatch totals per load, each with its
//! parent's id. Kept in memory and written once when the run ends (a
//! run dispatches millions of events, so there is no per-event span).

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are host nanoseconds since the log began.
struct BenchSpan {
    id: u64,
    parent: u64,
    kind: &'static str,
    name: String,
    t0_ns: u64,
    dur_ns: u64,
    /// What the span counts: events for a tag, loads or calls for a probe.
    count: u64,
}

/// A span that has started; its id is fixed so children can name it.
pub struct Open {
    pub id: u64,
    t0: Instant,
}

pub struct SpanLog {
    origin: Instant,
    next_id: u64,
    spans: Vec<BenchSpan>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Start a span now (id 0 is "no parent").
    pub fn start(&mut self) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            t0: Instant::now(),
        }
    }

    /// End `open` now under `parent`; returns its id.
    pub fn end(
        &mut self,
        open: Open,
        parent: u64,
        kind: &'static str,
        name: &str,
        count: u64,
    ) -> u64 {
        let dur_ns = open.t0.elapsed().as_nanos() as u64;
        self.push(open.id, parent, kind, name, open.t0, dur_ns, count);
        open.id
    }

    /// Record a finished span measured elsewhere (`dur_ns` of host time
    /// starting at `t0`); returns its id.
    pub fn record(
        &mut self,
        parent: u64,
        kind: &'static str,
        name: &str,
        t0: Instant,
        dur_ns: u64,
        count: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.push(id, parent, kind, name, t0, dur_ns, count);
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        id: u64,
        parent: u64,
        kind: &'static str,
        name: &str,
        t0: Instant,
        dur_ns: u64,
        count: u64,
    ) {
        self.spans.push(BenchSpan {
            id,
            parent,
            kind,
            name: name.to_string(),
            t0_ns: t0.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns,
            count,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// One JSON object per line, in id order.
    pub fn to_jsonl(&self) -> String {
        let mut spans: Vec<&BenchSpan> = self.spans.iter().collect();
        spans.sort_by_key(|s| s.id);
        let mut out = String::new();
        for s in spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"kind\":\"{}\",\"name\":\"{}\",\"t0_ns\":{},\"dur_ns\":{},\"count\":{}}}",
                s.id, s.parent, s.kind, s.name, s.t0_ns, s.dur_ns, s.count
            );
        }
        out
    }
}
