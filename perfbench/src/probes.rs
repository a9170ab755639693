//! Offline probes: timed calls into the public codec, lookup and
//! recording APIs on a workload's own sites, plus the per-channel
//! observer cost.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use mahimahi::harness::run_page_load;
use mm_audit::Auditor;
use mm_browser::{extract_urls, is_scannable, Browser, BrowserConfig, Resolver};
use mm_capture::Capture;
use mm_http::{write_request, write_response, RequestParser, ResponseParser};
use mm_mux::frame::response_fields;
use mm_mux::{Frame, FrameDecoder};
use mm_net::{Host, IpAddr, Namespace, PacketIdGen, SocketAddr};
use mm_record::{RecordShell, RequestResponsePair, StoredSite};
use mm_replay::{normalize_for_replay, Matcher, ReplayConfig, ReplayShell, StoreIndex};
use mm_sim::Simulator;
use mm_trace::{spans_to_jsonl, TraceBuffer};

use crate::spanlog::SpanLog;
use crate::timed::LoadOutput;
use crate::workload::Setup;

/// Mux DATA frames carry at most this much body (the `MuxConfig` default).
const MUX_FRAME_DATA: usize = 16 * 1024;

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn per_kb(ns: u64, bytes: u64) -> f64 {
    ns as f64 / (bytes.max(1) as f64 / 1024.0)
}

/// Host cost of the HTTP, replay, browser and mux layers' own code.
#[derive(Debug, Default, Clone)]
pub struct CodecCost {
    pub http_parse_ns_per_kb: f64,
    pub http_serialize_ns_per_kb: f64,
    pub replay_match_ns: f64,
    pub browser_scan_ns_per_kb: f64,
    pub mux_encode_ns_per_kb: f64,
    pub mux_decode_ns_per_kb: f64,
    /// Every probe round-tripped its input exactly.
    pub ok: bool,
}

/// Time the codecs over every recorded exchange of `sites`: HTTP/1.1
/// serialize and parse of each request and (replay-normalized) response,
/// a matcher lookup per request, a subresource scan of each scannable
/// body, and a mux encode/decode of each response.
pub fn codecs(sites: &[StoredSite], log: &mut SpanLog, parent: u64) -> CodecCost {
    let t_probe = log.start();
    let (mut ser_ns, mut parse_ns, mut http_bytes) = (0u64, 0u64, 0u64);
    let (mut match_ns, mut lookups) = (0u64, 0u64);
    let (mut scan_ns, mut scan_bytes) = (0u64, 0u64);
    let (mut enc_ns, mut dec_ns, mut mux_bytes) = (0u64, 0u64, 0u64);
    let mut ok = true;
    for site in sites {
        let matcher = Matcher::new(StoreIndex::build(site));
        for pair in &site.pairs {
            let resp = normalize_for_replay(&pair.response);

            let t0 = Instant::now();
            let req_wire = write_request(&pair.request);
            let resp_wire = write_response(&resp);
            ser_ns += ns_since(t0);
            http_bytes += (req_wire.len() + resp_wire.len()) as u64;
            let t0 = Instant::now();
            let reqs = RequestParser::new().feed(&req_wire);
            let resps = ResponseParser::new().feed(&resp_wire);
            parse_ns += ns_since(t0);
            ok &= matches!(&reqs, Ok(r) if r.len() == 1 && r[0] == pair.request);
            ok &= matches!(&resps, Ok(r) if r.len() == 1 && r[0].body == resp.body);

            let t0 = Instant::now();
            let found = matcher.lookup(&pair.request);
            match_ns += ns_since(t0);
            lookups += 1;
            ok &= found.is_some();

            if is_scannable(&resp) {
                let t0 = Instant::now();
                std::hint::black_box(extract_urls(&resp.body));
                scan_ns += ns_since(t0);
                scan_bytes += resp.body.len() as u64;
            }

            let t0 = Instant::now();
            let mut frames = vec![Frame::Headers {
                stream: 1,
                end_stream: resp.body.is_empty(),
                priority: 0,
                fields: response_fields(&resp),
            }];
            let chunks = resp.body.len().div_ceil(MUX_FRAME_DATA);
            for k in 0..chunks {
                let end = ((k + 1) * MUX_FRAME_DATA).min(resp.body.len());
                frames.push(Frame::Data {
                    stream: 1,
                    end_stream: k + 1 == chunks,
                    payload: resp.body.slice(k * MUX_FRAME_DATA..end),
                });
            }
            let wire: Vec<u8> = frames.iter().flat_map(|f| f.encode().to_vec()).collect();
            enc_ns += ns_since(t0);
            mux_bytes += wire.len() as u64;
            let t0 = Instant::now();
            let decoded = FrameDecoder::new().feed(&wire);
            dec_ns += ns_since(t0);
            ok &= decoded.as_ref() == Ok(&frames);
        }
    }
    log.end(t_probe, parent, "probe", "codecs", lookups);
    CodecCost {
        http_parse_ns_per_kb: per_kb(parse_ns, http_bytes),
        http_serialize_ns_per_kb: per_kb(ser_ns, http_bytes),
        replay_match_ns: match_ns as f64 / lookups.max(1) as f64,
        browser_scan_ns_per_kb: per_kb(scan_ns, scan_bytes),
        mux_encode_ns_per_kb: per_kb(enc_ns, mux_bytes),
        mux_decode_ns_per_kb: per_kb(dec_ns, mux_bytes),
        ok,
    }
}

/// One site recorded through RecordShell, encoded and decoded.
#[derive(Debug, Default, Clone)]
pub struct RecordCost {
    /// Host time of the recorded load (world build plus simulation).
    pub proxy_ms: f64,
    pub encode_ns_per_kb: f64,
    /// Decode cost per KiB, decoding each recorded exchange on its own
    /// (`StoredSite::from_json` on the whole store takes tens of seconds
    /// per stride site; see NOTES.md).
    pub decode_ns_per_kb: f64,
    pub pairs: u64,
    pub store_kb: f64,
    /// The decoded exchanges equal the recording, and replaying them
    /// fetches the live load's resources and bytes.
    pub ok: bool,
}

/// Record `site` by loading it through RecordShell from a ReplayShell
/// "internet", encode the recording, decode it, and replay the result.
pub fn record_roundtrip(site: &StoredSite, log: &mut SpanLog, parent: u64) -> RecordCost {
    let t_probe = log.start();
    let t0 = Instant::now();
    let mut sim = Simulator::new();
    let internet = Namespace::root("internet");
    let ids = PacketIdGen::new();
    let servers = Rc::new(ReplayShell::new(
        &internet,
        site,
        ReplayConfig::default(),
        &ids,
    ));
    let shell = RecordShell::new(
        &internet,
        "recordshell",
        IpAddr::new(192, 168, 0, 9),
        ids.clone(),
        &site.name,
        &site.root_url,
    );
    let host = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &shell.inner_ns);
    let resolver: Resolver = Rc::new(move |url: &mm_http::Url| {
        let ip: IpAddr = url.host.parse().expect("replay corpora use IP literals");
        servers.resolve(SocketAddr::new(ip, url.port))
    });
    let browser = Browser::new(host, resolver, BrowserConfig::default());
    let slot = Rc::new(RefCell::new(None));
    let done = slot.clone();
    browser.navigate(&mut sim, &site.root_url, move |_, r| {
        *done.borrow_mut() = Some(r);
    });
    sim.run();
    let proxy_ns = ns_since(t0);
    let live = slot.borrow_mut().take().map(|r| LoadOutput::of(&r));
    let recording = shell.recorded();

    let t0 = Instant::now();
    let json = recording.to_json();
    let encode_ns = ns_since(t0);

    let mut decode_ns = 0;
    let mut decoded_bytes = 0;
    let mut pairs = Vec::with_capacity(recording.pairs.len());
    for pair in &recording.pairs {
        let text = serde_json::to_string(pair).expect("pairs encode");
        let t0 = Instant::now();
        let back: Result<RequestResponsePair, _> = serde_json::from_str(&text);
        decode_ns += ns_since(t0);
        decoded_bytes += text.len() as u64;
        if let Ok(p) = back {
            pairs.push(p);
        }
    }
    let decoded = StoredSite {
        name: recording.name.clone(),
        root_url: recording.root_url.clone(),
        pairs,
    };
    let replayed = (!decoded.pairs.is_empty())
        .then(|| LoadOutput::of(&run_page_load(&mahimahi::harness::LoadSpec::new(&decoded))));
    let ok = decoded == recording
        && live.is_some_and(|l| {
            l.failures == 0
                && l.resources == recording.pairs.len() as u64
                && replayed.is_some_and(|r| {
                    r.failures == 0 && r.resources == l.resources && r.body_bytes == l.body_bytes
                })
        });
    log.end(
        t_probe,
        parent,
        "probe",
        "record-roundtrip",
        recording.pairs.len() as u64,
    );
    RecordCost {
        proxy_ms: proxy_ns as f64 / 1e6,
        encode_ns_per_kb: per_kb(encode_ns, json.len() as u64),
        decode_ns_per_kb: per_kb(decode_ns, decoded_bytes),
        pairs: recording.pairs.len() as u64,
        store_kb: json.len() as f64 / 1024.0,
        ok,
    }
}

/// Per-channel observer cost, from a fixed subsample of loads run with
/// no observer and then with one channel at a time.
#[derive(Debug, Default, Clone)]
pub struct ObserverCost {
    /// Host time of a load with no observer, ms.
    pub bare_ms_per_load: f64,
    /// Host time of the same loads with one channel on, over
    /// `bare_ms_per_load`.
    pub audit_ratio: f64,
    pub span_ratio: f64,
    pub capture_ratio: f64,
    /// JSONL encode cost per recorded span.
    pub span_encode_ns: f64,
    /// Span-tree build plus critical-path walk, per load.
    pub path_analyze_ns: f64,
    /// Every observed load had the unobserved load's outputs.
    pub ok: bool,
}

/// Observer channels measured one at a time.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Channel {
    None,
    Audit,
    Span,
    Capture,
}

/// Repeats per (site, channel); the minimum is kept.
const OBSERVER_REPS: usize = 3;

/// Measure each observer channel on `sites` (pairs of site index and
/// site) under the workload's network and protocol.
pub fn observer_cost(
    setup: &Setup,
    sites: &[(usize, StoredSite)],
    log: &mut SpanLog,
    parent: u64,
) -> ObserverCost {
    let t_probe = log.start();
    let channels = [
        Channel::None,
        Channel::Audit,
        Channel::Span,
        Channel::Capture,
    ];
    let mut best = vec![[u64::MAX; 4]; sites.len()];
    let (mut encode_ns, mut spans, mut analyze_ns, mut analyzed) = (0u64, 0u64, 0u64, 0u64);
    let mut ok = true;
    for (s, (i, site)) in sites.iter().enumerate() {
        let mut reference = None;
        for _ in 0..OBSERVER_REPS {
            for (c, &channel) in channels.iter().enumerate() {
                let mut spec = setup.load_spec(site, *i);
                let auditor = Auditor::for_load(*i as u64);
                let buffer = TraceBuffer::for_load(*i as u64);
                let capture = Capture::for_load(*i as u64);
                match channel {
                    Channel::None => {}
                    Channel::Audit => spec.audit = Some(auditor.clone()),
                    Channel::Span => spec.span = Some(buffer.handle()),
                    Channel::Capture => spec.capture = Some(capture.handle()),
                }
                let t0 = Instant::now();
                let r = run_page_load(&spec);
                if channel == Channel::Audit {
                    ok &= auditor.finish().is_clean();
                }
                best[s][c] = best[s][c].min(ns_since(t0));
                let out = LoadOutput::of(&r);
                ok &= *reference.get_or_insert(out) == out;
                if channel == Channel::Span {
                    let recorded = buffer.spans();
                    let t0 = Instant::now();
                    std::hint::black_box(spans_to_jsonl(&recorded));
                    encode_ns += ns_since(t0);
                    spans += recorded.len() as u64;
                    let t0 = Instant::now();
                    let pages = mm_path::build_pages(&recorded);
                    let path = pages.first().map(mm_path::critical_path);
                    analyze_ns += ns_since(t0);
                    analyzed += 1;
                    ok &= path.is_some_and(|p| {
                        p.iter().map(|seg| seg.dur_ns()).sum::<u64>() == out.plt_ns
                    });
                }
            }
        }
    }
    log.end(
        t_probe,
        parent,
        "probe",
        "observer-channels",
        sites.len() as u64,
    );
    let total_ns = |c: usize| best.iter().map(|b| b[c] as f64).sum::<f64>();
    let ratio = |c: usize| total_ns(c) / total_ns(0).max(1.0);
    ObserverCost {
        bare_ms_per_load: total_ns(0) / sites.len().max(1) as f64 / 1e6,
        audit_ratio: ratio(1),
        span_ratio: ratio(2),
        capture_ratio: ratio(3),
        span_encode_ns: encode_ns as f64 / spans.max(1) as f64,
        path_analyze_ns: analyze_ns as f64 / analyzed.max(1) as f64,
        ok,
    }
}
