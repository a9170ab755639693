//! Exit-code tests for the `mmobs` analyzer, run through the built
//! binary on small fixtures written by the libraries that own each
//! format.

use std::path::{Path, PathBuf};
use std::process::Command;

use mm_audit::Auditor;
use mm_capture::{
    Capture, Dir, LinkMeta, PacketEvent, PacketEventKind, PacketTap, PointKind, TapPoint,
};
use mm_trace::{spans_to_jsonl, Span, SpanKind, NO_RESOURCE};

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("mmobs")
        .join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `mmobs` with `args` and return its exit code.
fn mmobs(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_mmobs"))
        .args(args)
        .output()
        .expect("mmobs runs");
    out.status.code().expect("mmobs exited normally")
}

fn point() -> TapPoint {
    TapPoint {
        kind: PointKind::Link,
        index: 1,
        dir: Dir::Down,
    }
}

fn packet(kind: PacketEventKind, pkt_id: u64, t_ns: u64) -> PacketEvent {
    PacketEvent {
        t_ns,
        kind,
        point: point(),
        pkt_id,
        size_bytes: 1500,
        sojourn_ns: 0,
        flow: 0xabcd,
    }
}

/// An audit report over `packets` clean enqueue/dequeue pairs, plus one
/// dequeue of a packet never enqueued when `violate` is set.
fn audit_report(dir: &Path, packets: u64, violate: bool) -> String {
    let a = Auditor::for_load(0);
    for id in 0..packets {
        a.on_packet(&packet(PacketEventKind::Enqueue, id, id * 10));
        a.on_packet(&packet(PacketEventKind::Dequeue, id, id * 10 + 5));
    }
    if violate {
        a.on_packet(&packet(PacketEventKind::Dequeue, 999, 1_000));
    }
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("audit.jsonl"), a.finish().to_jsonl()).unwrap();
    dir.display().to_string()
}

fn span(id: u64, parent: u64, kind: SpanKind, t0: u64, t1: u64, res: u32) -> Span {
    Span {
        load: 1,
        id,
        parent,
        kind,
        t0_ns: t0,
        t1_ns: t1,
        res,
        conn: 7,
        url: format!("http://h/{res}"),
        detail: "http1".into(),
    }
}

/// One page whose single resource tiles `[0, 100]`; the page span ends
/// at `plt`, so any `plt` other than 100 leaves critical-path residue.
fn spans_file(dir: &Path, plt: u64) -> String {
    let spans = [
        span(1, 0, SpanKind::Page, 0, plt, NO_RESOURCE),
        span(2, 1, SpanKind::Resource, 0, 100, 0),
        span(3, 2, SpanKind::Queued, 0, 10, 0),
        span(4, 2, SpanKind::Transfer, 10, 90, 0),
        span(5, 2, SpanKind::Parse, 90, 100, 0),
    ];
    let path = dir.join("spans.jsonl");
    std::fs::write(&path, spans_to_jsonl(&spans)).unwrap();
    path.display().to_string()
}

#[test]
fn audit_clean_report_exits_0() {
    let dir = scratch("audit_clean");
    assert_eq!(mmobs(&["audit", &audit_report(&dir, 3, false)]), 0);
}

#[test]
fn audit_any_violation_exits_1() {
    let dir = scratch("audit_violation");
    let clean = audit_report(&dir.join("clean"), 3, false);
    let bad = audit_report(&dir.join("bad"), 3, true);
    assert_eq!(mmobs(&["audit", &bad]), 1);
    assert_eq!(mmobs(&["audit", &clean, &bad]), 1);
}

#[test]
fn audit_compare_identical_digests_exits_0() {
    let dir = scratch("compare_same");
    let a = audit_report(&dir.join("a"), 3, false);
    let b = audit_report(&dir.join("b"), 3, false);
    assert_eq!(mmobs(&["audit", "--compare", &a, &b]), 0);
}

#[test]
fn audit_compare_differing_digests_exits_1() {
    let dir = scratch("compare_differ");
    let a = audit_report(&dir.join("a"), 3, false);
    let b = audit_report(&dir.join("b"), 4, false);
    assert_eq!(mmobs(&["audit", "--compare", &a, &b]), 1);
}

#[test]
fn path_exact_tree_exits_0_and_writes_attribution() {
    let dir = scratch("path_exact");
    let spans = spans_file(&dir, 100);
    let out = dir.join("out");
    assert_eq!(mmobs(&["path", &spans, "--out", out.to_str().unwrap()]), 0);
    assert!(out.join("attribution.txt").is_file());
    assert!(out.join("waterfall-load1.svg").is_file());
}

#[test]
fn path_on_a_tree_with_residue_exits_nonzero() {
    let dir = scratch("path_residue");
    let spans = spans_file(&dir, 150);
    assert_ne!(mmobs(&["path", &spans]), 0);
}

#[test]
fn graph_renders_a_capture_directory() {
    let dir = scratch("graph");
    let cap = Capture::for_load(0);
    cap.on_link_meta(&LinkMeta {
        point: point(),
        deliveries_ms: vec![0, 1, 2].into(),
        period_ms: 3,
        mtu_bytes: 1500,
    });
    cap.on_packet(&packet(PacketEventKind::Enqueue, 1, 1_000_000));
    cap.on_packet(&packet(PacketEventKind::Dequeue, 1, 2_000_000));
    std::fs::write(dir.join("capture.jsonl"), cap.to_jsonl()).unwrap();
    let out = dir.join("graphs");
    let args = [
        "graph",
        dir.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ];
    assert_eq!(mmobs(&args), 0);
    assert!(out.join("load0-throughput-link1-down.svg").is_file());
}

#[test]
fn missing_flag_value_exits_2_in_every_subcommand() {
    let dir = scratch("missing_value");
    let spans = spans_file(&dir, 100);
    let report = audit_report(&dir, 1, false);
    let (spans, report) = (spans.as_str(), report.as_str());
    for args in [
        vec!["graph", report, "--out"],
        vec!["graph", report, "--bin-ms"],
        vec!["graph", report, "--out", "--bin-ms", "5"],
        vec!["path", spans, "--out"],
        vec!["path", "--diff", spans, "--out"],
        vec!["audit", report, "--out"],
    ] {
        assert_eq!(mmobs(&args), 2, "{args:?}");
    }
    // Nothing was written by the rejected invocations.
    assert!(!dir.join("attribution.txt").exists());
    assert_eq!(mmobs(&[]), 2);
    assert_eq!(mmobs(&["nope"]), 2);
}
