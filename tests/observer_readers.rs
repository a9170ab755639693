//! The observer artifact readers — capture JSONL and binary, span JSONL,
//! audit-report JSONL — return `Ok` or `Err` on any input and never
//! panic: valid encodings cut short or with junk spliced in, and
//! arbitrary bytes.

use mm_audit::{parse_audit_jsonl, Auditor};
use mm_capture::{
    decode_binary, encode_binary, parse_capture_bytes, parse_capture_jsonl, Capture, Dir,
    HttpEvent, HttpPhase, LinkMeta, PacketEvent, PacketEventKind, PacketTap, PointKind, TapPoint,
    BINARY_MAGIC,
};
use mm_trace::{parse_spans_jsonl, spans_to_jsonl, Span, SpanKind};
use proptest::prelude::*;

/// One small valid capture touching every line type.
fn capture() -> Capture {
    let point = TapPoint {
        kind: PointKind::Link,
        index: 1,
        dir: Dir::Down,
    };
    let cap = Capture::for_load(4);
    cap.on_link_meta(&LinkMeta {
        point,
        deliveries_ms: vec![0, 1, 3].into(),
        period_ms: 4,
        mtu_bytes: 1500,
    });
    cap.on_packet(&PacketEvent {
        t_ns: 1_000,
        kind: PacketEventKind::Dequeue,
        point,
        pkt_id: 9,
        size_bytes: 1500,
        sojourn_ns: 250,
        flow: 7,
    });
    cap.on_http(&HttpEvent {
        t_ns: 2_000,
        phase: HttpPhase::Done,
        resource: 0,
        url: "http://h/a\"b\\c\u{1}é".into(),
        status: 200,
        bytes: 512,
    });
    cap
}

/// Valid JSONL of each reader's format.
fn valid_texts() -> [String; 3] {
    let span = Span {
        load: 4,
        id: 1,
        parent: 0,
        kind: SpanKind::Page,
        t0_ns: 0,
        t1_ns: 100,
        res: 0,
        conn: 3,
        url: "http://h/\"x\"".into(),
        detail: "mux".into(),
    };
    let auditor = Auditor::for_load(4);
    auditor.on_packet(&PacketEvent {
        t_ns: 5,
        kind: PacketEventKind::Dequeue,
        point: TapPoint {
            kind: PointKind::Delay,
            index: 2,
            dir: Dir::Up,
        },
        pkt_id: 1,
        size_bytes: 40,
        sojourn_ns: 0,
        flow: 1,
    });
    [
        capture().to_jsonl(),
        spans_to_jsonl(&[span]),
        auditor.finish().to_jsonl(),
    ]
}

fn read_all_text(text: &str) {
    let _ = parse_capture_jsonl(text);
    let _ = parse_spans_jsonl(text);
    let _ = parse_audit_jsonl(text);
    let _ = parse_capture_bytes(text.as_bytes());
}

fn read_all_bytes(bytes: &[u8]) {
    let _ = decode_binary(bytes);
    let _ = parse_capture_bytes(bytes);
    read_all_text(&String::from_utf8_lossy(bytes));
}

/// The largest char boundary of `s` at or below `at`.
fn floor_boundary(s: &str, at: usize) -> usize {
    (0..=at.min(s.len()))
        .rev()
        .find(|&i| s.is_char_boundary(i))
        .unwrap_or(0)
}

#[test]
fn fixtures_are_valid() {
    let [capture_text, span_text, audit_text] = valid_texts();
    assert_eq!(
        parse_capture_jsonl(&capture_text).unwrap()[0],
        capture().data()
    );
    assert_eq!(parse_spans_jsonl(&span_text).unwrap().len(), 1);
    assert!(!parse_audit_jsonl(&audit_text)
        .unwrap()
        .violations
        .is_empty());
    assert_eq!(
        decode_binary(&capture().to_binary()).unwrap(),
        capture().data()
    );
}

proptest! {
    #[test]
    fn observer_readers_never_panic(
        which in 0usize..3,
        cut in 0usize..1024,
        junk in "[\u{0}-\u{1f} -~é€]{0,12}",
        flip in (0usize..1024, 1u8..=255),
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let texts = valid_texts();
        // A valid encoding cut short, and with junk spliced in.
        let text = &texts[which];
        let at = floor_boundary(text, cut);
        read_all_text(&text[..at]);
        read_all_text(&format!("{}{junk}{}", &text[..at], &text[at..]));
        // A valid binary capture cut short, and with one byte flipped.
        let bin = encode_binary(&capture().data());
        let (at, mask) = flip;
        let at = at % bin.len();
        read_all_bytes(&bin[..at]);
        let mut flipped = bin.clone();
        flipped[at] ^= mask;
        read_all_bytes(&flipped);
        // Arbitrary bytes, bare and behind the binary magic.
        read_all_bytes(&bytes);
        let mut magic = BINARY_MAGIC.to_vec();
        magic.extend_from_slice(&bytes);
        read_all_bytes(&magic);
    }
}
