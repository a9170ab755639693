//! Parse capture files back into [`CaptureData`]: the decoding half of
//! the two serializations [`crate::capture`] writes.
//!
//! The JSONL reader scans the flat, fixed-shape objects
//! [`data_to_jsonl`](crate::data_to_jsonl) emits with the shared
//! `mm_metrics::jsonl` scanner. Every line carries a `load` tag; lines
//! are grouped into one [`CaptureData`] per load (loads run in separate
//! simulations with separate clocks, so they must never be mixed).
//! Binary captures are recognized by [`BINARY_MAGIC`] and decoded by
//! [`decode_binary`]. Both readers return `Err` on malformed input and
//! never panic.

use std::collections::BTreeMap;

use mm_metrics::jsonl::{get_str, get_u64, get_u64_array, parse_lines};

use crate::capture::BINARY_MAGIC;
use crate::{
    CaptureData, Dir, HttpEvent, HttpPhase, LinkMeta, PacketEvent, PacketEventKind, PointKind,
    TapPoint,
};

fn get_point(line: &str) -> Result<TapPoint, String> {
    let kind = match get_str(line, "at")?.as_str() {
        "link" => PointKind::Link,
        "delay" => PointKind::Delay,
        "loss" => PointKind::Loss,
        other => return Err(format!("unknown tap point kind {other:?}")),
    };
    let dir = match get_str(line, "dir")?.as_str() {
        "up" => Dir::Up,
        "down" => Dir::Down,
        other => return Err(format!("unknown direction {other:?}")),
    };
    Ok(TapPoint {
        kind,
        index: get_u64(line, "i")? as u32,
        dir,
    })
}

fn parse_line(line: &str, by_load: &mut BTreeMap<u64, CaptureData>) -> Result<(), String> {
    let ev = get_str(line, "ev")?;
    let load = get_u64(line, "load")?;
    let data = by_load.entry(load).or_insert_with(|| CaptureData {
        load,
        ..CaptureData::default()
    });
    match ev.as_str() {
        "link" => data.links.push(LinkMeta {
            point: get_point(line)?,
            deliveries_ms: get_u64_array(line, "deliveries_ms")?.into(),
            period_ms: get_u64(line, "period_ms")?,
            mtu_bytes: get_u64(line, "mtu")? as u32,
        }),
        "pkt" => data.packets.push(PacketEvent {
            t_ns: get_u64(line, "t_ns")?,
            kind: match get_str(line, "kind")?.as_str() {
                "enq" => PacketEventKind::Enqueue,
                "deq" => PacketEventKind::Dequeue,
                "drop" => PacketEventKind::Drop,
                "del" => PacketEventKind::Deliver,
                other => return Err(format!("unknown packet event kind {other:?}")),
            },
            point: get_point(line)?,
            pkt_id: get_u64(line, "pkt")?,
            size_bytes: get_u64(line, "size")? as u32,
            sojourn_ns: get_u64(line, "sojourn_ns")?,
            // Absent in pre-flow capture files; 0 means "no identity".
            flow: get_u64(line, "flow").unwrap_or(0),
        }),
        "http" => data.https.push(HttpEvent {
            t_ns: get_u64(line, "t_ns")?,
            phase: match get_str(line, "phase")?.as_str() {
                "queued" => HttpPhase::Queued,
                "sent" => HttpPhase::Sent,
                "done" => HttpPhase::Done,
                "failed" => HttpPhase::Failed,
                "srv_recv" => HttpPhase::ServerRecv,
                "srv_sent" => HttpPhase::ServerSent,
                other => return Err(format!("unknown http phase {other:?}")),
            },
            resource: get_u64(line, "res")? as u32,
            url: get_str(line, "url")?,
            status: get_u64(line, "status")? as u16,
            bytes: get_u64(line, "bytes")?,
        }),
        other => return Err(format!("unknown event type {other:?}")),
    }
    Ok(())
}

/// Parse a JSONL capture, grouping events into one [`CaptureData`] per
/// load, ordered by load id.
pub fn parse_capture_jsonl(text: &str) -> Result<Vec<CaptureData>, String> {
    let mut by_load = BTreeMap::new();
    parse_lines(text, |line| parse_line(line, &mut by_load))?;
    Ok(by_load.into_values().collect())
}

/// Cursor over the binary format; every read is bounds-checked.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "truncated capture: need {} bytes at offset {}, have {}",
                n,
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn point(&mut self) -> Result<TapPoint, String> {
        let kind = match self.u8()? {
            0 => PointKind::Link,
            1 => PointKind::Delay,
            2 => PointKind::Loss,
            k => return Err(format!("bad point kind {k}")),
        };
        let dir = match self.u8()? {
            0 => Dir::Up,
            1 => Dir::Down,
            d => return Err(format!("bad direction {d}")),
        };
        let index = self.u32()?;
        Ok(TapPoint { kind, index, dir })
    }
}

/// Decode the binary format back into a [`CaptureData`]. Exact inverse
/// of [`encode_binary`].
pub fn decode_binary(buf: &[u8]) -> Result<CaptureData, String> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(BINARY_MAGIC.len())? != BINARY_MAGIC {
        return Err("not a binary capture (bad magic)".to_string());
    }
    let load = r.u64()?;
    let dropped = r.u64()?;
    let n_links = r.u32()? as usize;
    let n_packets = r.u32()? as usize;
    let n_https = r.u32()? as usize;
    let mut data = CaptureData {
        load,
        dropped,
        ..CaptureData::default()
    };
    for _ in 0..n_links {
        let point = r.point()?;
        let period_ms = r.u64()?;
        let mtu_bytes = r.u32()?;
        let n = r.u32()? as usize;
        let mut deliveries_ms = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            deliveries_ms.push(r.u64()?);
        }
        data.links.push(LinkMeta {
            point,
            deliveries_ms: deliveries_ms.into(),
            period_ms,
            mtu_bytes,
        });
    }
    for _ in 0..n_packets {
        let t_ns = r.u64()?;
        let kind = match r.u8()? {
            0 => PacketEventKind::Enqueue,
            1 => PacketEventKind::Dequeue,
            2 => PacketEventKind::Drop,
            3 => PacketEventKind::Deliver,
            k => return Err(format!("bad packet event kind {k}")),
        };
        let point = r.point()?;
        let pkt_id = r.u64()?;
        let size_bytes = r.u32()?;
        let sojourn_ns = r.u64()?;
        let flow = r.u64()?;
        data.packets.push(PacketEvent {
            t_ns,
            kind,
            point,
            pkt_id,
            size_bytes,
            sojourn_ns,
            flow,
        });
    }
    for _ in 0..n_https {
        let t_ns = r.u64()?;
        let phase = match r.u8()? {
            0 => HttpPhase::Queued,
            1 => HttpPhase::Sent,
            2 => HttpPhase::Done,
            3 => HttpPhase::Failed,
            4 => HttpPhase::ServerRecv,
            5 => HttpPhase::ServerSent,
            p => return Err(format!("bad http phase {p}")),
        };
        let resource = r.u32()?;
        let status = r.u16()?;
        let bytes = r.u64()?;
        let url_len = r.u32()? as usize;
        let url = String::from_utf8(r.take(url_len)?.to_vec())
            .map_err(|e| format!("bad url utf-8: {e}"))?;
        data.https.push(HttpEvent {
            t_ns,
            phase,
            resource,
            url,
            status,
            bytes,
        });
    }
    if r.pos != buf.len() {
        return Err(format!(
            "{} trailing bytes after capture",
            buf.len() - r.pos
        ));
    }
    Ok(data)
}

/// Parse either capture serialization: binary (by magic) or JSONL.
pub fn parse_capture_bytes(bytes: &[u8]) -> Result<Vec<CaptureData>, String> {
    if bytes.starts_with(BINARY_MAGIC) {
        return Ok(vec![decode_binary(bytes)?]);
    }
    let text = std::str::from_utf8(bytes).map_err(|e| format!("capture is not UTF-8: {e}"))?;
    parse_capture_jsonl(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{data_to_jsonl, encode_binary, Capture, PacketTap, NO_RESOURCE};

    fn sample_data(load: u64) -> CaptureData {
        let cap = Capture::for_load(load);
        cap.on_link_meta(&LinkMeta {
            point: TapPoint {
                kind: PointKind::Link,
                index: 2,
                dir: Dir::Down,
            },
            deliveries_ms: vec![0, 1, 1, 3].into(),
            period_ms: 4,
            mtu_bytes: 1500,
        });
        cap.on_packet(&PacketEvent {
            t_ns: 1_500_000,
            kind: PacketEventKind::Dequeue,
            point: TapPoint {
                kind: PointKind::Link,
                index: 2,
                dir: Dir::Down,
            },
            flow: 7,
            pkt_id: 42,
            size_bytes: 1460,
            sojourn_ns: 320_000,
        });
        cap.on_http(&HttpEvent {
            t_ns: 9,
            phase: HttpPhase::Done,
            resource: 0,
            url: "http://10.0.0.1/a\"b\\c".to_string(),
            status: 200,
            bytes: 1234,
        });
        cap.on_http(&HttpEvent {
            t_ns: 10,
            phase: HttpPhase::ServerSent,
            resource: NO_RESOURCE,
            url: "/a".to_string(),
            status: 200,
            bytes: 1234,
        });
        cap.data()
    }

    #[test]
    fn jsonl_roundtrip_exact() {
        let data = sample_data(7);
        let parsed = parse_capture_jsonl(&data_to_jsonl(&data)).unwrap();
        assert_eq!(parsed, vec![data]);
    }

    #[test]
    fn multiple_loads_grouped_and_ordered() {
        let a = sample_data(5);
        let b = sample_data(2);
        let merged = format!("{}{}", data_to_jsonl(&a), data_to_jsonl(&b));
        let parsed = parse_capture_jsonl(&merged).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].load, 2);
        assert_eq!(parsed[1].load, 5);
        assert_eq!(parsed[1], a);
    }

    #[test]
    fn binary_bytes_detected_by_magic() {
        let data = sample_data(3);
        let parsed = parse_capture_bytes(&encode_binary(&data)).unwrap();
        assert_eq!(parsed, vec![data]);
    }

    #[test]
    fn url_containing_key_pattern_does_not_confuse_scanner() {
        // A URL whose text contains `","t_ns":` style fragments: the
        // embedded quotes are escaped on write, so the scanner must skip
        // them when locating real keys.
        let data = {
            let cap = Capture::for_load(0);
            cap.on_http(&HttpEvent {
                t_ns: 4,
                phase: HttpPhase::Queued,
                resource: 1,
                url: "http://x/?q=\",\"t_ns\":999,\"".to_string(),
                status: 0,
                bytes: 0,
            });
            cap.data()
        };
        let parsed = parse_capture_jsonl(&data_to_jsonl(&data)).unwrap();
        assert_eq!(parsed, vec![data]);
        assert_eq!(parsed[0].https[0].t_ns, 4);
    }

    #[test]
    fn bad_lines_are_reported_with_line_numbers() {
        let err = parse_capture_jsonl("{\"ev\":\"pkt\",\"load\":1}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = parse_capture_jsonl("{\"ev\":\"nope\",\"load\":1}").unwrap_err();
        assert!(err.contains("unknown event type"), "{err}");
    }
}
