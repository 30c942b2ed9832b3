//! The fabric wire protocol: one JSON object per `\n`-terminated line,
//! over the workspace's one [`Json`] codec and the service crate's frame
//! reader.
//!
//! Requests carry an `"op"` member, responses an `"ok"` member:
//!
//! | request | response |
//! |---------|----------|
//! | `{"op":"hello","name":..}` | `{"ok":"spec","spec":..,"fingerprint":..,"total":..,"cache_dir":..}` |
//! | `{"op":"next","name":..}` | `{"ok":"lease",..}` \| `{"ok":"wait","ms":..}` \| `{"ok":"drain"}` |
//! | `{"op":"rows","lease":..,"rows":..,..}` | `{"ok":"ack","end":..}` \| `{"ok":"gone"}` |
//! | `{"op":"ping","lease":..}` | `{"ok":"ack","end":..}` \| `{"ok":"gone"}` |
//! | `{"op":"stats"}` | `{"ok":"stats",..}` |
//!
//! The handshake's `spec` member holds the
//! [`SweepSpec::encode_spec`](stg_experiments::SweepSpec::encode_spec)
//! bytes that shard headers and service sweep requests carry too; workers
//! decode them with the validation `sweep merge` and the service apply.
//! As in the service, a request with an unknown member is refused, and
//! any malformed request draws `{"ok":"error","error":..}`. Row payloads
//! travel as the hex-encoded row section of the `STGSHRD` shard artifact,
//! coded by [`put_rows`]/[`take_rows`] — the workspace's one row codec —
//! so one frame carries a bounded batch of rows without JSON-escaping
//! every payload. This module adds only the hex wrapper.

use std::sync::OnceLock;
use stg_des::LeapStats;

use stg_experiments::json::{self, Json};
use stg_experiments::metrics::CounterSet;
use stg_experiments::store::{put_rows, take_rows, Outcome};

/// Frame bound for fabric connections: row batches are larger than the
/// service's request frames, but still bounded (a batch of
/// [`MAX_ROWS_PER_FRAME`] rows is a few hundred KiB at worst).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Upper bound on rows per `rows` frame; workers chunk larger leases so
/// partially-reported leases survive a mid-lease death.
pub const MAX_ROWS_PER_FRAME: usize = 128;

/// A parsed fabric request.
#[derive(Clone, Debug, PartialEq)]
pub enum FabricRequest {
    /// Worker handshake; the coordinator answers with the spec frame.
    Hello {
        /// Worker name (for logs only).
        name: String,
    },
    /// Lease request.
    Next {
        /// Worker name (for logs only).
        name: String,
    },
    /// A batch of evaluated rows for one lease, plus the worker-side
    /// store and leap telemetry deltas of the batch.
    Rows {
        /// Lease id the rows belong to.
        lease: u64,
        /// Decoded `(case index, outcome)` rows.
        rows: Vec<(usize, Outcome)>,
        /// Worker-side result-store hits while evaluating the batch.
        hits: u64,
        /// Worker-side result-store misses while evaluating the batch.
        misses: u64,
        /// Batched-simulator epoch-leap telemetry of the batch.
        leap: LeapStats,
    },
    /// Deadline refresh for a long-running lease.
    Ping {
        /// Lease id to refresh.
        lease: u64,
    },
    /// Counter snapshot request.
    Stats,
}

impl FabricRequest {
    /// Renders the request frame (no trailing newline).
    pub fn frame(&self) -> String {
        match self {
            FabricRequest::Hello { name } => Json::Obj(vec![
                ("op".into(), Json::Str("hello".into())),
                ("name".into(), Json::Str(name.clone())),
            ]),
            FabricRequest::Next { name } => Json::Obj(vec![
                ("op".into(), Json::Str("next".into())),
                ("name".into(), Json::Str(name.clone())),
            ]),
            FabricRequest::Rows {
                lease,
                rows,
                hits,
                misses,
                leap,
            } => {
                let mut members = vec![
                    ("op".into(), Json::Str("rows".into())),
                    ("lease".into(), Json::num(*lease)),
                    ("rows".into(), Json::Str(encode_rows(rows))),
                    ("hits".into(), Json::num(*hits)),
                    ("misses".into(), Json::num(*misses)),
                ];
                Json::push_counters(&mut members, leap);
                Json::Obj(members)
            }
            FabricRequest::Ping { lease } => Json::Obj(vec![
                ("op".into(), Json::Str("ping".into())),
                ("lease".into(), Json::num(*lease)),
            ]),
            FabricRequest::Stats => Json::Obj(vec![("op".into(), Json::Str("stats".into()))]),
        }
        .to_string()
    }

    /// Parses one request line. Unknown members are refused.
    pub fn parse(line: &str) -> Result<FabricRequest, String> {
        let v = json::parse(line).map_err(|e| format!("bad frame: {e}"))?;
        let op = v.str_field("op")?;
        v.check_fields(match op {
            "hello" | "next" => &["op", "name"],
            "rows" => rows_fields(),
            "ping" => &["op", "lease"],
            _ => &["op"],
        })?;
        let name = || Ok::<_, String>(v.opt_str("name")?.unwrap_or("worker").to_string());
        match op {
            "hello" => Ok(FabricRequest::Hello { name: name()? }),
            "next" => Ok(FabricRequest::Next { name: name()? }),
            "rows" => Ok(FabricRequest::Rows {
                lease: v.u64_field("lease")?,
                rows: decode_rows(v.str_field("rows")?)?,
                hits: v.u64_field("hits")?,
                misses: v.u64_field("misses")?,
                leap: v
                    .counters()
                    .ok_or_else(|| "rows frame missing leap telemetry".to_string())?,
            }),
            "ping" => Ok(FabricRequest::Ping {
                lease: v.u64_field("lease")?,
            }),
            "stats" => Ok(FabricRequest::Stats),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// The members a `rows` frame may carry: its own fields and the leap
/// counter set's.
fn rows_fields() -> &'static [&'static str] {
    static FIELDS: OnceLock<Vec<&'static str>> = OnceLock::new();
    FIELDS.get_or_init(|| {
        let mut fields = vec!["op", "lease", "rows", "hits", "misses"];
        LeapStats::default().visit(&mut |name, _| fields.push(name));
        fields
    })
}

/// A parsed fabric response.
#[derive(Clone, Debug, PartialEq)]
pub enum FabricResponse {
    /// Handshake answer: everything a worker needs to expand leases.
    Spec {
        /// The [`SweepSpec::encode_spec`](stg_experiments::SweepSpec::encode_spec) bytes.
        spec: String,
        /// The spec's grid fingerprint (workers verify their expansion).
        fingerprint: u64,
        /// Case count of the full grid.
        total: usize,
        /// Shared `--cache-dir`, when the coordinator has one.
        cache_dir: Option<String>,
    },
    /// A leased case range.
    Lease {
        /// Lease id (quote it back in `rows`/`ping`).
        lease: u64,
        /// First case index of the lease.
        start: usize,
        /// One past the last case index.
        end: usize,
        /// Deadline budget; the coordinator re-queues the lease this long
        /// after issue (each accepted `rows`/`ping` frame refreshes it).
        deadline_ms: u64,
    },
    /// No lease available right now; retry after `ms`.
    Wait {
        /// Suggested retry delay.
        ms: u64,
    },
    /// Every cell is merged; the worker should exit.
    Drain,
    /// Rows accepted; the lease now ends at `end` (steals shrink it).
    Ack {
        /// Current end of the lease range (`start..end` still owned).
        end: usize,
    },
    /// The lease is no longer outstanding (completed, stolen whole, or
    /// re-queued); abandon it and request the next one.
    Gone,
    /// Counter snapshot, one member per counter of the set.
    Stats(crate::FabricSnapshot),
    /// Malformed request.
    Error {
        /// Human-readable cause.
        error: String,
    },
}

impl FabricResponse {
    /// Renders the response frame (no trailing newline).
    pub fn frame(&self) -> String {
        match self {
            FabricResponse::Spec {
                spec,
                fingerprint,
                total,
                cache_dir,
            } => Json::Obj(vec![
                ("ok".into(), Json::Str("spec".into())),
                ("spec".into(), Json::Str(spec.clone())),
                (
                    "fingerprint".into(),
                    Json::Str(format!("{fingerprint:016x}")),
                ),
                ("total".into(), Json::num(*total)),
                (
                    "cache_dir".into(),
                    match cache_dir {
                        Some(dir) => Json::Str(dir.clone()),
                        None => Json::Null,
                    },
                ),
            ]),
            FabricResponse::Lease {
                lease,
                start,
                end,
                deadline_ms,
            } => Json::Obj(vec![
                ("ok".into(), Json::Str("lease".into())),
                ("lease".into(), Json::num(*lease)),
                ("start".into(), Json::num(*start)),
                ("end".into(), Json::num(*end)),
                ("deadline_ms".into(), Json::num(*deadline_ms)),
            ]),
            FabricResponse::Wait { ms } => Json::Obj(vec![
                ("ok".into(), Json::Str("wait".into())),
                ("ms".into(), Json::num(*ms)),
            ]),
            FabricResponse::Drain => Json::Obj(vec![("ok".into(), Json::Str("drain".into()))]),
            FabricResponse::Ack { end } => Json::Obj(vec![
                ("ok".into(), Json::Str("ack".into())),
                ("end".into(), Json::num(*end)),
            ]),
            FabricResponse::Gone => Json::Obj(vec![("ok".into(), Json::Str("gone".into()))]),
            FabricResponse::Stats(snap) => {
                let mut members = vec![("ok".into(), Json::Str("stats".into()))];
                Json::push_counters(&mut members, snap);
                Json::Obj(members)
            }
            FabricResponse::Error { error } => Json::Obj(vec![
                ("ok".into(), Json::Str("error".into())),
                ("error".into(), Json::Str(error.clone())),
            ]),
        }
        .to_string()
    }

    /// Parses one response line.
    pub fn parse(line: &str) -> Result<FabricResponse, String> {
        let v = json::parse(line).map_err(|e| format!("bad frame: {e}"))?;
        match v.str_field("ok")? {
            "spec" => Ok(FabricResponse::Spec {
                spec: v.str_field("spec")?.to_string(),
                fingerprint: u64::from_str_radix(v.str_field("fingerprint")?, 16)
                    .map_err(|e| format!("field \"fingerprint\": {e}"))?,
                total: v.usize_field("total")?,
                cache_dir: match v.required("cache_dir")? {
                    Json::Null => None,
                    _ => Some(v.str_field("cache_dir")?.to_string()),
                },
            }),
            "lease" => Ok(FabricResponse::Lease {
                lease: v.u64_field("lease")?,
                start: v.usize_field("start")?,
                end: v.usize_field("end")?,
                deadline_ms: v.u64_field("deadline_ms")?,
            }),
            "wait" => Ok(FabricResponse::Wait {
                ms: v.u64_field("ms")?,
            }),
            "drain" => Ok(FabricResponse::Drain),
            "ack" => Ok(FabricResponse::Ack {
                end: v.usize_field("end")?,
            }),
            "gone" => Ok(FabricResponse::Gone),
            "stats" => v
                .counters()
                .map(FabricResponse::Stats)
                .ok_or_else(|| "malformed stats frame".to_string()),
            "error" => Ok(FabricResponse::Error {
                error: v.str_field("error")?.to_string(),
            }),
            other => Err(format!("unknown response {other:?}")),
        }
    }
}

/// Encodes a row batch as the hex blob of the `rows` frame.
pub fn encode_rows(rows: &[(usize, Outcome)]) -> String {
    // Two buffers, none per row or, worse, per byte: the hex rendering
    // pushes nibbles directly.
    let mut bytes = Vec::with_capacity(4 + rows.len() * 104);
    put_rows(
        &mut bytes,
        rows.iter().map(|(index, outcome)| (*index, outcome)),
    );
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

/// Decodes an [`encode_rows`] blob in one pass over its digit pairs. A
/// blob that is not hex, or whose row section [`take_rows`] refuses, is
/// refused whole.
pub fn decode_rows(blob: &str) -> Result<Vec<(usize, Outcome)>, String> {
    let not_hex = || "rows blob is not hex".to_string();
    let (pairs, odd) = blob.as_bytes().as_chunks::<2>();
    if !odd.is_empty() {
        return Err(not_hex());
    }
    let mut bytes = Vec::with_capacity(pairs.len());
    for &[hi, lo] in pairs {
        let (hi, lo) = (NIBBLE[hi as usize], NIBBLE[lo as usize]);
        if (hi | lo) > 0xf {
            return Err(not_hex());
        }
        bytes.push(hi << 4 | lo);
    }
    take_rows(&bytes)
}

/// Each byte's value as a hex digit (either case), or `0xff` for a byte
/// that is not one.
const NIBBLE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        let digit = b"0123456789abcdef"[i];
        table[digit as usize] = i as u8;
        table[digit.to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<(usize, Outcome)> {
        let spec = stg_experiments::SweepSpec::paper(1, 3);
        let sweep = spec.run();
        sweep
            .runs
            .into_iter()
            .take(5)
            .map(|r| (r.case.index, r.outcome))
            .collect()
    }

    #[test]
    fn rows_blob_round_trips() {
        let rows = sample_rows();
        let blob = encode_rows(&rows);
        let back = decode_rows(&blob).unwrap();
        assert_eq!(back.len(), rows.len());
        for ((i, a), (j, b)) in rows.iter().zip(&back) {
            assert_eq!(i, j);
            let encode = stg_experiments::store::encode_outcome;
            assert_eq!(encode(a), encode(b));
        }
        // Truncations and junk decode to errors, never panics.
        assert!(decode_rows(&blob[..blob.len() - 2]).is_err());
        assert!(decode_rows("zz").is_err());
        assert!(decode_rows("abc").is_err());
        assert!(decode_rows(&format!("{blob}00")).is_err());
    }

    #[test]
    fn request_frames_round_trip() {
        let rows = sample_rows();
        for req in [
            FabricRequest::Hello { name: "w1".into() },
            FabricRequest::Next { name: "w1".into() },
            FabricRequest::Rows {
                lease: 9,
                rows,
                hits: 3,
                misses: 2,
                leap: stg_des::LeapStats {
                    sims: 2,
                    leaps: 1,
                    leaped_cycles: 50,
                    max_period: 4,
                    stepped_cycles: 70,
                    process_steps: 210,
                    windows_opened: 3,
                    windows_dirtied: 1,
                    windows_scan_failed: 1,
                    windows_rejected: 0,
                },
            },
            FabricRequest::Ping { lease: 7 },
            FabricRequest::Stats,
        ] {
            let line = req.frame();
            let back = FabricRequest::parse(&line).unwrap();
            // Outcome has no Eq; compare re-rendered frames instead.
            assert_eq!(back.frame(), line);
        }
        assert!(FabricRequest::parse("{}").is_err());
        assert!(FabricRequest::parse("{\"op\":\"launch\"}").is_err());
        assert!(FabricRequest::parse("not json").is_err());
        // Unknown members are refused, as in service requests.
        for line in [
            r#"{"op":"hello","name":"w1","nmae":"w2"}"#,
            r#"{"op":"ping","lease":7,"deadline_ms":5}"#,
            r#"{"op":"stats","verbose":true}"#,
        ] {
            let err = FabricRequest::parse(line).unwrap_err();
            assert!(err.contains("unknown field"), "{line}: {err}");
        }
        let mut rows = FabricRequest::Rows {
            lease: 1,
            rows: Vec::new(),
            hits: 0,
            misses: 0,
            leap: stg_des::LeapStats::default(),
        }
        .frame();
        rows.insert_str(rows.len() - 1, ",\"hit\":1");
        let err = FabricRequest::parse(&rows).unwrap_err();
        assert!(err.contains("unknown field \"hit\""), "{err}");
    }

    #[test]
    fn rows_frames_with_a_repeated_member_are_refused() {
        let frame = FabricRequest::Rows {
            lease: 1,
            rows: sample_rows(),
            hits: 0,
            misses: 0,
            leap: stg_des::LeapStats::default(),
        }
        .frame();
        assert!(FabricRequest::parse(&frame).is_ok());
        for extra in [",\"lease\":2", ",\"rows\":\"00000000\""] {
            let mut forged = frame.clone();
            forged.insert_str(forged.len() - 1, extra);
            let err = FabricRequest::parse(&forged).unwrap_err();
            assert!(err.contains("repeated field"), "{extra}: {err}");
        }
    }

    #[test]
    fn response_frames_round_trip() {
        for resp in [
            FabricResponse::Spec {
                spec: r#"{"workloads":[{"workload":"chain:8","pes":[2]}],"graphs":1}"#.into(),
                fingerprint: 0xdead_beef_0bad_f00d,
                total: 42,
                cache_dir: Some("/tmp/cache".into()),
            },
            FabricResponse::Spec {
                spec: String::new(),
                fingerprint: 1,
                total: 0,
                cache_dir: None,
            },
            FabricResponse::Lease {
                lease: 3,
                start: 10,
                end: 20,
                deadline_ms: 30_000,
            },
            FabricResponse::Wait { ms: 50 },
            FabricResponse::Drain,
            FabricResponse::Ack { end: 15 },
            FabricResponse::Gone,
            FabricResponse::Stats(crate::FabricSnapshot {
                leases_issued: 2,
                ..Default::default()
            }),
            FabricResponse::Error {
                error: "nope".into(),
            },
        ] {
            let line = resp.frame();
            assert_eq!(FabricResponse::parse(&line).unwrap(), resp, "{line}");
        }
        assert!(FabricResponse::parse("{\"ok\":\"mystery\"}").is_err());
    }
}
