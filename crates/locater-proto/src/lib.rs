//! The LOCATER wire protocol: one typed, versioned request/response vocabulary
//! for every way of talking to a live service.
//!
//! Frames are newline-delimited JSON (NDJSON): each line is one externally
//! tagged [`WireRequest`] or [`WireResponse`]. The same definitions drive
//!
//! * the TCP server (`locater-server`), which reads request lines off sockets
//!   and writes response lines back in request order;
//! * the `locater-cli serve` stdin REPL, which prints the same response
//!   frames; its input is raw JSON frames or the verb shorthand
//!   (`ingest …` / `locate …` / `stats` / `quit`, see [`parse_repl_line`])
//!   that `locater-cli request` parses too;
//! * the `locater-cli request` one-shot client and the repo benchmark's
//!   `RetryClient` connections.
//!
//! There is exactly one protocol definition; anything that can be said over a
//! socket can be said over stdio and vice versa.
//!
//! ```
//! use locater_proto::{decode_request, encode_request, WireRequest};
//!
//! let frame = encode_request(&WireRequest::Locate {
//!     mac: Some("aa:bb:cc:dd:ee:01".into()),
//!     device: None,
//!     t: 2_500,
//!     fine_mode: None,
//!     cache: None,
//! });
//! assert!(frame.starts_with("{\"Locate\""));
//! assert_eq!(decode_request(&frame).unwrap(), decode_request(&frame).unwrap());
//! ```
//!
//! ## Codec
//!
//! One encoder and one decoder per frame type, both single passes over the
//! frame (the vendored serde shim writes JSON directly and parses in linear
//! time). [`encode_request`] / [`encode_response`] return a fresh line;
//! [`encode_request_into`] / [`encode_response_into`] append the same bytes
//! to a caller's `String`, so a connection can write every frame through one
//! reused buffer — the server's connection threads and `RetryClient` do.
//!
//! ## Versioning
//!
//! [`PROTOCOL_VERSION`] names the frame vocabulary; servers report it in
//! [`WireResponse::Pong`] and [`WireStats::version`] so clients can detect
//! skew. There is one version on the wire: a bump replaces the vocabulary
//! rather than keeping the old one decodable beside it. A request frame with
//! an unknown variant or field decodes to a structured [`WireError::Parse`]
//! naming it, never a panic, and never a request with the field dropped
//! (the events of an `IngestBatch` are [`RawEvent`]s, which, like NDJSON
//! logs from other tools, may carry extra columns). Every response field is
//! required; optional *request* fields may be left out and decode to `None`.

use locater_core::system::{
    Answer, CacheMode, CompactionStatus, FineMode, LocateRequest, LocateResponse, ShardStats,
    WalStatus,
};
use locater_core::LocaterError;
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use locater_store::{parse_csv, IngestError, RawEvent};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The `Compacted` reply and the `stats` frame's `compaction` object: the
/// service's own gauges under the name wire clients already use. The status
/// types the `stats` frame carries are the service's, sent as they are.
pub use locater_core::system::CompactionStatus as WireCompactionStats;

/// The wire-protocol version this crate speaks (reported by `ping`/`stats`).
pub const PROTOCOL_VERSION: u32 = 8;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One request frame: a single NDJSON line sent to a live service. A field
/// this build does not know is a parse error, so a misspelled override is
/// refused instead of silently dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum WireRequest {
    /// Liveness / version probe; answered with [`WireResponse::Pong`].
    Ping,
    /// Append one connectivity event.
    Ingest {
        /// Device MAC address / log identifier.
        mac: String,
        /// Timestamp in seconds since the deployment epoch.
        t: Timestamp,
        /// Access point name.
        ap: String,
        /// Client-chosen idempotency token: a server remembers recently seen
        /// ids and acknowledges a replayed id *without* appending again, so a
        /// client that lost the ack mid-reconnect can retry safely. `None`
        /// opts out (every frame appends).
        #[serde(default)]
        request_id: Option<u64>,
    },
    /// Append a batch of events atomically with respect to queries.
    IngestBatch {
        /// The events, in ingest order.
        events: Vec<RawEvent>,
        /// Idempotency token covering the whole batch (see
        /// [`WireRequest::Ingest::request_id`]).
        #[serde(default)]
        request_id: Option<u64>,
    },
    /// Answer a location query, with optional per-request overrides.
    Locate {
        /// Device MAC address, if the caller knows it.
        #[serde(default)]
        mac: Option<String>,
        /// Already-resolved device id, if the caller has one.
        #[serde(default)]
        device: Option<DeviceId>,
        /// Query time.
        t: Timestamp,
        /// Per-request fine-grained mode override (I-FINE / D-FINE).
        #[serde(default)]
        fine_mode: Option<FineMode>,
        /// Per-request caching engine override.
        #[serde(default)]
        cache: Option<CacheMode>,
    },
    /// Report service statistics ([`WireStats`]).
    Stats,
    /// Persist the current store as a binary snapshot at the given path.
    Snapshot {
        /// Server-side filesystem path to write.
        path: String,
    },
    /// Compact the store: age history out of the hot tier (see
    /// `ShardedLocaterService::compact` and `Cut::from_request` in
    /// `locater-core`, which states the rule for the two fields). Spill-file
    /// placement is server configuration (`--spill-dir`), not part of the
    /// request.
    Compact {
        /// Seconds of history to retain behind the event-time watermark
        /// (negative is rejected with [`WireError::BadRequest`]). `None`
        /// falls back to the server's configured `--retain`; a request with
        /// neither is rejected too.
        #[serde(default)]
        retain: Option<Timestamp>,
        /// Absolute horizon timestamp instead of a relative retention
        /// (mutually exclusive with `retain`: a request carrying both is
        /// rejected with [`WireError::BadRequest`]).
        #[serde(default)]
        horizon: Option<Timestamp>,
    },
    /// Gracefully drain the service: in-flight requests finish, new ones are
    /// rejected with [`WireError::ShuttingDown`], and the configured drain
    /// snapshot (if any) is written before the server exits.
    Shutdown,
}

impl WireRequest {
    /// The wire form of a typed [`LocateRequest`] (diagnostics do not cross
    /// the wire; per-request mode/cache overrides do).
    pub fn locate(request: &LocateRequest) -> Self {
        WireRequest::Locate {
            mac: request.mac.clone(),
            device: request.device,
            t: request.t,
            fine_mode: request.fine_mode,
            cache: request.cache,
        }
    }

    /// The typed [`LocateRequest`] of a [`WireRequest::Locate`] frame
    /// (`None` for every other variant).
    pub fn to_locate(&self) -> Option<LocateRequest> {
        match self {
            WireRequest::Locate {
                mac,
                device,
                t,
                fine_mode,
                cache,
            } => Some(LocateRequest {
                mac: mac.clone(),
                device: *device,
                t: *t,
                fine_mode: *fine_mode,
                cache: *cache,
                diagnostics: false,
            }),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One response frame: a single NDJSON line written back for each request, in
/// request order.
// `Stats` dominates the enum size, but stats frames are rare and encoded
// immediately — boxing would complicate every construction site for no
// meaningful saving on the hot (Ingested/Located) variants.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireResponse {
    /// Answer to [`WireRequest::Ping`].
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// One event was appended.
    Ingested {
        /// Echo of the ingested MAC.
        mac: String,
        /// Echo of the ingested timestamp.
        t: Timestamp,
        /// Echo of the ingested access point name.
        ap: String,
        /// The device's ingest epoch after the append.
        device_epoch: u64,
    },
    /// A batch was appended.
    IngestedBatch {
        /// Number of events appended.
        appended: usize,
    },
    /// Answer to [`WireRequest::Locate`] — the same payload
    /// [`LocateResponse`] carries in process, minus diagnostics.
    Located {
        /// The cleaned answer.
        answer: Answer,
        /// The queried device's ingest epoch at answer time.
        device_epoch: u64,
        /// Total events in the store when the answer was computed.
        events_seen: usize,
        /// `true` when the server answered coarse-only because the request's
        /// deadline expired before the fine step could run: the answer is
        /// building/region-accurate but the room is unresolved.
        degraded: bool,
    },
    /// Answer to [`WireRequest::Stats`].
    Stats(WireStats),
    /// A snapshot was written.
    SnapshotSaved {
        /// The path written.
        path: String,
        /// Snapshot size in bytes.
        bytes: u64,
    },
    /// Answer to [`WireRequest::Compact`]: the cumulative compaction gauges
    /// after the run (a run that evicted nothing still answers, with the
    /// counters unchanged).
    Compacted(CompactionStatus),
    /// Acknowledgement of [`WireRequest::Shutdown`]: the drain has begun.
    ShuttingDown,
    /// The request failed; the frame slot is preserved so pipelined responses
    /// stay in request order.
    Error(WireError),
}

impl WireResponse {
    /// The wire form of an in-process locate result.
    pub fn located(response: &LocateResponse) -> Self {
        Self::located_degraded(response, false)
    }

    /// The wire form of an in-process locate result, with the degradation
    /// flag set explicitly (the deadline-expired coarse-only path).
    pub fn located_degraded(response: &LocateResponse, degraded: bool) -> Self {
        WireResponse::Located {
            answer: response.answer.clone(),
            device_epoch: response.device_epoch,
            events_seen: response.events_seen,
            degraded,
        }
    }
}

/// Structured request failures. Every variant is a *response*: the connection
/// stays usable and pipelined ordering is preserved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireError {
    /// The line was not a valid protocol frame.
    Parse {
        /// 1-based request line number on the connection (0 when unknown).
        line: u64,
        /// 1-based byte column within the line (0 when unknown).
        column: u64,
        /// What went wrong.
        message: String,
    },
    /// The query referenced a device that has never appeared in the log.
    UnknownDevice {
        /// The unresolvable identifier.
        mac: String,
    },
    /// The frame was well-formed but the request was invalid.
    BadRequest {
        /// What went wrong.
        message: String,
    },
    /// An ingest was rejected (unknown access point, bad MAC, bad row, …).
    Ingest {
        /// What went wrong.
        message: String,
    },
    /// Admission control rejected the request: the bounded in-flight queue is
    /// full. Explicit backpressure — retry later; nothing was dropped
    /// silently.
    Overloaded {
        /// Requests executing when the request was rejected.
        in_flight: usize,
        /// Requests queued when the request was rejected.
        queued: usize,
        /// The configured admission limit (queued + in-flight).
        limit: usize,
    },
    /// The service is draining; no new requests are admitted.
    ShuttingDown,
    /// An internal error (learning substrate, snapshot I/O, …).
    Internal {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Parse {
                line,
                column,
                message,
            } => match (line, column) {
                (0, 0) => write!(f, "parse error: {message}"),
                (line, 0) => write!(f, "parse error at line {line}: {message}"),
                (0, column) => write!(f, "parse error at column {column}: {message}"),
                (line, column) => {
                    write!(f, "parse error at line {line}, column {column}: {message}")
                }
            },
            WireError::UnknownDevice { mac } => write!(f, "unknown device: {mac}"),
            WireError::BadRequest { message } => f.write_str(message),
            WireError::Ingest { message } => f.write_str(message),
            WireError::Overloaded {
                in_flight,
                queued,
                limit,
            } => write!(
                f,
                "overloaded: {in_flight} in flight + {queued} queued at limit {limit}, retry later"
            ),
            WireError::ShuttingDown => f.write_str("shutting down"),
            WireError::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl WireError {
    /// Whether a client may safely retry the request that produced this
    /// error. Transient server conditions — backpressure, a drain racing the
    /// request, an isolated worker panic — are retryable (pair ingest retries
    /// with a `request_id` so a replay that *did* land is not applied twice);
    /// deterministic rejections (malformed frame, unknown device, invalid
    /// ingest) would fail identically on every attempt and are not.
    pub fn retryable(&self) -> bool {
        match self {
            WireError::Overloaded { .. } | WireError::ShuttingDown | WireError::Internal { .. } => {
                true
            }
            WireError::Parse { .. }
            | WireError::UnknownDevice { .. }
            | WireError::BadRequest { .. }
            | WireError::Ingest { .. } => false,
        }
    }

    /// Stamps the 1-based connection line number onto a parse error (other
    /// variants are returned unchanged).
    pub fn at_line(self, line: u64) -> Self {
        match self {
            WireError::Parse {
                column, message, ..
            } => WireError::Parse {
                line,
                column,
                message,
            },
            other => other,
        }
    }
}

impl From<LocaterError> for WireError {
    fn from(e: LocaterError) -> Self {
        match e {
            LocaterError::UnknownDevice(mac) => WireError::UnknownDevice { mac },
            LocaterError::MissingDevice => WireError::BadRequest {
                message: e.to_string(),
            },
            LocaterError::Learning(message) => WireError::Internal { message },
        }
    }
}

impl From<IngestError> for WireError {
    fn from(e: IngestError) -> Self {
        WireError::Ingest {
            message: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Statistics payload
// ---------------------------------------------------------------------------

/// Service-wide statistics: store totals, cache liveness, and the serving
/// layer's admission counters (uptime, in-flight/queued, rejections) — enough
/// for a load harness to assert that backpressure actually engaged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireStats {
    /// The server's [`PROTOCOL_VERSION`].
    pub version: u32,
    /// Milliseconds since the serving process started.
    pub uptime_ms: u64,
    /// Total events stored across all shards.
    pub events: usize,
    /// Distinct devices known.
    pub devices: usize,
    /// Shard count.
    pub shards: usize,
    /// Affinity edges physically held (live and stale).
    pub edges: usize,
    /// Affinity edges live under current epochs.
    pub live_edges: usize,
    /// Affinity samples physically held.
    pub samples: usize,
    /// Affinity samples live under current epochs.
    pub live_samples: usize,
    /// Requests executed to completion since start (successes and errors).
    pub requests_served: u64,
    /// Requests executing right now.
    pub in_flight: usize,
    /// Requests admitted but not yet executing.
    pub queued: usize,
    /// Requests rejected by admission control since start.
    pub rejected_overloaded: u64,
    /// Requests rejected because the service was draining.
    pub rejected_shutting_down: u64,
    /// Worker panics isolated into [`WireError::Internal`] responses since
    /// start (each one is a bug worth a report — but never a wedged server).
    pub panics: u64,
    /// Locate requests answered coarse-only because their deadline expired.
    pub degraded: u64,
    /// Replayed ingest `request_id`s acknowledged without re-applying.
    pub deduped: u64,
    /// Completed replay-dedup entries aged out of the FIFO window since
    /// start. Nonzero under load means a client could retry past the
    /// window and double-apply — raise the window (it is sized off the
    /// server's `--queue` admission limit).
    pub dedup_evicted: u64,
    /// Approximate resident heap bytes across all shard stores (allocated
    /// capacity of the device timelines and the global timeline).
    pub resident_bytes: usize,
    /// Cumulative compaction gauges since boot.
    pub compaction: CompactionStatus,
    /// Per-shard breakdown.
    pub per_shard: Vec<ShardStats>,
    /// Write-ahead-log gauges: `null` unless the server runs with
    /// `--wal-dir`.
    pub wal: Option<WalStatus>,
}

// ---------------------------------------------------------------------------
// NDJSON codec
// ---------------------------------------------------------------------------

/// What a fresh frame buffer starts with: a `Located` reply, the longest hot
/// frame, is about 190 bytes, so one allocation holds it.
const FRAME_CAPACITY: usize = 256;

/// Encodes a request as one NDJSON line (no trailing newline; JSON string
/// escaping guarantees the frame itself contains none).
pub fn encode_request(request: &WireRequest) -> String {
    let mut line = String::with_capacity(FRAME_CAPACITY);
    encode_request_into(request, &mut line);
    line
}

/// Appends a request's NDJSON line (no trailing newline) to `out`: the same
/// bytes as [`encode_request`], written in one pass into a buffer the caller
/// reuses across frames.
pub fn encode_request_into(request: &WireRequest, out: &mut String) {
    request.serialize(out);
}

/// Encodes a response as one NDJSON line.
pub fn encode_response(response: &WireResponse) -> String {
    let mut line = String::with_capacity(FRAME_CAPACITY);
    encode_response_into(response, &mut line);
    line
}

/// Appends a response's NDJSON line (no trailing newline) to `out`; see
/// [`encode_request_into`].
pub fn encode_response_into(response: &WireResponse, out: &mut String) {
    response.serialize(out);
}

/// Decodes one request line in one pass over it (the cost is linear in its
/// length). Failures are structured [`WireError::Parse`] values carrying the
/// 1-based byte column when the JSON parser reported one — for a bad escape
/// sequence, the column of its backslash (the connection line number is
/// stamped by the caller via [`WireError::at_line`]).
pub fn decode_request(line: &str) -> Result<WireRequest, WireError> {
    decode_frame(line)
}

/// Decodes one response line (used by clients; same error shape as
/// [`decode_request`]).
pub fn decode_response(line: &str) -> Result<WireResponse, WireError> {
    decode_frame(line)
}

fn decode_frame<T: Deserialize>(line: &str) -> Result<T, WireError> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Err(WireError::Parse {
            line: 0,
            column: 0,
            message: "empty frame".to_string(),
        });
    }
    // Columns count from the start of the line, leading blanks included.
    let lead = line.len() - line.trim_start().len();
    serde_json::from_str(trimmed).map_err(|e| WireError::Parse {
        line: 0,
        column: e.offset().map(|o| (lead + o) as u64 + 1).unwrap_or(0),
        message: e.to_string(),
    })
}

// ---------------------------------------------------------------------------
// REPL compatibility syntax
// ---------------------------------------------------------------------------

/// One parsed line of the `serve` REPL / `request` input syntax.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplCommand {
    /// A protocol request (from either the verb syntax or a raw JSON frame).
    Request(WireRequest),
    /// `quit` / `exit`: end the REPL session without draining the service.
    Quit,
    /// A blank line or `#` comment.
    Empty,
}

/// Parses one stdin line of the `locater-cli serve` REPL (and the request
/// line of `locater-cli request`): the verb shorthand
/// (`ingest <mac,timestamp,ap>`, `locate <mac> <timestamp>`, `stats`,
/// `compact [retain-seconds]`, `ping`, `snapshot <path>`, `shutdown`, `quit`)
/// *or* a raw NDJSON
/// [`WireRequest`] frame — the REPL is the wire protocol over stdio.
///
/// ```
/// use locater_proto::{parse_repl_line, ReplCommand, WireRequest};
///
/// let parsed = parse_repl_line("locate aa:bb:cc:dd:ee:01 2500").unwrap();
/// let ReplCommand::Request(WireRequest::Locate { mac, t, .. }) = parsed else {
///     panic!("expected a locate request");
/// };
/// assert_eq!(mac.as_deref(), Some("aa:bb:cc:dd:ee:01"));
/// assert_eq!(t, 2_500);
///
/// // Raw frames work too:
/// assert_eq!(
///     parse_repl_line("\"Ping\"").unwrap(),
///     ReplCommand::Request(WireRequest::Ping)
/// );
/// ```
pub fn parse_repl_line(line: &str) -> Result<ReplCommand, WireError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(ReplCommand::Empty);
    }
    if line.starts_with('{') || line.starts_with('"') {
        return decode_request(line).map(ReplCommand::Request);
    }
    let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let rest = rest.trim();
    match verb {
        "quit" | "exit" => Ok(ReplCommand::Quit),
        "shutdown" => Ok(ReplCommand::Request(WireRequest::Shutdown)),
        "ping" => Ok(ReplCommand::Request(WireRequest::Ping)),
        "stats" => Ok(ReplCommand::Request(WireRequest::Stats)),
        "compact" => {
            if rest.is_empty() {
                return Ok(ReplCommand::Request(WireRequest::Compact {
                    retain: None,
                    horizon: None,
                }));
            }
            let Some(retain) = rest.parse::<Timestamp>().ok().filter(|retain| *retain >= 0) else {
                return Err(WireError::BadRequest {
                    message: "usage: compact [retain-seconds]".to_string(),
                });
            };
            Ok(ReplCommand::Request(WireRequest::Compact {
                retain: Some(retain),
                horizon: None,
            }))
        }
        "snapshot" => {
            if rest.is_empty() {
                Err(WireError::BadRequest {
                    message: "usage: snapshot <path>".to_string(),
                })
            } else {
                Ok(ReplCommand::Request(WireRequest::Snapshot {
                    path: rest.to_string(),
                }))
            }
        }
        "ingest" => {
            let csv = format!("mac,timestamp,ap\n{rest}\n");
            match parse_csv(&csv) {
                Ok(rows) if rows.len() == 1 => {
                    let row = rows.into_iter().next().expect("one row");
                    Ok(ReplCommand::Request(WireRequest::Ingest {
                        mac: row.mac,
                        t: row.t,
                        ap: row.ap,
                        request_id: None,
                    }))
                }
                Ok(_) => Err(WireError::BadRequest {
                    message: "ingest takes exactly one mac,timestamp,ap line".to_string(),
                }),
                Err(e) => Err(e.into()),
            }
        }
        "locate" => {
            let mut parts = rest.split_whitespace();
            let (Some(mac), Some(t)) = (parts.next(), parts.next()) else {
                return Err(WireError::BadRequest {
                    message: "usage: locate <mac> <timestamp>".to_string(),
                });
            };
            let Ok(t) = t.parse::<Timestamp>() else {
                return Err(WireError::BadRequest {
                    message: "timestamp must be an integer number of seconds".to_string(),
                });
            };
            Ok(ReplCommand::Request(WireRequest::Locate {
                mac: Some(mac.to_string()),
                device: None,
                t,
                fine_mode: None,
                cache: None,
            }))
        }
        other => Err(WireError::BadRequest {
            message: format!(
                "unknown command {other:?} (ingest / locate / stats / compact / snapshot / ping / shutdown / quit)"
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_are_single_lines() {
        let requests = [
            WireRequest::Ping,
            WireRequest::Ingest {
                mac: "aa\nbb".into(),
                t: 12,
                ap: "wap\"1".into(),
                request_id: Some(9),
            },
            WireRequest::Stats,
            WireRequest::Shutdown,
        ];
        for request in &requests {
            let line = encode_request(request);
            assert!(!line.contains('\n'), "frame must be one line: {line}");
            assert_eq!(&decode_request(&line).unwrap(), request);
        }
    }

    #[test]
    fn locate_request_roundtrips_through_typed_form() {
        let typed = LocateRequest::by_mac("aa:bb", 77)
            .with_fine_mode(FineMode::Dependent)
            .with_cache(CacheMode::Disabled);
        let wire = WireRequest::locate(&typed);
        assert_eq!(wire.to_locate().unwrap(), typed);
        assert_eq!(WireRequest::Ping.to_locate(), None);
    }

    #[test]
    fn parse_errors_carry_columns_and_lines() {
        let err = decode_request("{\"Locate\": nope}").unwrap_err();
        let WireError::Parse { line, column, .. } = err.clone() else {
            panic!("expected parse error, got {err:?}");
        };
        assert_eq!(line, 0);
        assert_eq!(column, 12, "column is 1-based byte position");
        let stamped = err.at_line(41);
        let WireError::Parse { line, column, .. } = stamped else {
            unreachable!()
        };
        assert_eq!((line, column), (41, 12));
    }

    #[test]
    fn unknown_variants_are_parse_errors() {
        let err = decode_request("{\"Frobnicate\":{}}").unwrap_err();
        let WireError::Parse { message, .. } = err else {
            panic!("expected parse error");
        };
        assert!(message.contains("Frobnicate"), "message: {message}");
    }

    #[test]
    fn error_display_is_informative() {
        let e = WireError::Overloaded {
            in_flight: 2,
            queued: 14,
            limit: 16,
        };
        assert!(e.to_string().contains("overloaded"));
        assert!(e.to_string().contains("16"));
        assert_eq!(
            WireError::UnknownDevice {
                mac: "ghost".into()
            }
            .to_string(),
            "unknown device: ghost"
        );
        assert_eq!(
            WireError::Parse {
                line: 3,
                column: 9,
                message: "x".into()
            }
            .to_string(),
            "parse error at line 3, column 9: x"
        );
        assert_eq!(
            WireError::Parse {
                line: 3,
                column: 0,
                message: "x".into()
            }
            .to_string(),
            "parse error at line 3: x"
        );
    }

    #[test]
    fn locater_errors_map_to_wire_errors() {
        assert_eq!(
            WireError::from(LocaterError::UnknownDevice("ab".into())),
            WireError::UnknownDevice { mac: "ab".into() }
        );
        assert!(matches!(
            WireError::from(LocaterError::MissingDevice),
            WireError::BadRequest { .. }
        ));
        assert!(matches!(
            WireError::from(LocaterError::Learning("x".into())),
            WireError::Internal { .. }
        ));
    }

    #[test]
    fn repl_verbs_map_to_requests() {
        assert_eq!(parse_repl_line("  ").unwrap(), ReplCommand::Empty);
        assert_eq!(parse_repl_line("# hi").unwrap(), ReplCommand::Empty);
        assert_eq!(parse_repl_line("quit").unwrap(), ReplCommand::Quit);
        assert_eq!(parse_repl_line("exit").unwrap(), ReplCommand::Quit);
        assert_eq!(
            parse_repl_line("shutdown").unwrap(),
            ReplCommand::Request(WireRequest::Shutdown)
        );
        assert_eq!(
            parse_repl_line("stats").unwrap(),
            ReplCommand::Request(WireRequest::Stats)
        );
        assert_eq!(
            parse_repl_line("ping").unwrap(),
            ReplCommand::Request(WireRequest::Ping)
        );
        assert_eq!(
            parse_repl_line("snapshot /tmp/x.snap").unwrap(),
            ReplCommand::Request(WireRequest::Snapshot {
                path: "/tmp/x.snap".into()
            })
        );
        assert_eq!(
            parse_repl_line("compact").unwrap(),
            ReplCommand::Request(WireRequest::Compact {
                retain: None,
                horizon: None
            })
        );
        assert_eq!(
            parse_repl_line("compact 604800").unwrap(),
            ReplCommand::Request(WireRequest::Compact {
                retain: Some(604_800),
                horizon: None
            })
        );
        for bad in ["compact -10000000", "compact soon"] {
            assert!(matches!(
                parse_repl_line(bad),
                Err(WireError::BadRequest { .. })
            ));
        }
        assert_eq!(
            parse_repl_line("ingest aa:bb,100,wap1").unwrap(),
            ReplCommand::Request(WireRequest::Ingest {
                mac: "aa:bb".into(),
                t: 100,
                ap: "wap1".into(),
                request_id: None,
            })
        );
        let locate = parse_repl_line("locate aa:bb 250").unwrap();
        assert_eq!(
            locate,
            ReplCommand::Request(WireRequest::Locate {
                mac: Some("aa:bb".into()),
                device: None,
                t: 250,
                fine_mode: None,
                cache: None,
            })
        );
    }

    #[test]
    fn omitted_optional_request_fields_decode_to_none() {
        // Clients leave optional request fields out; each decodes to None.
        let decoded = decode_request(r#"{"Locate":{"mac":"aa","t":5}}"#).unwrap();
        assert_eq!(
            decoded,
            WireRequest::Locate {
                mac: Some("aa".into()),
                device: None,
                t: 5,
                fine_mode: None,
                cache: None,
            }
        );
        let decoded = decode_request(r#"{"Ingest":{"mac":"aa:bb","t":5,"ap":"wap1"}}"#).unwrap();
        assert_eq!(
            decoded,
            WireRequest::Ingest {
                mac: "aa:bb".into(),
                t: 5,
                ap: "wap1".into(),
                request_id: None,
            }
        );
        let decoded = decode_request(r#"{"IngestBatch":{"events":[]}}"#).unwrap();
        assert_eq!(
            decoded,
            WireRequest::IngestBatch {
                events: Vec::new(),
                request_id: None,
            }
        );
    }

    #[test]
    fn misspelled_request_fields_are_parse_errors() {
        // Dropping the field would compact at the server's default retention
        // and answer I-FINE for a D-FINE request.
        for (frame, field) in [
            (r#"{"Compact":{"retian":5}}"#, "retian"),
            (
                r#"{"Locate":{"mac":"aa","t":5,"fine_mod":"Dependent"}}"#,
                "fine_mod",
            ),
        ] {
            match decode_request(frame) {
                Err(WireError::Parse { message, .. }) => {
                    assert!(message.contains(&format!("`{field}`")), "{message}")
                }
                other => panic!("{frame} decoded to {other:?}"),
            }
        }
        // Responses and batch events stay lenient about extra keys.
        assert!(decode_request(
            r#"{"IngestBatch":{"events":[{"mac":"aa","t":1,"ap":"w","rssi":-60}]}}"#
        )
        .is_ok());
        assert_eq!(
            decode_response(r#"{"Pong":{"version":5,"build":"x"}}"#).unwrap(),
            WireResponse::Pong { version: 5 }
        );
    }

    #[test]
    fn retryable_classification_is_stable() {
        let retryable = [
            WireError::Overloaded {
                in_flight: 1,
                queued: 1,
                limit: 2,
            },
            WireError::ShuttingDown,
            WireError::Internal {
                message: "worker panic".into(),
            },
        ];
        for e in &retryable {
            assert!(e.retryable(), "{e} must be retryable");
        }
        let terminal = [
            WireError::Parse {
                line: 1,
                column: 1,
                message: "x".into(),
            },
            WireError::UnknownDevice {
                mac: "ghost".into(),
            },
            WireError::BadRequest {
                message: "x".into(),
            },
            WireError::Ingest {
                message: "x".into(),
            },
        ];
        for e in &terminal {
            assert!(!e.retryable(), "{e} must not be retryable");
        }
    }

    #[test]
    fn repl_rejects_bad_lines() {
        assert!(matches!(
            parse_repl_line("locate onlymac"),
            Err(WireError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_repl_line("locate aa 1x0"),
            Err(WireError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_repl_line("ingest broken-line"),
            Err(WireError::Ingest { .. }) | Err(WireError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_repl_line("snapshot"),
            Err(WireError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_repl_line("compact soon"),
            Err(WireError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_repl_line("frobnicate now"),
            Err(WireError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_repl_line("{\"broken\""),
            Err(WireError::Parse { .. })
        ));
    }
}
