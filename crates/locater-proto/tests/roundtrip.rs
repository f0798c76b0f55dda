//! Protocol round-trip and malformed-frame coverage: every `WireRequest` /
//! `WireResponse` variant survives encode → decode bit-identically, and every
//! malformed frame decodes to a structured parse error (never a panic).

use locater_core::coarse::CoarseMethod;
use locater_core::system::{Answer, CacheMode, FineMode, Location, ShardStats, WalStatus};
use locater_events::{DeviceId, SeededRng};
use locater_proto::{
    decode_request, decode_response, encode_request, encode_request_into, encode_response,
    encode_response_into, WireCompactionStats, WireError, WireRequest, WireResponse, WireStats,
    PROTOCOL_VERSION,
};
use locater_space::{RegionId, RoomId};
use locater_store::RawEvent;
use std::time::{Duration, Instant};

fn sample_stats() -> WireStats {
    WireStats {
        version: PROTOCOL_VERSION,
        uptime_ms: 12_345,
        events: 10,
        devices: 3,
        shards: 2,
        edges: 4,
        live_edges: 3,
        samples: 9,
        live_samples: 7,
        requests_served: 100,
        in_flight: 2,
        queued: 1,
        rejected_overloaded: 11,
        rejected_shutting_down: 1,
        panics: 1,
        degraded: 5,
        deduped: 3,
        dedup_evicted: 1,
        resident_bytes: 65_536,
        compaction: WireCompactionStats {
            runs: 2,
            evicted_events: 400,
            last_cut: Some(604_800),
        },
        per_shard: vec![
            ShardStats {
                shard: 0,
                events: 6,
                owned_devices: 2,
                resident_bytes: 40_960,
            },
            ShardStats {
                shard: 1,
                events: 4,
                owned_devices: 1,
                resident_bytes: 24_576,
            },
        ],
        wal: Some(WalStatus {
            dir: "/var/lib/locater/wal".into(),
            fsync: "every=32".into(),
            segments: 3,
            frames: 128,
            bytes: 4_096,
            last_checkpoint_age_ms: 60_000,
            checkpoints: 2,
        }),
    }
}

fn every_request() -> Vec<WireRequest> {
    vec![
        WireRequest::Ping,
        WireRequest::Ingest {
            mac: "aa:bb:cc:dd:ee:01".into(),
            t: 1_000,
            ap: "wap1".into(),
            request_id: None,
        },
        WireRequest::Ingest {
            mac: "aa:bb:cc:dd:ee:02".into(),
            t: 1_001,
            ap: "wap2".into(),
            request_id: Some(u64::MAX),
        },
        WireRequest::IngestBatch {
            events: vec![
                RawEvent::new("aa", 1, "wap1"),
                RawEvent::new("bb \"quoted\" \\ name", 2, "wap,2"),
            ],
            request_id: Some(17),
        },
        WireRequest::IngestBatch {
            events: vec![],
            request_id: None,
        },
        WireRequest::Locate {
            mac: Some("aa".into()),
            device: None,
            t: 2_500,
            fine_mode: None,
            cache: None,
        },
        WireRequest::Locate {
            mac: None,
            device: Some(DeviceId::new(7)),
            t: -3,
            fine_mode: Some(FineMode::Dependent),
            cache: Some(CacheMode::Disabled),
        },
        WireRequest::Stats,
        WireRequest::Snapshot {
            path: "/tmp/drain dir/store.snap".into(),
        },
        WireRequest::Compact {
            retain: Some(604_800),
            horizon: None,
        },
        WireRequest::Compact {
            retain: None,
            horizon: Some(1_209_600),
        },
        WireRequest::Compact {
            retain: None,
            horizon: None,
        },
        WireRequest::Shutdown,
    ]
}

fn every_response() -> Vec<WireResponse> {
    let answer = Answer {
        device: DeviceId::new(3),
        t: 2_500,
        location: Location::Room {
            room: RoomId::new(4),
            region: RegionId::new(1),
        },
        coarse_method: CoarseMethod::Classifier,
        confidence: 0.8125,
    };
    let mut responses = vec![
        WireResponse::Pong {
            version: PROTOCOL_VERSION,
        },
        WireResponse::Ingested {
            mac: "aa".into(),
            t: 9,
            ap: "wap1".into(),
            device_epoch: 4,
        },
        WireResponse::IngestedBatch { appended: 41 },
        WireResponse::Located {
            answer: answer.clone(),
            device_epoch: 2,
            events_seen: 77,
            degraded: false,
        },
        WireResponse::Located {
            answer: Answer {
                location: Location::Outside,
                coarse_method: CoarseMethod::OutOfSpan,
                ..answer.clone()
            },
            device_epoch: 0,
            events_seen: 0,
            degraded: false,
        },
        WireResponse::Located {
            answer: Answer {
                location: Location::Region(RegionId::new(2)),
                coarse_method: CoarseMethod::Fallback,
                ..answer
            },
            device_epoch: 1,
            events_seen: 1,
            degraded: true,
        },
        WireResponse::Stats(sample_stats()),
        WireResponse::SnapshotSaved {
            path: "/tmp/x.snap".into(),
            bytes: 123_456,
        },
        WireResponse::Compacted(WireCompactionStats {
            runs: 1,
            evicted_events: 250,
            last_cut: Some(86_400),
        }),
        WireResponse::Compacted(WireCompactionStats::default()),
        WireResponse::ShuttingDown,
    ];
    let errors = [
        WireError::Parse {
            line: 3,
            column: 14,
            message: "expected ','".into(),
        },
        WireError::UnknownDevice {
            mac: "ghost".into(),
        },
        WireError::BadRequest {
            message: "usage: locate <mac> <timestamp>".into(),
        },
        WireError::Ingest {
            message: "unknown access point: wap9".into(),
        },
        WireError::Overloaded {
            in_flight: 4,
            queued: 12,
            limit: 16,
        },
        WireError::ShuttingDown,
        WireError::Internal {
            message: "boom".into(),
        },
    ];
    responses.extend(errors.into_iter().map(WireResponse::Error));
    responses
}

#[test]
fn every_request_variant_roundtrips() {
    // The appending encoder, fed one reused buffer, writes the same lines.
    let (mut lines, mut appended) = (String::new(), String::new());
    for request in every_request() {
        let line = encode_request(&request);
        assert!(!line.contains('\n'), "one frame per line: {line}");
        let back = decode_request(&line).unwrap_or_else(|e| panic!("decode {line}: {e}"));
        assert_eq!(back, request);
        // Re-encoding is byte-identical (canonical encoder).
        assert_eq!(encode_request(&back), line);
        lines += &line;
        lines.push('\n');
        encode_request_into(&request, &mut appended);
        appended.push('\n');
    }
    assert_eq!(appended, lines);
}

#[test]
fn every_response_variant_roundtrips() {
    let (mut lines, mut appended) = (String::new(), String::new());
    for response in every_response() {
        let line = encode_response(&response);
        assert!(!line.contains('\n'), "one frame per line: {line}");
        let back = decode_response(&line).unwrap_or_else(|e| panic!("decode {line}: {e}"));
        assert_eq!(back, response);
        assert_eq!(encode_response(&back), line);
        lines += &line;
        lines.push('\n');
        encode_response_into(&response, &mut appended);
        appended.push('\n');
    }
    assert_eq!(appended, lines);
}

/// Every character class the encoder treats specially: the two mandatory
/// escapes, the three short control escapes, the other control characters
/// (written as lowercase `\u00xx`), and `/` and non-ASCII text, which are
/// written raw.
const ESCAPE_HEAVY: &str = "q\"b\\s/n\nr\rt\tb\u{8}f\u{c}c\u{1}\u{1f}dé😀";

fn golden_answer(confidence: f64) -> Answer {
    Answer {
        device: DeviceId::new(3),
        t: i64::MAX,
        location: Location::Room {
            room: RoomId::new(4),
            region: RegionId::new(1),
        },
        coarse_method: CoarseMethod::Classifier,
        confidence,
    }
}

/// One frame of every request variant with the bytes the encoder must emit,
/// captured from the encoder this one replaced (which built a value tree and
/// rendered it).
fn golden_requests() -> Vec<(WireRequest, &'static str)> {
    vec![
        (WireRequest::Ping, r#""Ping""#),
        (
            WireRequest::Ingest {
                mac: ESCAPE_HEAVY.into(),
                t: i64::MIN,
                ap: "wap1".into(),
                request_id: Some(u64::MAX),
            },
            r#"{"Ingest":{"mac":"q\"b\\s/n\nr\rt\tb\u0008f\u000cc\u0001\u001fdé😀","t":-9223372036854775808,"ap":"wap1","request_id":18446744073709551615}}"#,
        ),
        (
            WireRequest::IngestBatch {
                events: vec![
                    RawEvent::new("aa:bb", i64::MAX, ESCAPE_HEAVY),
                    RawEvent::new("", 0, "wap,2"),
                ],
                request_id: None,
            },
            r#"{"IngestBatch":{"events":[{"mac":"aa:bb","t":9223372036854775807,"ap":"q\"b\\s/n\nr\rt\tb\u0008f\u000cc\u0001\u001fdé😀"},{"mac":"","t":0,"ap":"wap,2"}],"request_id":null}}"#,
        ),
        (
            WireRequest::Locate {
                mac: None,
                device: Some(DeviceId::new(u32::MAX)),
                t: -1,
                fine_mode: Some(FineMode::Dependent),
                cache: Some(CacheMode::Disabled),
            },
            r#"{"Locate":{"mac":null,"device":4294967295,"t":-1,"fine_mode":"Dependent","cache":"Disabled"}}"#,
        ),
        (
            WireRequest::Locate {
                mac: Some("aa:bb:cc:dd:ee:01".into()),
                device: None,
                t: 2_500,
                fine_mode: None,
                cache: None,
            },
            r#"{"Locate":{"mac":"aa:bb:cc:dd:ee:01","device":null,"t":2500,"fine_mode":null,"cache":null}}"#,
        ),
        (WireRequest::Stats, r#""Stats""#),
        (
            WireRequest::Snapshot {
                path: "C:\\drain dir\\store.snap".into(),
            },
            r#"{"Snapshot":{"path":"C:\\drain dir\\store.snap"}}"#,
        ),
        (
            WireRequest::Compact {
                retain: Some(0),
                horizon: None,
            },
            r#"{"Compact":{"retain":0,"horizon":null}}"#,
        ),
        (WireRequest::Shutdown, r#""Shutdown""#),
    ]
}

/// One frame of every response variant (and every error kind) with its
/// pinned bytes; see [`golden_requests`].
fn golden_responses() -> Vec<(WireResponse, &'static str)> {
    let mut stats = sample_stats();
    stats.wal = None;
    stats.per_shard.truncate(1);
    let mut cases = vec![
        (
            WireResponse::Pong {
                version: PROTOCOL_VERSION,
            },
            r#"{"Pong":{"version":8}}"#,
        ),
        (
            WireResponse::Ingested {
                mac: ESCAPE_HEAVY.into(),
                t: i64::MIN,
                ap: "wap\"1\"".into(),
                device_epoch: u64::MAX,
            },
            r#"{"Ingested":{"mac":"q\"b\\s/n\nr\rt\tb\u0008f\u000cc\u0001\u001fdé😀","t":-9223372036854775808,"ap":"wap\"1\"","device_epoch":18446744073709551615}}"#,
        ),
        (
            WireResponse::IngestedBatch { appended: 0 },
            r#"{"IngestedBatch":{"appended":0}}"#,
        ),
        (
            WireResponse::Located {
                answer: golden_answer(1.0),
                device_epoch: 2,
                events_seen: 77,
                degraded: false,
            },
            r#"{"Located":{"answer":{"device":3,"t":9223372036854775807,"location":{"Room":{"room":4,"region":1}},"coarse_method":"Classifier","confidence":1},"device_epoch":2,"events_seen":77,"degraded":false}}"#,
        ),
        (
            WireResponse::Located {
                answer: Answer {
                    location: Location::Region(RegionId::new(2)),
                    coarse_method: CoarseMethod::Fallback,
                    ..golden_answer(0.1)
                },
                device_epoch: 0,
                events_seen: 1,
                degraded: true,
            },
            r#"{"Located":{"answer":{"device":3,"t":9223372036854775807,"location":{"Region":2},"coarse_method":"Fallback","confidence":0.1},"device_epoch":0,"events_seen":1,"degraded":true}}"#,
        ),
        (
            WireResponse::Located {
                answer: Answer {
                    location: Location::Outside,
                    coarse_method: CoarseMethod::OutOfSpan,
                    ..golden_answer(1e-7)
                },
                device_epoch: 1,
                events_seen: 0,
                degraded: false,
            },
            r#"{"Located":{"answer":{"device":3,"t":9223372036854775807,"location":"Outside","coarse_method":"OutOfSpan","confidence":0.0000001},"device_epoch":1,"events_seen":0,"degraded":false}}"#,
        ),
        (
            WireResponse::Stats(stats),
            r#"{"Stats":{"version":8,"uptime_ms":12345,"events":10,"devices":3,"shards":2,"edges":4,"live_edges":3,"samples":9,"live_samples":7,"requests_served":100,"in_flight":2,"queued":1,"rejected_overloaded":11,"rejected_shutting_down":1,"panics":1,"degraded":5,"deduped":3,"dedup_evicted":1,"resident_bytes":65536,"compaction":{"runs":2,"evicted_events":400,"last_cut":604800},"per_shard":[{"shard":0,"events":6,"owned_devices":2,"resident_bytes":40960}],"wal":null}}"#,
        ),
        (
            WireResponse::Stats(sample_stats()),
            r#"{"Stats":{"version":8,"uptime_ms":12345,"events":10,"devices":3,"shards":2,"edges":4,"live_edges":3,"samples":9,"live_samples":7,"requests_served":100,"in_flight":2,"queued":1,"rejected_overloaded":11,"rejected_shutting_down":1,"panics":1,"degraded":5,"deduped":3,"dedup_evicted":1,"resident_bytes":65536,"compaction":{"runs":2,"evicted_events":400,"last_cut":604800},"per_shard":[{"shard":0,"events":6,"owned_devices":2,"resident_bytes":40960},{"shard":1,"events":4,"owned_devices":1,"resident_bytes":24576}],"wal":{"dir":"/var/lib/locater/wal","fsync":"every=32","segments":3,"frames":128,"bytes":4096,"last_checkpoint_age_ms":60000,"checkpoints":2}}}"#,
        ),
        (
            WireResponse::SnapshotSaved {
                path: ESCAPE_HEAVY.into(),
                bytes: u64::MAX,
            },
            r#"{"SnapshotSaved":{"path":"q\"b\\s/n\nr\rt\tb\u0008f\u000cc\u0001\u001fdé😀","bytes":18446744073709551615}}"#,
        ),
        (
            WireResponse::Compacted(WireCompactionStats::default()),
            r#"{"Compacted":{"runs":0,"evicted_events":0,"last_cut":null}}"#,
        ),
        (WireResponse::ShuttingDown, r#""ShuttingDown""#),
    ];
    let errors = [
        (
            WireError::Parse {
                line: u64::MAX,
                column: 0,
                message: ESCAPE_HEAVY.into(),
            },
            r#"{"Error":{"Parse":{"line":18446744073709551615,"column":0,"message":"q\"b\\s/n\nr\rt\tb\u0008f\u000cc\u0001\u001fdé😀"}}}"#,
        ),
        (
            WireError::UnknownDevice {
                mac: "ghost".into(),
            },
            r#"{"Error":{"UnknownDevice":{"mac":"ghost"}}}"#,
        ),
        (
            WireError::BadRequest {
                message: "usage: locate <mac> <timestamp>".into(),
            },
            r#"{"Error":{"BadRequest":{"message":"usage: locate <mac> <timestamp>"}}}"#,
        ),
        (
            WireError::Ingest {
                message: "unknown access point: wap9".into(),
            },
            r#"{"Error":{"Ingest":{"message":"unknown access point: wap9"}}}"#,
        ),
        (
            WireError::Overloaded {
                in_flight: 4,
                queued: 12,
                limit: usize::MAX,
            },
            r#"{"Error":{"Overloaded":{"in_flight":4,"queued":12,"limit":18446744073709551615}}}"#,
        ),
        (WireError::ShuttingDown, r#"{"Error":"ShuttingDown"}"#),
        (
            WireError::Internal {
                message: String::new(),
            },
            r#"{"Error":{"Internal":{"message":""}}}"#,
        ),
    ];
    cases.extend(
        errors
            .into_iter()
            .map(|(error, expected)| (WireResponse::Error(error), expected)),
    );
    cases
}

#[test]
fn encoders_emit_the_pinned_bytes() {
    for (request, expected) in golden_requests() {
        assert_eq!(encode_request(&request), expected, "{request:?}");
        assert_eq!(decode_request(expected).unwrap(), request);
    }
    for (response, expected) in golden_responses() {
        assert_eq!(encode_response(&response), expected, "{response:?}");
        assert_eq!(decode_response(expected).unwrap(), response);
    }
}

/// A deterministic LCG-driven fuzz pass: random structured requests round-trip,
/// including MACs exercising JSON escaping and extreme timestamps.
#[test]
fn fuzzed_requests_roundtrip() {
    let mut rng = SeededRng::new(0x4d59_5df4_d0f3_3173);
    let mut next = move || (rng.next_u64() >> 32) as u32;
    let alphabet: Vec<char> = "ab:01\"\\\n\t,{}[]é个 ".chars().collect();
    let rand_string = |n: &mut dyn FnMut() -> u32| {
        let len = (n() % 12) as usize;
        (0..len)
            .map(|_| alphabet[(n() % alphabet.len() as u32) as usize])
            .collect::<String>()
    };
    for _ in 0..500 {
        let t = (next() as i64) * if next() % 2 == 0 { 1 } else { -1 };
        let request = match next() % 5 {
            0 => WireRequest::Ping,
            1 => WireRequest::Ingest {
                mac: rand_string(&mut next),
                t,
                ap: rand_string(&mut next),
                request_id: (next() % 2 == 0).then(|| next() as u64),
            },
            2 => WireRequest::Locate {
                mac: (next() % 2 == 0).then(|| rand_string(&mut next)),
                device: (next() % 2 == 0).then(|| DeviceId::new(next())),
                t,
                fine_mode: match next() % 3 {
                    0 => None,
                    1 => Some(FineMode::Independent),
                    _ => Some(FineMode::Dependent),
                },
                cache: match next() % 3 {
                    0 => None,
                    1 => Some(CacheMode::Enabled),
                    _ => Some(CacheMode::Disabled),
                },
            },
            3 => WireRequest::IngestBatch {
                events: (0..next() % 4)
                    .map(|i| RawEvent::new(rand_string(&mut next), i as i64, "wap"))
                    .collect(),
                request_id: (next() % 2 == 0).then(|| next() as u64),
            },
            _ => WireRequest::Snapshot {
                path: rand_string(&mut next),
            },
        };
        let line = encode_request(&request);
        assert!(!line.contains('\n'));
        assert_eq!(decode_request(&line).unwrap(), request);
    }
}

/// The 1-based column of a frame's parse error, for both decoders (which
/// must agree).
fn parse_error_column(frame: &str) -> u64 {
    let columns =
        [decode_request(frame).err(), decode_response(frame).err()].map(|err| match err {
            Some(WireError::Parse { column, .. }) => column,
            other => panic!("frame {frame:?} produced {other:?}, expected a parse error"),
        });
    assert_eq!(columns[0], columns[1], "{frame:?}");
    columns[0]
}

/// Malformed frames decode to structured parse errors — never a panic — and
/// every JSON syntax error reports the column it was found at.
#[test]
fn malformed_frames_yield_structured_parse_errors() {
    // Not JSON: the column points into the line.
    let syntax_errors = [
        "not json at all",
        "{",
        "}",
        "{\"Locate\"",
        "{\"Locate\":}",
        "{\"Locate\":{\"t\":}}",
        "{\"Locate\":{\"t\":1,}}",
        "\"Ping\" \"Ping\"",
        "{\"Ingest\":{\"mac\":\"aa\",\"t\":99999999999999999999999999999999999999999,\"ap\":\"w\"}}",
        "\"unterminated",
        "{\"Snapshot\":{\"path\":\"\\q\"}}",
        "{\"Snapshot\":{\"path\":\"\\u12\"}}",
        "{\"Snapshot\":{\"path\":\"\\ud800\"}}",
        "{\"Snapshot\":{\"path\":\"\\",
        // One line of brackets must not overflow the decoder's stack.
        &"[".repeat(100_000),
    ];
    // JSON, but not a frame: there is no position to report.
    let semantic_errors = [
        "",
        "   ",
        "{\"Locate\":{\"t\":\"high noon\"}}",
        "{\"Locate\":{}}",
        "{\"Ingest\":{\"mac\":\"aa\"}}",
        "{\"Ingest\":[1,2]}",
        "\"NotAVariant\"",
        "{\"NotAVariant\":{}}",
        "{\"Locate\":{\"t\":1},\"Stats\":null}",
        "[\"Ping\"]",
        "123",
        "null",
        "true",
        "{\"Locate\":{\"t\":1e309}}",
    ];
    for case in syntax_errors {
        assert!(parse_error_column(case) > 0, "{case:?} has no column");
    }
    for case in semantic_errors {
        parse_error_column(case);
    }
    // An escape error points at its backslash, also behind leading blanks.
    assert_eq!(parse_error_column("{\"Snapshot\":{\"path\":\"\\q\"}}"), 22);
    assert_eq!(
        parse_error_column("  {\"Snapshot\":{\"path\":\"\\q\"}}"),
        24
    );
}

/// `text` with every non-ASCII character written as lowercase `\uXXXX`
/// UTF-16 escapes, as Python's `json.dumps` writes it by default: a character
/// outside the Basic Multilingual Plane becomes a surrogate pair.
fn ascii_escaped(text: &str) -> String {
    let mut out = String::new();
    for c in text.chars() {
        if c.is_ascii() {
            out.push(c);
        } else {
            for unit in c.encode_utf16(&mut [0; 2]) {
                out += &format!("\\u{unit:04x}");
            }
        }
    }
    out
}

/// A surrogate-pair escape decodes to the one character it encodes, so an
/// ASCII-escaped frame decodes exactly like the raw UTF-8 one; a lone or
/// reversed surrogate is a parse error at its backslash.
#[test]
fn surrogate_pair_escapes_decode_like_raw_utf8() {
    let raw = "{\"Ingest\":{\"mac\":\"dev-😀-é\",\"t\":5,\"ap\":\"wap 🛰\"}}";
    let escaped = ascii_escaped(raw);
    assert!(escaped.is_ascii(), "{escaped}");
    assert_eq!(
        decode_request(&escaped).unwrap(),
        decode_request(raw).unwrap()
    );
    let pair = ascii_escaped("😀");
    let (high, low) = pair.split_at(6);
    for bad in [
        high.to_string(),
        low.to_string(),
        format!("{low}{high}"),
        format!("{high}x"),
        format!("{high}{}", ascii_escaped("é")),
    ] {
        let frame = format!("{{\"Snapshot\":{{\"path\":\"p{bad}\"}}}}");
        assert_eq!(parse_error_column(&frame), 23, "{frame}");
    }
}

/// Decoding is linear in the frame: an `IngestBatch` just under the server's
/// 4 MiB line cap (`MAX_FRAME_BYTES`) decodes and round-trips within a
/// generous bound even unoptimized. A decoder that rescans the rest of the
/// frame for every character spends minutes on it, holding its connection
/// thread before admission control sees the request.
#[test]
fn a_frame_at_the_size_cap_decodes_in_linear_time() {
    const CAP: usize = 4 << 20;
    // Fixed-width fields, escapes included: every event encodes to the same
    // number of bytes.
    let event = |i: usize| {
        RawEvent::new(
            format!("aa:bb:{i:08x} \"é\""),
            1_600_000_000 + i as i64,
            "wap-17\\n",
        )
    };
    let batch = |n: usize| WireRequest::IngestBatch {
        events: (0..n).map(event).collect(),
        request_id: Some(7),
    };
    let per_event = encode_request(&batch(2)).len() - encode_request(&batch(1)).len();
    let n = (CAP + 1 - encode_request(&batch(0)).len()) / per_event;
    let request = batch(n);
    let frame = encode_request(&request);
    assert!(
        frame.len() <= CAP && frame.len() > CAP - per_event,
        "{} bytes",
        frame.len()
    );
    let start = Instant::now();
    let decoded = decode_request(&frame).expect("the frame decodes");
    assert_eq!(encode_request(&decoded), frame);
    let elapsed = start.elapsed();
    assert_eq!(decoded, request);
    assert!(
        elapsed < Duration::from_secs(5),
        "decoding and re-encoding {} bytes took {elapsed:?}",
        frame.len()
    );
}
