//! Protocol round-trip and malformed-frame coverage: every `WireRequest` /
//! `WireResponse` variant survives encode → decode bit-identically, and every
//! malformed frame decodes to a structured parse error (never a panic).

use locater_core::coarse::CoarseMethod;
use locater_core::system::{Answer, CacheMode, FineMode, Location};
use locater_events::DeviceId;
use locater_proto::{
    decode_request, decode_response, encode_request, encode_response, WireCompactionStats,
    WireError, WireRequest, WireResponse, WireShardStats, WireStats, WireWalStats,
    PROTOCOL_VERSION,
};
use locater_space::{RegionId, RoomId};
use locater_store::RawEvent;

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
        index_ap_lists: 5,
        index_buckets: 6,
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
        head_segments: 3,
        sealed_segments: 12,
        compaction: WireCompactionStats {
            runs: 2,
            evicted_events: 400,
            evicted_segments: 8,
            last_cut: Some(604_800),
        },
        per_shard: vec![
            WireShardStats {
                shard: 0,
                events: 6,
                owned_devices: 2,
                edges: 4,
                live_edges: 3,
                samples: 9,
                live_samples: 7,
                index_ap_lists: 3,
                index_buckets: 4,
                head_segments: 2,
                sealed_segments: 7,
                resident_bytes: 40_960,
            },
            WireShardStats {
                shard: 1,
                events: 4,
                owned_devices: 1,
                edges: 0,
                live_edges: 0,
                samples: 0,
                live_samples: 0,
                index_ap_lists: 2,
                index_buckets: 2,
                head_segments: 1,
                sealed_segments: 5,
                resident_bytes: 24_576,
            },
        ],
        wal: Some(WireWalStats {
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
            evicted_segments: 5,
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
    for request in every_request() {
        let line = encode_request(&request);
        assert!(!line.contains('\n'), "one frame per line: {line}");
        let back = decode_request(&line).unwrap_or_else(|e| panic!("decode {line}: {e}"));
        assert_eq!(back, request);
        // Re-encoding is byte-identical (canonical encoder).
        assert_eq!(encode_request(&back), line);
    }
}

#[test]
fn every_response_variant_roundtrips() {
    for response in every_response() {
        let line = encode_response(&response);
        assert!(!line.contains('\n'), "one frame per line: {line}");
        let back = decode_response(&line).unwrap_or_else(|e| panic!("decode {line}: {e}"));
        assert_eq!(back, response);
        assert_eq!(encode_response(&back), line);
    }
}

/// A `stats` frame from a server predating the WAL gauges (no `wal` key at
/// all) still decodes — the field is optional on the wire.
#[test]
fn stats_without_wal_field_still_decodes() {
    let mut stats = sample_stats();
    stats.wal = None;
    let line = encode_response(&WireResponse::Stats(stats.clone()));
    let stripped = line.replace(",\"wal\":null", "");
    assert_ne!(stripped, line, "the null wal field was present to strip");
    let back = decode_response(&stripped).unwrap();
    assert_eq!(back, WireResponse::Stats(stats));
}

/// A `stats` frame from a v1 server (no tiering gauges anywhere) still
/// decodes — every v2 stats field defaults.
#[test]
fn v1_stats_without_tiering_fields_still_decodes() {
    let mut stats = sample_stats();
    stats.wal = None;
    let line = encode_response(&WireResponse::Stats(stats.clone()));
    let mut stripped = line.replace(",\"wal\":null", "");
    for key in [
        "resident_bytes",
        "head_segments",
        "sealed_segments",
        "last_cut",
    ] {
        while let Some(start) = stripped.find(&format!(",\"{key}\":")) {
            let tail = &stripped[start + 1..];
            let len = tail
                .char_indices()
                .find(|&(_, c)| c == ',' || c == '}')
                .map(|(i, _)| i)
                .unwrap_or(tail.len());
            stripped.replace_range(start..start + 1 + len, "");
        }
    }
    stripped = stripped.replace(
        ",\"compaction\":{\"runs\":2,\"evicted_events\":400,\"evicted_segments\":8}",
        "",
    );
    assert_ne!(stripped, line, "the v2 fields were present to strip");
    let back = decode_response(&stripped).unwrap();
    stats.resident_bytes = 0;
    stats.head_segments = 0;
    stats.sealed_segments = 0;
    stats.compaction = WireCompactionStats::default();
    for shard in &mut stats.per_shard {
        shard.resident_bytes = 0;
        shard.head_segments = 0;
        shard.sealed_segments = 0;
    }
    assert_eq!(back, WireResponse::Stats(stats));
}

/// A `Compacted` frame from a v3 server still carries the summary-row gauge
/// v4 dropped with the tier it counted: the unknown field is ignored.
#[test]
fn v3_compacted_frame_still_decodes() {
    let expected = WireResponse::Compacted(WireCompactionStats {
        runs: 1,
        evicted_events: 250,
        evicted_segments: 5,
        last_cut: Some(86_400),
    });
    let v4 = encode_response(&expected);
    assert_eq!(
        v4,
        "{\"Compacted\":{\"runs\":1,\"evicted_events\":250,\"evicted_segments\":5,\"last_cut\":86400}}"
    );
    let v3 = v4.replace("}}", ",\"summary_rows\":9}}");
    assert_eq!(decode_response(&v3).unwrap(), expected);
}

/// A deterministic LCG-driven fuzz pass: random structured requests round-trip,
/// including MACs exercising JSON escaping and extreme timestamps.
#[test]
fn fuzzed_requests_roundtrip() {
    let mut state = 0x4d595df4d0f33173u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
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

/// Malformed frames decode to structured parse errors — never a panic, and
/// the reported column points into the offending line where known.
#[test]
fn malformed_frames_yield_structured_parse_errors() {
    let cases: &[&str] = &[
        "",
        "   ",
        "not json at all",
        "{",
        "}",
        "{\"Locate\"",
        "{\"Locate\":}",
        "{\"Locate\":{\"t\":}}",
        "{\"Locate\":{\"t\":1,}}",
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
        "\"Ping\" \"Ping\"",
        "{\"Ingest\":{\"mac\":\"aa\",\"t\":99999999999999999999999999999999999999999,\"ap\":\"w\"}}",
        "{\"Locate\":{\"t\":1e309}}",
        "\"unterminated",
        "{\"Snapshot\":{\"path\":\"\\q\"}}",
    ];
    for &case in cases {
        match decode_request(case) {
            Err(WireError::Parse { .. }) => {}
            other => panic!("frame {case:?} produced {other:?}, expected a parse error"),
        }
        match decode_response(case) {
            Err(WireError::Parse { .. }) => {}
            other => panic!("response frame {case:?} produced {other:?}"),
        }
    }
}
