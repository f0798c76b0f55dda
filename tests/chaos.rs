//! The chaos cornerstone: live serve+ingest runs under **seeded fault
//! schedules** — disk faults ([`FaultIo`] under the WAL), wire faults (a
//! [`ChaosProxy`] slamming connections mid-frame), and both combined — driven
//! end to end through the resilient [`RetryClient`]. Every schedule must
//! uphold the serving invariant:
//!
//! > **No acked write is ever lost; no retried write is ever applied twice.**
//!
//! Concretely, after every storm:
//!
//! * every ingest the client saw acked is present **exactly once** in the
//!   store recovered from the WAL (zero loss, zero duplicate application);
//! * no attempted ingest appears more than once, acked or not;
//! * the server is never wedged — a fresh connection gets a `Pong` after the
//!   storm, faults and panics included;
//! * recovery from the surviving WAL is clean (a typed report, never a
//!   panic), and **recovering twice yields byte-identical snapshots**;
//! * the fault sequences themselves are bit-identical for equal seeds, so
//!   any failure here replays from its printed seed.
//!
//! Unique `(mac, t)` pairs per client make duplicates detectable: a retried
//! ingest that were applied twice would show up as two stored events at the
//! same timestamp.

#[path = "support/chaos_proxy.rs"]
mod chaos_proxy;
#[path = "support/fixture.rs"]
mod fixture;
#[path = "support/scratch.rs"]
mod scratch;

use chaos_proxy::{ChaosConfig, ChaosProxy};
use fixture::space;
use locater::events::Interval;
use locater::prelude::*;
use locater::proto::{decode_response, encode_request};
use locater::server::ServerState;
use locater::store::{Durability, FaultIo, FaultPlan, FsyncPolicy, RealIo, StorageIo};
use scratch::scratch;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 2;
const PER_CLIENT: usize = 24;

const MACS: [&str; 2] = ["aa:00:00:00:00:01", "aa:00:00:00:00:02"];

fn durability(dir: &Path, io: Arc<dyn StorageIo>) -> Durability {
    Durability::new(dir)
        .with_fsync(FsyncPolicy::Always)
        .with_io(io)
}

fn boot(dir: &Path, io: Arc<dyn StorageIo>) -> Result<ShardedLocaterService, String> {
    let (service, _) = ShardedLocaterService::with_durability(
        EventStore::new(space()),
        LocaterConfig::default(),
        2,
        durability(dir, io),
    )
    .map_err(|e| e.to_string())?;
    Ok(service)
}

/// One raw request on a fresh connection, bypassing proxy and retry client —
/// the "is the server wedged?" probe.
fn raw_request(addr: &str, request: &WireRequest) -> WireResponse {
    let stream = TcpStream::connect(addr).expect("fresh connection refused");
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, "{}", encode_request(request)).expect("write probe frame");
    let mut line = String::new();
    let n = BufReader::new(stream)
        .read_line(&mut line)
        .expect("read probe response");
    assert!(
        n > 0,
        "server closed the probe connection without a response"
    );
    decode_response(line.trim_end()).expect("probe response decodes")
}

/// What one storm did, as seen from the clients.
struct Storm {
    /// `(mac, t)` of every ingest a client saw acknowledged.
    acked: Vec<(String, i64)>,
    /// `(mac, t)` of every ingest attempted, acked or not.
    attempted: Vec<(String, i64)>,
    /// Requests that exhausted retries or hit a non-retryable error.
    refused: u64,
    /// Total client-side retries across the storm.
    retries: u64,
    /// The server's applied-event counter, read after the storm but before
    /// teardown.
    server_events: usize,
}

/// Drives `CLIENTS` retry clients through `PER_CLIENT` ingests each against a
/// durable two-shard server on `dir`, optionally behind a wire-fault proxy,
/// with `io` (optionally a [`FaultIo`]) under the WAL. Ends with the no-wedge
/// probe; `graceful` decides between a drained shutdown and a crash (the
/// server is dropped mid-flight, exactly like a `SIGKILL`).
fn run_storm(
    dir: &Path,
    io: Arc<dyn StorageIo>,
    wire: Option<ChaosConfig>,
    seed: u64,
    graceful: bool,
) -> Result<Storm, String> {
    let service = boot(dir, io)?;
    let state = Arc::new(ServerState::new(service, None));
    let server = Server::bind(state, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let direct = server.local_addr().to_string();

    let proxy = wire.map(|config| ChaosProxy::start(server.local_addr(), config).expect("proxy"));
    let client_addr = proxy
        .as_ref()
        .map(|p| p.local_addr().to_string())
        .unwrap_or_else(|| direct.clone());

    let mut handles = Vec::new();
    for (k, mac) in MACS.iter().enumerate().take(CLIENTS) {
        let addr = client_addr.clone();
        let mac = mac.to_string();
        handles.push(std::thread::spawn(move || {
            let mut client = RetryClient::new(ClientConfig {
                addr,
                request_timeout: Duration::from_secs(5),
                max_retries: 20,
                backoff: BackoffPolicy {
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(50),
                    seed: seed ^ k as u64,
                },
                id_seed: seed.wrapping_mul(31).wrapping_add(k as u64),
            });
            let (mut acked, mut attempted) = (Vec::new(), Vec::new());
            let mut refused = 0u64;
            for i in 0..PER_CLIENT {
                let t = 10_000 + (i as i64) * 60;
                let ap = if i % 2 == 0 { "wap0" } else { "wap1" };
                attempted.push((mac.clone(), t));
                let request = WireRequest::Ingest {
                    mac: mac.clone(),
                    t,
                    ap: ap.into(),
                    request_id: None,
                };
                match client.request(&request) {
                    Ok(WireResponse::Error(_)) | Err(_) => refused += 1,
                    Ok(_) => acked.push((mac.clone(), t)),
                }
            }
            (acked, attempted, refused, client.stats().retries)
        }));
    }

    let (mut acked, mut attempted) = (Vec::new(), Vec::new());
    let (mut refused, mut retries) = (0u64, 0u64);
    for handle in handles {
        let (a, at, r, rt) = handle.join().expect("storm client panicked");
        acked.extend(a);
        attempted.extend(at);
        refused += r;
        retries += rt;
    }

    // A live compact in the middle of the storm's aftermath: its WAL
    // checkpoint runs through the same (possibly faulty) StorageIo. A
    // failure must be a typed error frame, never a wedge — and retention
    // larger than the trace means nothing acked is ever evicted, so the
    // recovery invariants below still see every event.
    let compacted = raw_request(
        &direct,
        &WireRequest::Compact {
            retain: Some(1_000_000),
            horizon: None,
        },
    );
    assert!(
        matches!(
            compacted,
            WireResponse::Compacted { .. } | WireResponse::Error(_)
        ),
        "compact under chaos must answer typed, got {compacted:?} (seed={seed:#x})"
    );

    // The no-wedge probe: whatever the storm did, a fresh direct connection
    // still gets a liveness answer and a stats frame.
    assert!(
        matches!(
            raw_request(&direct, &WireRequest::Ping),
            WireResponse::Pong { .. }
        ),
        "server wedged after storm (seed={seed:#x})"
    );
    assert!(
        matches!(
            raw_request(&direct, &WireRequest::Stats),
            WireResponse::Stats(_)
        ),
        "server stats wedged after storm (seed={seed:#x})"
    );
    let server_events = server.state().stats().events;

    if let Some(proxy) = proxy {
        proxy.stop();
    }
    if graceful {
        let response = raw_request(&direct, &WireRequest::Shutdown);
        assert!(
            matches!(response, WireResponse::ShuttingDown),
            "shutdown not acknowledged: {response:?}"
        );
        let report = server.join();
        if let Some(message) = report.drain.failure_message() {
            return Err(format!("drain: {message}"));
        }
    } else {
        // Crash: drop the handle without draining. No checkpoint, no seal —
        // recovery has to work from the raw segments alone.
        drop(server);
    }

    Ok(Storm {
        acked,
        attempted,
        refused,
        retries,
        server_events,
    })
}

/// Recovers the WAL at `dir` (with clean I/O) and checks the loss/duplication
/// invariants against what the clients saw; recovers a second time and
/// demands byte-identical snapshots.
fn verify_recovery(dir: &Path, storm: &Storm, label: &str) {
    let recovered = boot(dir, Arc::new(RealIo))
        .unwrap_or_else(|e| panic!("{label}: recovery must be clean, got {e}"));
    let store = recovered.store_snapshot();

    for (mac, t) in &storm.acked {
        let device = store
            .device_id(mac)
            .unwrap_or_else(|| panic!("{label}: acked device {mac} lost"));
        let hits = store
            .events_of_in(
                device,
                Interval {
                    start: *t,
                    end: *t + 1,
                },
            )
            .filter(|e| e.t() == *t)
            .count();
        assert_eq!(
            hits, 1,
            "{label}: acked ingest ({mac}, {t}) stored {hits} times (want exactly once)"
        );
    }
    for (mac, t) in &storm.attempted {
        let Some(device) = store.device_id(mac) else {
            continue;
        };
        let hits = store
            .events_of_in(
                device,
                Interval {
                    start: *t,
                    end: *t + 1,
                },
            )
            .filter(|e| e.t() == *t)
            .count();
        assert!(
            hits <= 1,
            "{label}: ingest ({mac}, {t}) applied {hits} times — a retry was applied twice"
        );
    }

    let first = store.to_snapshot_bytes().expect("first recovery snapshot");
    drop(recovered);
    let again = boot(dir, Arc::new(RealIo))
        .unwrap_or_else(|e| panic!("{label}: second recovery must be clean, got {e}"));
    let second = again
        .store_snapshot()
        .to_snapshot_bytes()
        .expect("second recovery snapshot");
    assert_eq!(
        first, second,
        "{label}: recovering the same WAL twice diverged"
    );
}

// ---------------------------------------------------------------------------
// Disk-fault schedules
// ---------------------------------------------------------------------------

/// Seven disk-only schedules: seeded short writes, `ENOSPC`, and fsync
/// failures under the WAL of a live server, ended by a crash. Acked ingests
/// survive recovery exactly once; a schedule harsh enough to refuse boot must
/// refuse with a typed error (degrade, don't die).
#[test]
fn disk_fault_schedules_never_lose_acked_ingests() {
    for round in 0u64..7 {
        let seed = 0xD15C_0000 + round;
        let plan = FaultPlan {
            seed,
            writes: 1 + (round as usize % 3),
            syncs: round as usize % 2,
            reads: 0,
            renames: round as usize % 2,
            removes: 0,
            horizon: 40,
        };
        let dir = scratch("disk");
        let label = format!("disk schedule {seed:#x}");
        match run_storm(&dir, Arc::new(FaultIo::new(plan)), None, seed, false) {
            Ok(storm) => {
                assert_eq!(
                    storm.acked.len() + storm.refused as usize,
                    storm.attempted.len(),
                    "{label}: every attempt is acked or refused, never silently dropped"
                );
                verify_recovery(&dir, &storm, &label);
            }
            // The schedule fired during boot: the server refused to start
            // with a typed error. Nothing was acked, so nothing can be lost.
            Err(message) => assert!(
                !message.is_empty(),
                "{label}: boot refusal must carry a reason"
            ),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Wire-fault schedules
// ---------------------------------------------------------------------------

/// Seven wire-only schedules: the proxy drops, stalls, half-closes and splits
/// frames while the retry client rides through. With a healthy disk every
/// attempt must end acked — and applied exactly once, live (server counter)
/// and after a drained restart.
#[test]
fn wire_fault_schedules_deliver_exactly_once() {
    let mut total_retries = 0u64;
    for round in 0u64..7 {
        let seed = 0x319E_0000 + round;
        let wire = ChaosConfig {
            seed,
            ..ChaosConfig::default()
        };
        let dir = scratch("wire");
        let label = format!("wire schedule {seed:#x}");
        let storm = run_storm(&dir, Arc::new(RealIo), Some(wire), seed, true)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            storm.refused, 0,
            "{label}: a healthy disk behind a lossy wire must never refuse"
        );
        assert_eq!(storm.acked.len(), storm.attempted.len(), "{label}");
        assert_eq!(
            storm.server_events,
            storm.acked.len(),
            "{label}: server applied {} events for {} acked ingests — \
             retries were applied twice or acks were lost",
            storm.server_events,
            storm.acked.len()
        );
        verify_recovery(&dir, &storm, &label);
        total_retries += storm.retries;
        std::fs::remove_dir_all(&dir).ok();
    }
    // If no schedule ever forced a retry, the proxy was transparent and the
    // exactly-once claim above proved nothing.
    assert!(
        total_retries > 0,
        "seven wire storms without a single retry — the fault proxy is inert"
    );
}

// ---------------------------------------------------------------------------
// Combined schedules
// ---------------------------------------------------------------------------

/// Eight combined schedules: disk faults *and* wire faults in the same storm,
/// ended by a crash. The union of every failure mode still upholds the
/// invariant — acked implies durable exactly once.
#[test]
fn combined_fault_schedules_hold_every_invariant() {
    for round in 0u64..8 {
        let seed = 0xB07_0000 + round;
        let plan = FaultPlan {
            seed,
            writes: round as usize % 3,
            syncs: 1 + (round as usize % 2),
            reads: 0,
            renames: 0,
            removes: 0,
            horizon: 60,
        };
        let wire = ChaosConfig {
            seed: seed ^ 0xFEED,
            ..ChaosConfig::default()
        };
        let dir = scratch("both");
        let label = format!("combined schedule {seed:#x}");
        match run_storm(&dir, Arc::new(FaultIo::new(plan)), Some(wire), seed, false) {
            Ok(storm) => {
                assert_eq!(
                    storm.acked.len() + storm.refused as usize,
                    storm.attempted.len(),
                    "{label}"
                );
                verify_recovery(&dir, &storm, &label);
            }
            Err(message) => assert!(!message.is_empty(), "{label}: untyped boot refusal"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Panic isolation under durability
// ---------------------------------------------------------------------------

/// A panicking request in the middle of a durable storm is a typed `internal`
/// error, not a wedge: the WAL keeps accepting writes and recovery still
/// holds the exactly-once invariant.
#[test]
fn a_panicking_request_mid_storm_does_not_wedge_the_durable_server() {
    const PANIC_MAC: &str = "chaos:panic";
    fn panic_hook(mac: &str) {
        if mac == PANIC_MAC {
            panic!("injected chaos panic (mac {PANIC_MAC})");
        }
    }
    let dir = scratch("panic");
    let service = boot(&dir, Arc::new(RealIo)).expect("boot");
    let state = Arc::new(ServerState::new(service, None).with_ingest_hook(panic_hook));
    let server = Server::bind(state, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();

    let mut client = RetryClient::new(ClientConfig {
        addr: addr.clone(),
        request_timeout: Duration::from_secs(5),
        max_retries: 1,
        ..ClientConfig::default()
    });
    client
        .request(&WireRequest::Ingest {
            mac: MACS[0].into(),
            t: 1_000,
            ap: "wap0".into(),
            request_id: None,
        })
        .expect("ingest before the panic");
    // The panic injection hook: retryable `internal` errors until retries
    // run out, never a hang, never a dead server.
    let storm_error = client.request(&WireRequest::Ingest {
        mac: PANIC_MAC.into(),
        t: 1_060,
        ap: "wap0".into(),
        request_id: None,
    });
    assert!(storm_error.is_err(), "a panicking request cannot succeed");
    client
        .request(&WireRequest::Ingest {
            mac: MACS[0].into(),
            t: 1_120,
            ap: "wap0".into(),
            request_id: None,
        })
        .expect("ingest after the panic");
    assert!(matches!(
        raw_request(&addr, &WireRequest::Ping),
        WireResponse::Pong { .. }
    ));
    assert!(server.state().stats().panics >= 1);
    drop(server); // crash

    let storm = Storm {
        acked: vec![(MACS[0].into(), 1_000), (MACS[0].into(), 1_120)],
        attempted: vec![(MACS[0].into(), 1_000), (MACS[0].into(), 1_120)],
        refused: 1,
        retries: 0,
        server_events: 2,
    };
    verify_recovery(&dir, &storm, "panic storm");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Seed determinism
// ---------------------------------------------------------------------------

/// The reproducibility contract: every fault source — disk schedule, wire
/// decision stream, backoff jitter — is a pure function of its seed, so a
/// failing schedule replays bit-for-bit from the seed in its panic message.
#[test]
fn fault_sequences_are_bit_identical_for_equal_seeds() {
    for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
        let plan = FaultPlan {
            seed,
            writes: 3,
            syncs: 2,
            reads: 2,
            renames: 1,
            removes: 1,
            horizon: 64,
        };
        assert_eq!(
            FaultIo::new(plan).schedule(),
            FaultIo::new(plan).schedule(),
            "disk schedule must be a pure function of its plan"
        );
        let reseeded = FaultPlan {
            seed: seed.wrapping_add(1),
            ..plan
        };
        assert_ne!(
            FaultIo::new(plan).schedule(),
            FaultIo::new(reseeded).schedule(),
            "adjacent seeds must not collide"
        );

        let wire = ChaosConfig {
            seed,
            ..ChaosConfig::default()
        };
        let rewire = ChaosConfig {
            seed: seed.wrapping_add(1),
            ..ChaosConfig::default()
        };
        let stream = |c: &ChaosConfig| {
            (0..256u64)
                .map(|i| c.action(i % 3, (i % 2) as u8, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(&wire), stream(&wire), "wire stream is seed-pure");
        assert_ne!(stream(&wire), stream(&rewire), "wire seeds decorrelate");

        let backoff = BackoffPolicy {
            base: Duration::from_millis(3),
            cap: Duration::from_millis(700),
            seed,
        };
        assert_eq!(backoff.schedule(32), backoff.schedule(32));
    }
}
