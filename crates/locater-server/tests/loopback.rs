//! Loopback integration tests: a real `Server` on `127.0.0.1:0`, driven over
//! TCP with pipelined NDJSON frames, checked against a direct in-process
//! [`ShardedLocaterService`] fed the same interleaving.

use locater_core::system::{LocaterConfig, ShardedLocaterService};
use locater_proto::{
    decode_request, decode_response, encode_request, encode_response, WireError, WireRequest,
    WireResponse,
};
use locater_server::{Server, ServerConfig, ServerState};
use locater_space::{Space, SpaceBuilder};
use locater_store::{EventStore, RawEvent};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn space() -> Space {
    SpaceBuilder::new("net-test")
        .add_access_point("wap1", &["101", "102"])
        .add_access_point("wap2", &["103", "104"])
        .build()
        .unwrap()
}

fn service(shards: usize) -> ShardedLocaterService {
    ShardedLocaterService::new(EventStore::new(space()), LocaterConfig::default(), shards)
}

fn start(shards: usize, config: ServerConfig, drain_snapshot: Option<String>) -> Server {
    let state = Arc::new(ServerState::new(service(shards), drain_snapshot));
    Server::bind(state, "127.0.0.1:0", config).expect("bind loopback")
}

/// One gate per test that stalls a request (tests run in parallel): an
/// ingest of `stall-<i>` stays inside the executor until gate `i` opens.
static GATES: [AtomicBool; 3] = [
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
];

fn stall_hook(mac: &str) {
    if let Some(gate) = mac
        .strip_prefix("stall-")
        .and_then(|i| i.parse::<usize>().ok())
    {
        while !GATES[gate].load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn start_stallable(config: ServerConfig) -> Server {
    let state = Arc::new(ServerState::new(service(2), None).with_ingest_hook(stall_hook));
    Server::bind(state, "127.0.0.1:0", config).expect("bind loopback")
}

/// A connection whose ingest is parked inside the executor behind `gate`.
fn stalled_client(server: &Server, gate: usize) -> Client {
    let mut client = Client::connect(server);
    client.send(&ingest(&format!("stall-{gate}"), 1_000, "wap1"));
    wait_until("the stalled ingest is executing", || {
        server.state().in_flight() == 1
    });
    client
}

/// Polls `condition` until it holds; a condition that never does fails the
/// test instead of hanging it.
fn wait_until(what: &str, condition: impl Fn() -> bool) {
    let started = Instant::now();
    while !condition() {
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "timed out waiting until {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send_line(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("write frame");
    }

    fn send(&mut self, request: &WireRequest) {
        self.send_line(&encode_request(request));
    }

    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read frame");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    fn recv(&mut self) -> WireResponse {
        let line = self.recv_line();
        decode_response(&line).unwrap_or_else(|e| panic!("bad response frame {line:?}: {e}"))
    }

    fn expect_eof(&mut self) {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("clean EOF");
        assert_eq!(n, 0, "expected EOF, got {line:?}");
    }
}

fn ingest(mac: &str, t: i64, ap: &str) -> WireRequest {
    WireRequest::Ingest {
        mac: mac.into(),
        t,
        ap: ap.into(),
        request_id: None,
    }
}

fn locate(mac: &str, t: i64) -> WireRequest {
    WireRequest::Locate {
        mac: Some(mac.into()),
        device: None,
        t,
        fine_mode: None,
        cache: None,
    }
}

/// Mirrors the executor's request→response mapping with *direct* service
/// calls, so the served answers are checked against the in-process API, not
/// against the executor checking itself.
fn direct_expected(service: &ShardedLocaterService, request: &WireRequest) -> WireResponse {
    match request {
        WireRequest::Ingest { mac, t, ap, .. } => match service.ingest(mac, *t, ap) {
            Ok(_) => WireResponse::Ingested {
                mac: mac.clone(),
                t: *t,
                ap: ap.clone(),
                device_epoch: service.device_epoch(service.device_id(mac).unwrap()),
            },
            Err(e) => WireResponse::Error(e.into()),
        },
        WireRequest::Locate { .. } => {
            match service.locate(&request.to_locate().expect("locate frame")) {
                Ok(response) => WireResponse::located(&response),
                Err(e) => WireResponse::Error(e.into()),
            }
        }
        other => panic!("script only uses ingest/locate, got {other:?}"),
    }
}

/// The tentpole equivalence check: a pipelined interleaving of ingests and
/// locates over one socket produces responses byte-identical to the frames a
/// direct `ShardedLocaterService` yields for the same interleaving.
#[test]
fn served_answers_are_byte_identical_to_direct_service() {
    let server = start(3, ServerConfig::default(), None);
    let direct = service(3);
    let mut client = Client::connect(&server);

    let script = vec![
        locate("aa:bb:cc:dd:ee:01", 500), // unknown device at first
        ingest("aa:bb:cc:dd:ee:01", 1_000, "wap1"),
        ingest("aa:bb:cc:dd:ee:02", 1_100, "wap2"),
        locate("aa:bb:cc:dd:ee:01", 1_000),
        ingest("aa:bb:cc:dd:ee:01", 4_000, "wap1"),
        locate("aa:bb:cc:dd:ee:01", 2_500), // inside the gap
        locate("aa:bb:cc:dd:ee:02", 1_100),
        ingest("aa:bb:cc:dd:ee:01", 4_100, "wap9"), // unknown AP
        locate("ghost", 2_500),
    ];
    // Pipelined: write every request before reading any response.
    for request in &script {
        client.send(request);
    }
    for request in &script {
        let served = client.recv_line();
        let expected = encode_response(&direct_expected(&direct, request));
        assert_eq!(served, expected, "request: {request:?}");
    }
    assert_eq!(server.state().service().num_events(), direct.num_events());
}

#[test]
fn concurrent_clients_see_their_own_writes() {
    let server = Arc::new(start(4, ServerConfig::default(), None));
    let threads: Vec<_> = (0..4)
        .map(|i| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mac = format!("aa:bb:cc:dd:ee:{i:02}");
                let mut client = Client::connect(&server);
                for round in 0..10 {
                    let t = 1_000 + round * 300;
                    client.send(&ingest(&mac, t, "wap1"));
                    match client.recv() {
                        WireResponse::Ingested { device_epoch, .. } => {
                            assert_eq!(device_epoch, round as u64 + 1)
                        }
                        other => panic!("expected ingest ack, got {other:?}"),
                    }
                    client.send(&locate(&mac, t));
                    match client.recv() {
                        WireResponse::Located { answer, .. } => assert!(!answer.is_outside()),
                        other => panic!("expected answer, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("client thread");
    }
    let stats = server.state().stats();
    assert_eq!(stats.events, 40);
    assert_eq!(stats.devices, 4);
    assert_eq!(stats.requests_served, 80);
    assert_eq!(stats.rejected_overloaded, 0);
}

#[test]
fn malformed_frames_get_line_stamped_parse_errors_and_the_connection_survives() {
    let server = start(1, ServerConfig::default(), None);
    let mut client = Client::connect(&server);

    client.send_line("this is not a frame");
    match client.recv() {
        WireResponse::Error(WireError::Parse { line, .. }) => assert_eq!(line, 1),
        other => panic!("expected parse error, got {other:?}"),
    }
    client.send(&WireRequest::Ping);
    assert!(matches!(client.recv(), WireResponse::Pong { .. }));
    client.send_line("{\"Ingest\":{\"mac\": nope}}");
    match client.recv() {
        WireResponse::Error(WireError::Parse { line, column, .. }) => {
            assert_eq!(line, 3, "non-empty lines are numbered");
            assert!(column > 0, "JSON errors carry a byte column");
        }
        other => panic!("expected parse error, got {other:?}"),
    }
    // Blank lines are keepalives, not frames: no response, numbering unchanged.
    client.send_line("");
    client.send(&WireRequest::Ping);
    assert!(matches!(client.recv(), WireResponse::Pong { .. }));
    // Bytes that are not UTF-8 are a malformed frame like any other.
    client.writer.write_all(b"\"Pi\xffng\"\n").unwrap();
    match client.recv() {
        WireResponse::Error(WireError::Parse { line, column, .. }) => {
            assert_eq!((line, column), (5, 4), "the first invalid byte is located");
        }
        other => panic!("expected parse error, got {other:?}"),
    }
    client.send(&WireRequest::Ping);
    assert!(matches!(client.recv(), WireResponse::Pong { .. }));
}

#[test]
fn overload_yields_explicit_backpressure_not_silent_drops() {
    // One permit and an admission limit of 1: while connection A's ingest
    // is stalled inside the executor, connection B's pipelined pings must
    // each be rejected with an explicit `overloaded` frame.
    let server = start_stallable(ServerConfig {
        workers: 1,
        admission_limit: 1,
        ..ServerConfig::default()
    });
    let mut a = stalled_client(&server, 0);
    let mut b = Client::connect(&server);
    let pings = 50usize;
    for _ in 0..pings {
        b.send(&WireRequest::Ping);
    }
    // One frame per ping, in order — nothing is dropped.
    for _ in 0..pings {
        match b.recv() {
            WireResponse::Error(WireError::Overloaded {
                in_flight,
                queued,
                limit,
            }) => assert_eq!((in_flight, queued, limit), (1, 0, 1)),
            other => panic!("expected an overloaded frame, got {other:?}"),
        }
    }
    assert_eq!(server.state().stats().rejected_overloaded as usize, pings);

    GATES[0].store(true, Ordering::SeqCst);
    assert!(matches!(a.recv(), WireResponse::Ingested { .. }));
    // A's ack is written after its request left the gauges: B is admitted.
    b.send(&WireRequest::Ping);
    assert!(matches!(b.recv(), WireResponse::Pong { .. }));
    assert_eq!(server.state().stats().rejected_overloaded as usize, pings);
}

#[test]
fn a_locate_that_outwaits_its_deadline_for_a_permit_degrades() {
    let server = start_stallable(ServerConfig {
        workers: 1,
        deadline: Some(Duration::from_millis(5)),
        ..ServerConfig::default()
    });
    let mut b = Client::connect(&server);
    b.send(&ingest("aa:bb:cc:dd:ee:01", 1_000, "wap1"));
    assert!(matches!(b.recv(), WireResponse::Ingested { .. }));
    // A holds the only permit; B's locate is admitted and waits for it.
    let mut a = stalled_client(&server, 1);
    b.send(&locate("aa:bb:cc:dd:ee:01", 1_000));
    wait_until("B's locate waits for the permit", || {
        server.state().queued() == 1
    });
    std::thread::sleep(Duration::from_millis(10)); // spend B's 5 ms budget
    GATES[1].store(true, Ordering::SeqCst);
    assert!(matches!(a.recv(), WireResponse::Ingested { .. }));
    match b.recv() {
        WireResponse::Located {
            answer, degraded, ..
        } => {
            assert!(degraded, "the permit wait outlasted the deadline");
            assert!(!answer.is_outside());
        }
        other => panic!("expected a located answer, got {other:?}"),
    }
    assert_eq!(server.state().stats().degraded, 1);
}

#[test]
fn a_reader_that_stops_reading_blocks_only_its_own_connection() {
    let server = start(
        1,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        None,
    );
    // A pipelines `Stats` frames until its own write would block and never
    // reads a response: the server's writes to A fill both socket buffers.
    let a = Client::connect(&server);
    a.writer.set_nonblocking(true).unwrap();
    let chunk = "\"Stats\"\n".repeat(4096);
    loop {
        match (&a.writer).write(chunk.as_bytes()) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) => panic!("write to the server: {e}"),
        }
    }
    // B keeps pinging until A's thread has stopped making progress (it is
    // stuck writing to A), then once more: every ping is answered promptly.
    let mut b = Client::connect(&server);
    b.writer
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let served = || server.state().stats().requests_served;
    loop {
        let before = served();
        b.send(&WireRequest::Ping);
        assert!(matches!(b.recv(), WireResponse::Pong { .. }));
        std::thread::sleep(Duration::from_millis(50));
        if served() == before + 1 {
            break;
        }
    }
    b.send(&WireRequest::Ping);
    assert!(matches!(b.recv(), WireResponse::Pong { .. }));
}

#[test]
fn oversized_request_lines_are_rejected_and_the_connection_closed() {
    // The server's `MAX_FRAME_BYTES`.
    const LIMIT: usize = 4 << 20;
    let server = start(2, ServerConfig::default(), None);
    let mut client = Client::connect(&server);
    // A large frame under the cap is served like any other…
    let events: Vec<RawEvent> = (0..5_000)
        .map(|i| {
            RawEvent::new(
                format!("aa:bb:cc:00:{:02x}:{:02x}", i / 256 % 256, i % 256),
                1_000 + i,
                "wap1",
            )
        })
        .collect();
    client.send(&WireRequest::IngestBatch {
        events,
        request_id: None,
    });
    assert_eq!(
        client.recv(),
        WireResponse::IngestedBatch { appended: 5_000 }
    );
    // …a line that passes the cap without a newline is answered and cut off.
    client.writer.write_all(&vec![b'x'; LIMIT + 1]).unwrap();
    match client.recv() {
        WireResponse::Error(WireError::BadRequest { message }) => {
            assert!(message.contains(&LIMIT.to_string()), "message: {message}");
        }
        other => panic!("expected a bad-request frame, got {other:?}"),
    }
    client.expect_eof();
    assert_eq!(server.state().stats().events, 5_000);
}

#[test]
fn a_final_line_without_a_newline_is_still_answered() {
    let server = start(1, ServerConfig::default(), None);
    let mut client = Client::connect(&server);
    client.writer.write_all(b"\"Ping\"").unwrap();
    client.writer.shutdown(Shutdown::Write).unwrap();
    assert!(matches!(client.recv(), WireResponse::Pong { .. }));
    client.expect_eof();
}

#[test]
fn a_drain_waits_for_the_request_that_is_still_executing() {
    let server = start_stallable(ServerConfig::default());
    let mut a = stalled_client(&server, 2);
    let mut b = Client::connect(&server);
    b.send(&WireRequest::Shutdown);
    assert_eq!(b.recv(), WireResponse::ShuttingDown);
    let state = Arc::clone(server.state());
    let join = std::thread::spawn(move || server.join());
    // The drain is under way and A's request is still inside the executor:
    // it must be finished and acked, not cut off.
    GATES[2].store(true, Ordering::SeqCst);
    assert!(matches!(a.recv(), WireResponse::Ingested { .. }));
    let report = join.join().expect("join thread");
    a.expect_eof();
    b.expect_eof();
    assert_eq!(report.requests_served, 2, "the ingest and the shutdown");
    assert_eq!(state.service().num_events(), 1);
}

#[test]
fn a_shutdown_mid_burst_answers_every_frame_in_order_then_closes() {
    let server = start(2, ServerConfig::default(), None);
    let mut client = Client::connect(&server);
    let (before, after) = (10i64, 10usize);
    for i in 0..before {
        client.send(&ingest("aa:bb:cc:dd:ee:01", 1_000 + i, "wap1"));
    }
    client.send(&WireRequest::Shutdown);
    for _ in 0..after {
        client.send(&WireRequest::Ping);
    }
    for i in 0..before {
        match client.recv() {
            WireResponse::Ingested { t, .. } => assert_eq!(t, 1_000 + i),
            other => panic!("expected ingest ack {i}, got {other:?}"),
        }
    }
    assert_eq!(client.recv(), WireResponse::ShuttingDown);
    for _ in 0..after {
        assert_eq!(client.recv(), WireResponse::Error(WireError::ShuttingDown));
    }
    let report = server.join();
    client.expect_eof();
    assert_eq!(
        report.requests_served + report.rejected_shutting_down,
        before as u64 + 1 + after as u64
    );
    assert_eq!(report.rejected_shutting_down, after as u64);
}

#[test]
fn graceful_shutdown_drains_and_snapshot_equals_direct_save() {
    let dir = std::env::temp_dir().join(format!("locater-server-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let drained = dir.join("drained.snap").to_string_lossy().to_string();
    let direct_path = dir.join("direct.snap").to_string_lossy().to_string();

    let server = start(2, ServerConfig::default(), Some(drained.clone()));
    let direct = service(2);
    let mut client = Client::connect(&server);

    let events = [
        ("aa:bb:cc:dd:ee:01", 1_000, "wap1"),
        ("aa:bb:cc:dd:ee:02", 1_050, "wap2"),
        ("aa:bb:cc:dd:ee:01", 4_000, "wap1"),
    ];
    for (mac, t, ap) in events {
        client.send(&ingest(mac, t, ap));
        assert!(matches!(client.recv(), WireResponse::Ingested { .. }));
        direct.ingest(mac, t, ap).unwrap();
    }
    client.send(&WireRequest::Shutdown);
    assert_eq!(client.recv(), WireResponse::ShuttingDown);
    // Post-drain requests are rejected, not dropped: the slot is answered.
    client.send(&WireRequest::Ping);
    assert_eq!(client.recv(), WireResponse::Error(WireError::ShuttingDown));
    drop(client);

    let report = server.join();
    assert_eq!(report.requests_served, 4, "3 ingests + shutdown");
    assert_eq!(report.rejected_shutting_down, 1);
    assert_eq!(report.connections, 1);
    assert!(!report.drain.has_failure(), "drain: {:?}", report.drain);
    let (path, bytes) = report
        .drain
        .snapshot
        .expect("drain snapshot attempted")
        .expect("drain snapshot written");
    assert_eq!(path, drained);
    assert!(bytes > 0);

    // The drain snapshot is byte-identical to an uncrashed `snapshot save`
    // from a direct service fed the same events.
    direct.save_snapshot(&direct_path).unwrap();
    assert_eq!(
        std::fs::read(&drained).unwrap(),
        std::fs::read(&direct_path).unwrap()
    );
    // And it restores into a service with the same history.
    let restored =
        ShardedLocaterService::from_snapshot(&drained, LocaterConfig::default(), 2).unwrap();
    assert_eq!(restored.num_events(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_panicking_request_does_not_wedge_the_server() {
    const PANIC_MAC: &str = "chaos:panic";
    fn panic_hook(mac: &str) {
        if mac == PANIC_MAC {
            panic!("injected chaos panic (mac {PANIC_MAC})");
        }
    }
    let state = Arc::new(ServerState::new(service(1), None).with_ingest_hook(panic_hook));
    let server = Server::bind(state, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(&server);
    // The hooked MAC panics inside the executor; the panic must come back
    // as a typed internal error, not close or wedge anything.
    client.send(&ingest(PANIC_MAC, 1_000, "wap1"));
    match client.recv() {
        WireResponse::Error(WireError::Internal { message }) => {
            assert!(message.contains("panicked"), "message: {message}");
        }
        other => panic!("expected internal error, got {other:?}"),
    }
    // The same connection keeps working…
    client.send(&WireRequest::Ping);
    assert!(matches!(client.recv(), WireResponse::Pong { .. }));
    // …and so does a fresh one (no lock was poisoned by the unwind).
    let mut fresh = Client::connect(&server);
    fresh.send(&ingest("aa:bb:cc:dd:ee:01", 1_000, "wap1"));
    assert!(matches!(fresh.recv(), WireResponse::Ingested { .. }));
    let stats = server.state().stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.events, 1);
}

#[test]
fn ingest_retries_with_request_ids_are_idempotent_across_reconnects() {
    let server = start(2, ServerConfig::default(), None);
    let request = WireRequest::Ingest {
        mac: "aa:bb:cc:dd:ee:01".into(),
        t: 1_000,
        ap: "wap1".into(),
        request_id: Some(99),
    };
    let mut first = Client::connect(&server);
    first.send(&request);
    let ack = first.recv();
    assert!(matches!(ack, WireResponse::Ingested { .. }));
    // The client loses the connection after the ack and retries the exact
    // frame on a new one: the server replays the original ack and applies
    // nothing — one event, not two.
    drop(first);
    let mut second = Client::connect(&server);
    second.send(&request);
    assert_eq!(second.recv(), ack);
    let stats = server.state().stats();
    assert_eq!(stats.events, 1);
    assert_eq!(stats.deduped, 1);
}

#[test]
fn past_deadline_locates_degrade_to_coarse_answers() {
    // A zero deadline means every request is picked up over budget, so every
    // locate must take the degraded coarse-only path — and still answer.
    let config = ServerConfig {
        deadline: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let server = start(2, config, None);
    let mut client = Client::connect(&server);
    client.send(&ingest("aa:bb:cc:dd:ee:01", 1_000, "wap1"));
    assert!(matches!(client.recv(), WireResponse::Ingested { .. }));
    client.send(&locate("aa:bb:cc:dd:ee:01", 1_000));
    match client.recv() {
        WireResponse::Located {
            answer, degraded, ..
        } => {
            assert!(degraded, "zero budget must flag the answer degraded");
            assert!(!answer.is_outside());
        }
        other => panic!("expected a located answer, got {other:?}"),
    }
    assert_eq!(server.state().stats().degraded, 1);
}

#[test]
fn idle_connections_are_closed() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = start(1, config, None);
    let mut client = Client::connect(&server);
    client.send(&WireRequest::Ping);
    assert!(matches!(client.recv(), WireResponse::Pong { .. }));
    // No traffic: the server closes the socket after the idle timeout.
    client.expect_eof();
}

#[test]
fn raw_json_frames_match_typed_constructors() {
    // A hand-written frame (what a non-Rust client would send) decodes to the
    // same request the typed constructor builds.
    let hand_written = r#"{"Locate":{"mac":"aa","t":2500,"cache":"Disabled"}}"#;
    let typed = WireRequest::Locate {
        mac: Some("aa".into()),
        device: None,
        t: 2_500,
        fine_mode: None,
        cache: Some(locater_core::system::CacheMode::Disabled),
    };
    assert_eq!(decode_request(hand_written).unwrap(), typed);

    let server = start(1, ServerConfig::default(), None);
    let mut client = Client::connect(&server);
    client.send_line(r#""Ping""#);
    assert!(matches!(client.recv(), WireResponse::Pong { .. }));
}
