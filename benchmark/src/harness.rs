//! The load generator and the in-process host it drives: one process holds
//! the `Server` (2 workers over a 2-shard service) and the clients, because
//! the stated machine has 2 cores and a second process would only add noise.

use crate::data::{PanelQuery, Step};
use crate::spec;
use crate::stats;
use crate::trace::Span;
use locater_client::{BackoffPolicy, ClientConfig, RetryClient};
use locater_core::metrics::PrecisionCounts;
use locater_core::system::ShardedLocaterService;
use locater_proto::{
    decode_response, encode_request, WireCompactionStats, WireRequest, WireResponse,
};
use locater_server::{Server, ServerConfig, ServerState};
use locater_space::Space;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A served (or, for `batch_clean`, merely wrapped) service.
pub struct Host {
    pub state: Arc<ServerState>,
    server: Option<Server>,
    pub addr: String,
}

impl Host {
    /// Wraps the service in a `ServerState` and, if `bind`, serves it on a
    /// loopback port with `nproc` workers — as `locater-cli serve` does.
    pub fn start(service: ShardedLocaterService, bind: bool) -> Host {
        let config = ServerConfig {
            workers: spec::CONNECTIONS,
            // The open loop never skips a request: after a stall of the VM it
            // sends everything that fell due at once. Admission must hold that
            // burst, so that a stall costs latency (which slice medians absorb)
            // and not refused operations (which fail the run).
            admission_limit: 1 << 16,
            ..ServerConfig::default()
        };
        let state = Arc::new(
            ServerState::new(service, None)
                .with_dedup_capacity(config.admission_limit.saturating_mul(4)),
        );
        let server = bind.then(|| {
            Server::bind(Arc::clone(&state), "127.0.0.1:0", config).expect("bind a loopback port")
        });
        let addr = server
            .as_ref()
            .map(|s| s.local_addr().to_string())
            .unwrap_or_default();
        Host {
            state,
            server,
            addr,
        }
    }

    pub fn service(&self) -> &ShardedLocaterService {
        self.state.service()
    }

    /// Graceful drain: a `Shutdown` frame, then `Server::join`, which stops
    /// and joins every server thread (and checkpoints a durable service).
    pub fn stop(self) -> Result<(), String> {
        let Some(server) = self.server else {
            return Ok(());
        };
        let mut client = client(&self.addr, 0);
        client
            .request(&WireRequest::Shutdown)
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(client);
        match server.join().drain.failure_message() {
            Some(message) => Err(format!("drain: {message}")),
            None => Ok(()),
        }
    }
}

/// The production client with deterministic ids; retries are allowed (they
/// are counted and must stay 0) so a transient fault shows as a retry, not as
/// a wedged run.
pub fn client(addr: &str, k: u64) -> RetryClient {
    RetryClient::new(ClientConfig {
        addr: addr.to_string(),
        request_timeout: Duration::from_secs(30),
        max_retries: 3,
        backoff: BackoffPolicy::default(),
        id_seed: 0xBE7C_0000 + k,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Locate,
    Ingest,
    Other,
}

pub fn kind_of(request: &WireRequest) -> Kind {
    match request {
        WireRequest::Locate { .. } => Kind::Locate,
        WireRequest::Ingest { .. } => Kind::Ingest,
        _ => Kind::Other,
    }
}

/// Whether a reply is the successful answer to exactly this request.
pub fn reply_matches(request: &WireRequest, response: &WireResponse) -> bool {
    match (request, response) {
        (
            WireRequest::Locate { t, .. },
            WireResponse::Located {
                answer, degraded, ..
            },
        ) => answer.t == *t && !degraded,
        (
            WireRequest::Ingest { mac, t, ap, .. },
            WireResponse::Ingested {
                mac: rmac,
                t: rt,
                ap: rap,
                ..
            },
        ) => mac == rmac && t == rt && ap == rap,
        (WireRequest::Ping, WireResponse::Pong { .. })
        | (WireRequest::Stats, WireResponse::Stats(_))
        | (WireRequest::Compact { .. }, WireResponse::Compacted(_))
        | (WireRequest::Shutdown, WireResponse::ShuttingDown) => true,
        _ => false,
    }
}

/// One completed closed-loop operation.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Completion time since the phase start.
    pub done_ns: u64,
    pub lat_ns: u64,
    pub kind: Kind,
    /// Whether this operation also recorded a span (traced slices only).
    pub traced: bool,
}

#[derive(Debug, Default)]
pub struct ClosedResult {
    pub records: Vec<OpRecord>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
    pub connects: u64,
    pub wall_s: f64,
    /// Process CPU seconds (user + system) spent during the phase.
    pub cpu_s: f64,
    /// `(start_ns, end_ns)` of every barrier window (connections parked).
    pub barrier_windows: Vec<(u64, u64)>,
    pub compactions: Vec<WireCompactionStats>,
}

/// Closed loop: one thread and one `RetryClient` per script, each sending its
/// next request when the previous reply is complete. With `trace_slices`, each
/// connection records spans in its odd-numbered slices and none in the even
/// ones, so tracing overhead can be read off one phase.
pub fn closed_loop(
    addr: &str,
    scripts: &[&[Step]],
    slices: usize,
    trace_slices: bool,
) -> ClosedResult {
    let gate = Barrier::new(scripts.len() + 1);
    let mid = Barrier::new(scripts.len());
    // One time origin for every connection, set just before the gate opens.
    let shared_origin = std::sync::OnceLock::new();
    let mut result = ClosedResult::default();
    let cpu_before = cpu_seconds();
    let origin = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(k, script)| {
                let (gate, mid, shared_origin) = (&gate, &mid, &shared_origin);
                scope.spawn(move || {
                    let mut client = client(addr, k as u64 + 1);
                    let dialed = client.request(&WireRequest::Ping).is_ok();
                    let bounds = stats::slice_bounds(script.len(), slices);
                    let mut out = ClosedResult::default();
                    out.records.reserve(script.len());
                    gate.wait();
                    let origin: Instant = *shared_origin.get().expect("set before the gate opens");
                    if !dialed {
                        out.failed += 1;
                    }
                    for (i, step) in script.iter().enumerate() {
                        let request = match step {
                            Step::Request(request) => request,
                            Step::Barrier(request) => {
                                let start_ns = origin.elapsed().as_nanos() as u64;
                                mid.wait();
                                if let Some(request) = request {
                                    out.attempted += 1;
                                    match client.request(request) {
                                        Ok(WireResponse::Compacted(stats)) => {
                                            out.compactions.push(stats)
                                        }
                                        _ => out.failed += 1,
                                    }
                                }
                                mid.wait();
                                out.barrier_windows
                                    .push((start_ns, origin.elapsed().as_nanos() as u64));
                                continue;
                            }
                        };
                        let traced =
                            trace_slices && bounds.partition_point(|&b| b <= i) % 2 == 0;
                        let start_ns = origin.elapsed().as_nanos() as u64;
                        out.attempted += 1;
                        let ok = matches!(client.request(request), Ok(ref r) if reply_matches(request, r));
                        let done_ns = origin.elapsed().as_nanos() as u64;
                        if !ok {
                            out.failed += 1;
                            continue;
                        }
                        out.records.push(OpRecord {
                            done_ns,
                            lat_ns: done_ns - start_ns,
                            kind: kind_of(request),
                            traced,
                        });
                        if traced {
                            out.spans.push(Span {
                                name: "client.request",
                                start_ns,
                                end_ns: done_ns,
                                parent: None,
                                request: (i * scripts.len() + k) as u32,
                            });
                        }
                    }
                    let stats = client.stats();
                    out.retries = stats.retries;
                    out.connects = stats.connects;
                    out
                })
            })
            .collect();
        let origin = *shared_origin.get_or_init(Instant::now);
        gate.wait();
        for handle in handles {
            let part = handle.join().expect("closed-loop client thread");
            result.records.extend(part.records);
            result.spans.extend(part.spans);
            result.attempted += part.attempted;
            result.failed += part.failed;
            result.retries += part.retries;
            result.connects += part.connects;
            result.compactions.extend(part.compactions);
            if result.barrier_windows.is_empty() {
                result.barrier_windows = part.barrier_windows;
            }
        }
        origin
    });
    result.wall_s = origin.elapsed().as_secs_f64();
    result.cpu_s = cpu_seconds() - cpu_before;
    result
}

#[derive(Debug, Default)]
pub struct OpenResult {
    /// Latency from each request's due time to its complete reply, in issue
    /// order; `u64::MAX` for a failed or mismatched reply.
    pub lat_ns: Vec<u64>,
    /// How late after its due time each request was written.
    pub send_lag_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
}

/// Open loop: one pipelined connection, a pacing sender and a receiver.
/// Request `i` is due at `start + i / rate` whatever happened before it; the
/// server answers a connection in request order, so reply `i` belongs to
/// request `i` and the receiver needs no channel to know its due time.
pub fn open_loop(addr: &str, requests: &[WireRequest], rate: f64) -> OpenResult {
    let frames: Vec<String> = requests
        .iter()
        .map(|r| {
            let mut frame = encode_request(r);
            frame.push('\n');
            frame
        })
        .collect();
    let mut writer = TcpStream::connect(addr).expect("connect the open-loop connection");
    writer.set_nodelay(true).expect("set TCP_NODELAY");
    let read_half = writer.try_clone().expect("clone the socket");
    read_half
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set the read timeout");
    let interval_ns = 1e9 / rate;
    let due_ns = |i: usize| (i as f64 * interval_ns) as u64;
    // Leave both threads time to reach their loops before request 0 is due.
    let start = Instant::now() + Duration::from_millis(20);
    let since_start = |now: Instant| now.saturating_duration_since(start).as_nanos() as u64;

    let mut result = OpenResult {
        attempted: requests.len() as u64,
        ..OpenResult::default()
    };
    let (lat_ns, send_lag_ns) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut reader = BufReader::new(read_half);
            let mut line = String::new();
            let mut lat_ns = Vec::with_capacity(requests.len());
            for (i, request) in requests.iter().enumerate() {
                line.clear();
                let read = reader.read_line(&mut line);
                let reply_ns = since_start(Instant::now());
                let ok = matches!(read, Ok(n) if n > 0)
                    && decode_response(line.trim_end())
                        .is_ok_and(|response| reply_matches(request, &response));
                lat_ns.push(if ok {
                    stats::open_loop_latency_ns(due_ns(i), reply_ns)
                } else {
                    u64::MAX
                });
                if read.is_err() {
                    break; // a dead connection: the remaining replies never come
                }
            }
            lat_ns
        });
        let mut send_lag_ns = Vec::with_capacity(frames.len());
        for (i, frame) in frames.iter().enumerate() {
            let due = start + Duration::from_nanos(due_ns(i));
            // Sleep while the slot is far, then yield-spin up to it. Waking a
            // halted vCPU costs this VM ~40 µs, more than a whole hot request;
            // a sender that sleeps up to each slot measures that, not the
            // server. Yielding lets every other runnable thread go first.
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let wait = due - now;
                if wait > Duration::from_micros(1500) {
                    std::thread::sleep(wait - Duration::from_micros(1000));
                } else {
                    std::thread::yield_now();
                }
            }
            send_lag_ns.push(since_start(Instant::now()).saturating_sub(due_ns(i)));
            if writer.write_all(frame.as_bytes()).is_err() {
                break;
            }
        }
        (
            receiver.join().expect("open-loop receiver thread"),
            send_lag_ns,
        )
    });
    result.wall_s = start.elapsed().as_secs_f64();
    result.failed = (requests.len() - lat_ns.iter().filter(|&&l| l != u64::MAX).count()) as u64;
    result.lat_ns = lat_ns;
    result.lat_ns.resize(requests.len(), u64::MAX);
    result.send_lag_ns = send_lag_ns;
    result
}

/// The serial warm-up over one connection: the precision panel. Returns the
/// panel's counts and the failures.
pub fn warm_up_wire(addr: &str, space: &Space, panel: &[PanelQuery]) -> (PrecisionCounts, u64) {
    let mut client = client(addr, 0);
    let mut counts = PrecisionCounts::new();
    let mut failed = 0;
    for query in panel {
        let request = crate::data::locate_request(&query.mac, query.t);
        match client.request(&request) {
            Ok(WireResponse::Located { answer, .. }) if answer.t == query.t => {
                counts.record(space, query.truth, &answer.location)
            }
            _ => failed += 1,
        }
    }
    failed += client.stats().retries;
    (counts, failed)
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in MiB; 0 if absent.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Heap the allocator has handed out and not got back, in MiB (`mallinfo2`:
/// `uordblks` over every arena plus `hblkhd`, the mapped blocks). What the
/// program holds, whichever arena or page it sits in: over ten runs the
/// resident set of `ingest_mixed` moved between 92 and 116 MiB with the arena
/// a freed buffer happened to lie in, this count repeats to 0.1 %.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn heap_mib() -> f64 {
    /// glibc's `struct mallinfo2`.
    #[repr(C)]
    struct Mallinfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> Mallinfo2;
    }
    // SAFETY: `mallinfo2` (glibc ≥ 2.33) takes no argument, has no
    // precondition, locks each arena it reads and returns the struct above
    // by value.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as f64 / (1024.0 * 1024.0)
}

/// Without glibc there is no such count: the resident set stands in.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn heap_mib() -> f64 {
    status_mib("VmRSS")
}

/// Restarts the kernel's peak resident set (`VmHWM`) here, so that it no
/// longer remembers what input generation built and dropped.
pub fn reset_rss_peak() {
    // "5" resets the peak resident set size of the writing process (proc(5)).
    // Where the kernel refuses, the peak includes generation.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of the process since [`reset_rss_peak`], in MiB.
pub fn rss_peak_mib() -> f64 {
    status_mib("VmHWM")
}

/// Restricts the calling thread, and every thread spawned from it afterwards
/// (the server's included), to the first CPU it may run on; returns that CPU.
/// `None` (and no change) where the platform has no such call or refuses it.
///
/// `serve_hot` runs this way. Its requests cost a few microseconds each and
/// cross four threads; spread over two vCPUs, every hand-off wakes a halted
/// vCPU (45–150 µs on the stated VM, and varying), and which threads share a
/// vCPU changes every few hundred milliseconds: slices of one phase then
/// differ 2×. On one CPU a hand-off is a context switch, and what is timed is
/// the work `locater-proto`, `locater-server` and `locater-client` do.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // The kernel's `cpu_set_t`: 1024 bits in `unsigned long` words.
    let mut allowed = [0u64; 16];
    // SAFETY: pid 0 names the calling thread; `allowed` is a live, writable
    // buffer of exactly the size passed, which bounds what the kernel writes.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the buffer is only read.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// User + system CPU seconds of this process so far (`/proc/self/stat`
/// fields 14 and 15, in the kernel's 100 Hz `USER_HZ` ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}
