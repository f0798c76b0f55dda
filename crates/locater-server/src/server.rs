//! The std-net TCP front door.
//!
//! ## Architecture
//!
//! ```text
//! accept thread ──► one thread per connection, which does the whole request:
//!                        │  read a line (bounded by `MAX_FRAME_BYTES`)
//!                        │  decode + drain check + admission control
//!                        │  take one of `workers` execution permits
//!                        │  execute (deadline verdict, panic fence, dedup)
//!                        ▼
//!                response line written back on the same socket
//! ```
//!
//! * **Pipelining with strict ordering** — a client may write many request
//!   lines before reading; one thread reads, executes and answers them one
//!   at a time, so responses come back in request order and rejections
//!   (`overloaded`, `shutting_down`, parse errors) are written in place. The
//!   backlog a client pipelines waits in the kernel socket buffer under TCP
//!   flow control, not in the process.
//! * **Per-connection serial execution** — ingest-then-locate over one socket
//!   behaves exactly like the same calls on an in-process service, while
//!   different connections execute concurrently, at most
//!   [`ServerConfig::workers`] at once.
//! * **Admission control** — `queued + in_flight` (requests waiting for a
//!   permit + requests executing) is bounded by
//!   [`ServerConfig::admission_limit`]; excess requests get an explicit
//!   [`WireError::Overloaded`] response, never a silent drop. A connection
//!   has at most one request admitted, so `overloaded` always means *other*
//!   connections hold the limit.
//! * **Graceful drain** — a `shutdown` request (or SIGTERM via
//!   [`install_sigterm_drain`]) stops admission, lets in-flight requests
//!   finish, flushes their responses, closes connections, writes the
//!   configured drain snapshot, and returns a [`ServerReport`].

use crate::exec::{DrainSummary, ServerState};
use locater_proto::{decode_request, encode_response_into, WireError, WireResponse};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest request line the server reads, newline excluded. A peer that
/// sends more without a newline is answered `BadRequest` and disconnected,
/// so no connection can grow its line buffer without bound. 4 MiB holds an
/// `IngestBatch` of some 60,000 events; every other frame is under 1 KiB.
const MAX_FRAME_BYTES: usize = 4 << 20;

/// Locks a mutex, recovering from poison instead of propagating the panic.
///
/// The executor fences request panics with `catch_unwind`, but a defect in
/// the serving layer itself could still unwind while holding a lock. Every
/// structure guarded here (the permit count, the connection registry) is
/// mutated in small all-or-nothing steps, so the inner value is structurally
/// valid even after a panicked holder — serving must continue, not cascade
/// the panic through every thread that touches the lock next.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests executing at once (execution permits); `0` means one per
    /// core (minimum 2). Threads are one per connection, not this many.
    pub workers: usize,
    /// Bound on `queued + in_flight` (requests waiting for a permit +
    /// requests executing); beyond it new requests are rejected with
    /// [`locater_proto::WireError::Overloaded`].
    pub admission_limit: usize,
    /// A connection idle (no request line) for this long is closed; also the
    /// per-response write timeout guarding against stuck clients.
    pub idle_timeout: Duration,
    /// Time budget from admission to execution pickup, i.e. for the wait for
    /// an execution permit. A `Locate` picked up past its deadline degrades
    /// to the coarse-only answer (flagged `degraded: true` on the wire)
    /// instead of spending a fine-grained budget the request no longer has;
    /// other request types run in full regardless. `None` disables
    /// deadline-based degradation.
    pub deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            admission_limit: 1024,
            idle_timeout: Duration::from_secs(60),
            deadline: None,
        }
    }
}

/// What happened over the server's lifetime, returned by [`Server::join`]
/// after a graceful drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerReport {
    /// Requests executed to completion (successes and error responses).
    pub requests_served: u64,
    /// Requests rejected by admission control.
    pub rejected_overloaded: u64,
    /// Requests rejected because the drain had started.
    pub rejected_shutting_down: u64,
    /// Connections accepted.
    pub connections: u64,
    /// What the drain epilogue did (WAL checkpoint, drain snapshot) —
    /// including any failure, which the front end must surface with a
    /// non-zero exit instead of losing the rest of the report.
    pub drain: DrainSummary,
}

/// The execution permits: how many are free, and how many connection threads
/// wait for one (so a release only pays for a wake-up when someone sleeps).
struct Permits {
    free: usize,
    waiting: usize,
}

struct Shared {
    state: Arc<ServerState>,
    config: ServerConfig,
    permits: Mutex<Permits>,
    permit_freed: Condvar,
    /// Every connection whose thread may still run: the socket (gone once
    /// the thread has exited and closed it) and the thread.
    conns: Mutex<Vec<(Weak<TcpStream>, JoinHandle<()>)>>,
    connections: AtomicU64,
}

/// One held execution permit; dropping it returns the permit.
struct Permit<'a>(&'a Shared);

impl Shared {
    /// Takes one of the [`ServerConfig::workers`] execution permits, sleeping
    /// while all are out. Never contended while connections ≤ permits.
    fn acquire_permit(&self) -> Permit<'_> {
        let mut permits = relock(&self.permits);
        permits.waiting += 1;
        while permits.free == 0 {
            permits = self
                .permit_freed
                .wait(permits)
                .unwrap_or_else(PoisonError::into_inner);
        }
        permits.waiting -= 1;
        permits.free -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut permits = relock(&self.0.permits);
        permits.free += 1;
        if permits.waiting > 0 {
            self.0.permit_freed.notify_one();
        }
    }
}

/// A running TCP server. Construct with [`Server::bind`]; [`Server::join`]
/// blocks until a graceful drain completes.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: JoinHandle<()>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7474`, or port `0` for an ephemeral
    /// port) and starts the accept thread.
    pub fn bind(
        state: Arc<ServerState>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let free = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(2)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            state,
            config,
            permits: Mutex::new(Permits { free, waiting: 0 }),
            permit_freed: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            connections: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("locater-accept".into())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(Server {
            shared,
            local_addr,
            accept,
        })
    }

    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared executor (e.g. to read [`ServerState::stats`] in-process).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.shared.state
    }

    /// Blocks until a graceful drain is requested (`shutdown` request or
    /// [`install_sigterm_drain`]), finishes all admitted work, flushes
    /// responses, closes connections, runs the drain epilogue (WAL
    /// checkpoint + drain snapshot), and reports. Epilogue failures are
    /// carried inside [`ServerReport::drain`] rather than replacing the
    /// report — the serving counters survive a failed snapshot write.
    pub fn join(self) -> ServerReport {
        // The accept thread exits once the drain flag is up, so the
        // connection registry is final from here on.
        let _ = self.accept.join();
        let state = &self.shared.state;
        // Phase 1: every admitted request finishes executing. Connection
        // threads are already answering new lines with `shutting_down`.
        while state.queued() > 0 || state.in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Phase 2: EOF on the read half of every live connection. Its
        // thread answers what it had already read, writes its last frame,
        // exits and thereby closes the socket.
        let conns = std::mem::take(&mut *relock(&self.shared.conns));
        for (stream, _) in &conns {
            if let Some(stream) = stream.upgrade() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        for (_, thread) in conns {
            let _ = thread.join();
        }
        // Phase 3: nothing can touch the store any more; persist it.
        let stats = state.stats();
        let drain = state.finish_drain();
        ServerReport {
            requests_served: stats.requests_served,
            rejected_overloaded: stats.rejected_overloaded,
            rejected_shutting_down: stats.rejected_shutting_down,
            connections: self.shared.connections.load(Ordering::Relaxed),
            drain,
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    listener
        .set_nonblocking(true)
        .expect("listener supports nonblocking accept");
    loop {
        if shared.state.is_draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                // An idle connection (no complete line within the timeout)
                // is closed, and so is one whose peer stopped reading.
                let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
                let _ = stream.set_write_timeout(Some(shared.config.idle_timeout));
                let stream = Arc::new(stream);
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let registered = Arc::downgrade(&stream);
                let thread = {
                    let shared = Arc::clone(shared);
                    std::thread::Builder::new()
                        .name("locater-conn".into())
                        .spawn(move || connection_loop(&shared, &stream))
                };
                if let Ok(thread) = thread {
                    let mut conns = relock(&shared.conns);
                    conns.retain(|(_, thread)| !thread.is_finished());
                    conns.push((registered, thread));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serves one socket: reads a request line, answers it, repeats. One thread
/// does the whole request, so responses leave in request order by
/// construction and a peer that stops reading them blocks only this thread.
fn connection_loop(shared: &Shared, stream: &TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    // One request buffer and one response buffer for the life of the
    // connection.
    let mut line = Vec::new();
    let mut frame = String::new();
    let mut line_no = 0u64;
    loop {
        line.clear();
        // One byte past the cap tells an oversized line from one at the cap.
        let mut bounded = (&mut reader).take(MAX_FRAME_BYTES as u64 + 1);
        match bounded.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let oversized = line.len() > MAX_FRAME_BYTES && !line.ends_with(b"\n");
        let text = std::str::from_utf8(&line);
        if text.is_ok_and(|text| text.trim().is_empty()) {
            continue;
        }
        line_no += 1;
        let response = if oversized {
            WireResponse::Error(WireError::BadRequest {
                message: format!("request line exceeds {MAX_FRAME_BYTES} bytes"),
            })
        } else {
            respond(shared, text, line_no)
        };
        frame.clear();
        encode_response_into(&response, &mut frame);
        frame.push('\n');
        // A failed write means the peer is gone; an oversized line leaves
        // the stream mid-frame. Either way the connection ends here.
        if writer.write_all(frame.as_bytes()).is_err() || oversized {
            return;
        }
    }
}

/// Answers one request line: drain check, decode, admission, then execution
/// under a permit. Every outcome is a response in the line's own slot.
fn respond(shared: &Shared, text: Result<&str, std::str::Utf8Error>, line_no: u64) -> WireResponse {
    let state = &shared.state;
    if state.is_draining() {
        return WireResponse::Error(state.reject_shutting_down());
    }
    let decoded = match text {
        Ok(text) => decode_request(text),
        Err(e) => Err(WireError::Parse {
            line: 0,
            column: e.valid_up_to() as u64 + 1,
            message: "request line is not valid UTF-8".to_string(),
        }),
    };
    let request = match decoded {
        Ok(request) => request,
        Err(e) => return WireResponse::Error(e.at_line(line_no)),
    };
    if let Err(e) = state.try_admit(shared.config.admission_limit) {
        return WireResponse::Error(e);
    }
    // The deadline budget covers the wait for a permit and nothing else.
    let admitted = Instant::now();
    let _permit = shared.acquire_permit();
    state.begin_execution();
    let over_deadline = shared
        .config
        .deadline
        .is_some_and(|budget| admitted.elapsed() > budget);
    let response = state.execute_with_budget(&request, over_deadline);
    state.finish_execution();
    response
}

/// Installs a SIGTERM handler that starts a graceful drain of `state`, so
/// `kill <pid>` behaves exactly like a `shutdown` request. Unix only; safe to
/// call once per process (later calls re-arm the same flag).
#[cfg(unix)]
pub fn install_sigterm_drain(state: &Arc<ServerState>) {
    use std::ffi::c_int;
    static TERM: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_term(_sig: c_int) {
        // Only async-signal-safe work here: flip the flag, nothing else.
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        // `std` links libc; SIGTERM is 15 on every supported Unix.
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }
    let _ = unsafe { signal(15, on_term) };
    let state = Arc::clone(state);
    let _ = std::thread::Builder::new()
        .name("locater-sigterm".into())
        .spawn(move || loop {
            if TERM.load(Ordering::SeqCst) {
                state.request_drain();
                return;
            }
            if state.is_draining() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
}
