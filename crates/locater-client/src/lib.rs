//! # locater-client — the resilient NDJSON TCP client
//!
//! A std-only client for the LOCATER wire protocol that survives the faults
//! a real network actually serves: dropped connections, stalled reads,
//! half-closes, and lost acks. Three mechanisms, composed:
//!
//! * **Reconnect** — a broken socket is dropped and re-dialed on the next
//!   attempt; the client never wedges on a dead stream.
//! * **Capped exponential backoff with seeded jitter** —
//!   [`BackoffPolicy`] yields a fully deterministic delay schedule: the
//!   envelope doubles from `base` up to `cap`, and each delay is jittered
//!   into `[envelope/2, envelope]` by a seeded PRNG, so the same seed
//!   reproduces the same schedule byte-for-byte (chaos tests depend on
//!   this) while distinct clients still decorrelate.
//! * **Idempotent retries** — only errors the server marks retryable
//!   ([`locater_proto::WireError::retryable`]) and transport failures are
//!   retried, and every ingest frame is stamped with a client-unique
//!   `request_id` *before* the first send, so a retry after a lost ack
//!   replays the original acknowledgement server-side instead of appending
//!   twice. Non-retryable errors surface immediately.
//!
//! ```no_run
//! use locater_client::{BackoffPolicy, ClientConfig, RetryClient};
//! use locater_proto::WireRequest;
//!
//! let mut client = RetryClient::new(ClientConfig {
//!     addr: "127.0.0.1:7474".into(),
//!     ..ClientConfig::default()
//! });
//! let pong = client.request(&WireRequest::Ping).unwrap();
//! println!("{pong:?}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use locater_proto::{decode_response, encode_request_into, WireError, WireRequest, WireResponse};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A capped exponential backoff schedule with seeded jitter.
///
/// Attempt `n` (0-based) has envelope `min(cap, base << n)`; the actual
/// delay is drawn uniformly from `[envelope/2, envelope]` by a counter-mode
/// PRNG keyed on `(seed, n)`. The schedule is a pure function of the policy:
/// no global state, no clock — the same policy yields the same delays
/// forever, which is what makes chaos runs reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-attempt envelope.
    pub base: Duration,
    /// Upper bound the envelope saturates at.
    pub cap: Duration,
    /// Jitter seed; equal seeds give byte-identical schedules.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl BackoffPolicy {
    /// The pre-jitter envelope for 0-based `attempt`: `min(cap, base << n)`,
    /// monotone non-decreasing in `attempt` and saturating at `cap`.
    pub fn envelope(&self, attempt: u32) -> Duration {
        let base = self.base.as_nanos();
        let cap = self.cap.as_nanos();
        let env = base
            .saturating_mul(1u128.checked_shl(attempt).unwrap_or(u128::MAX))
            .min(cap);
        duration_from_nanos(env)
    }

    /// The jittered delay before retrying after 0-based `attempt`, inside
    /// `[envelope/2, envelope]`. Deterministic per `(policy, attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let env = self.envelope(attempt).as_nanos();
        let half = env / 2;
        let span = env - half;
        let r = mix(self.seed, u64::from(attempt)) as u128;
        let jittered = if span == 0 {
            env
        } else {
            half + r % (span + 1)
        };
        duration_from_nanos(jittered)
    }

    /// The first `attempts` delays as one schedule (for logging and tests).
    pub fn schedule(&self, attempts: u32) -> Vec<Duration> {
        (0..attempts).map(|n| self.delay(n)).collect()
    }
}

fn duration_from_nanos(nanos: u128) -> Duration {
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

/// SplitMix64: a counter-mode mixer — no sequential state, so delays can be
/// computed for any attempt independently and reproducibly.
fn mix(seed: u64, counter: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(counter.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tuning knobs for [`RetryClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Server address, e.g. `127.0.0.1:7474`.
    pub addr: String,
    /// Budget for one attempt's response read (also the connect timeout).
    pub request_timeout: Duration,
    /// Retries after the first attempt; `0` means fail on the first error.
    pub max_retries: u32,
    /// Delay schedule between attempts.
    pub backoff: BackoffPolicy,
    /// Seed for the client-unique `request_id` stream stamped onto ingest
    /// frames. Distinct concurrent clients must use distinct seeds, or the
    /// server may dedup one client's ingest against another's and replay
    /// the wrong ack. [`Default`] draws a fresh random seed per config, so
    /// default-configured clients are safe out of the box; set it
    /// explicitly only for reproducible tests, with a distinct value per
    /// client.
    pub id_seed: u64,
}

/// A random seed for one client's `request_id` stream, from the standard
/// library's per-instance hasher entropy (no extra dependency): every call
/// yields a fresh value, so two default-configured clients — same process
/// or not — never share an id stream by accident.
fn random_id_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:7474".into(),
            request_timeout: Duration::from_secs(10),
            max_retries: 8,
            backoff: BackoffPolicy::default(),
            id_seed: random_id_seed(),
        }
    }
}

/// Why a [`RetryClient`] request ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// The server answered with an error it marks non-retryable (bad
    /// request, unknown device, …): retrying identical bytes cannot help.
    Server(WireError),
    /// Every attempt failed; the last failure is carried for diagnosis.
    RetriesExhausted {
        /// Attempts made (1 initial + retries).
        attempts: u32,
        /// The last attempt's failure, rendered.
        last: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Server(e) => write!(f, "server rejected the request: {e}"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "gave up after {attempts} attempt(s); last failure: {last}"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Counters a chaos run asserts over (all attempts, not just failures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Send attempts, including first tries.
    pub attempts: u64,
    /// Attempts beyond the first for some request.
    pub retries: u64,
    /// Fresh TCP connections dialed.
    pub connects: u64,
    /// Requests that ultimately failed.
    pub failures: u64,
}

/// A reconnecting, retrying NDJSON client. One request in flight at a time
/// (retries must replay the same frame, so pipelining and retrying are at
/// odds); create several clients for concurrency.
#[derive(Debug)]
pub struct RetryClient {
    config: ClientConfig,
    conn: Option<BufReader<TcpStream>>,
    /// The request frame buffer, reused across requests.
    frame: String,
    /// The response line buffer, reused across attempts and requests.
    line: String,
    next_id: u64,
    stats: ClientStats,
}

impl RetryClient {
    /// Creates a client. Nothing is dialed until the first request.
    pub fn new(config: ClientConfig) -> Self {
        RetryClient {
            config,
            conn: None,
            frame: String::new(),
            line: String::new(),
            next_id: 0,
            stats: ClientStats::default(),
        }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The next client-unique idempotency token (a counter-mode hash of the
    /// configured `id_seed`, so concurrent clients with distinct seeds draw
    /// from disjoint-in-practice id streams).
    fn fresh_request_id(&mut self) -> u64 {
        let id = mix(self.config.id_seed ^ 0x1D_C0DE, self.next_id);
        self.next_id += 1;
        id
    }

    /// Stamps an idempotency token onto ingest frames that lack one, so
    /// every retry of this request replays the *same* id. Other request
    /// kinds pass through: they are read-only or idempotent by nature.
    fn stamped(&mut self, request: &WireRequest) -> WireRequest {
        let mut request = request.clone();
        match &mut request {
            WireRequest::Ingest { request_id, .. }
            | WireRequest::IngestBatch { request_id, .. }
                if request_id.is_none() =>
            {
                *request_id = Some(self.fresh_request_id());
            }
            _ => {}
        }
        request
    }

    /// Sends one request, retrying transport failures and retryable server
    /// errors with the configured backoff, reconnecting as needed. Ingest
    /// frames are stamped with a request id before the first send, so a
    /// retry that crosses a reconnect cannot double-apply.
    pub fn request(&mut self, request: &WireRequest) -> Result<WireResponse, ClientError> {
        // Only a frame that gets a token is copied; the rest go out as given.
        let lacks_id = matches!(
            request,
            WireRequest::Ingest {
                request_id: None,
                ..
            } | WireRequest::IngestBatch {
                request_id: None,
                ..
            }
        );
        let stamped = lacks_id.then(|| self.stamped(request));
        self.frame.clear();
        encode_request_into(stamped.as_ref().unwrap_or(request), &mut self.frame);
        self.frame.push('\n');
        let attempts = self.config.max_retries.saturating_add(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                std::thread::sleep(self.config.backoff.delay(attempt - 1));
            }
            self.stats.attempts += 1;
            match self.attempt() {
                Ok(WireResponse::Error(e)) if e.retryable() => {
                    // The server may be draining or mid-recovery: the frame
                    // was not applied (or its replay is deduped), try again.
                    self.conn = None;
                    last = format!("retryable server error: {e}");
                }
                Ok(response) => {
                    if let WireResponse::Error(e) = response {
                        self.stats.failures += 1;
                        return Err(ClientError::Server(e));
                    }
                    return Ok(response);
                }
                Err(e) => {
                    self.conn = None;
                    last = format!("transport failure: {e}");
                }
            }
        }
        self.stats.failures += 1;
        Err(ClientError::RetriesExhausted { attempts, last })
    }

    /// One write of the encoded frame + one read over the current (or a
    /// fresh) connection.
    fn attempt(&mut self) -> std::io::Result<WireResponse> {
        if self.conn.is_none() {
            self.conn = Some(self.dial()?);
        }
        let reader = self.conn.as_mut().expect("connection just ensured");
        reader.get_mut().write_all(self.frame.as_bytes())?;
        self.line.clear();
        let n = reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            ));
        }
        decode_response(self.line.trim_end())
            .map_err(|e| std::io::Error::other(format!("undecodable response frame: {e}")))
    }

    fn dial(&mut self) -> std::io::Result<BufReader<TcpStream>> {
        let timeout = self.config.request_timeout;
        let mut last =
            std::io::Error::other(format!("no address resolved for {}", self.config.addr));
        for addr in self.config.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    self.stats.connects += 1;
                    return Ok(BufReader::new(stream));
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    #[test]
    fn envelope_doubles_and_saturates_at_the_cap() {
        let policy = BackoffPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            seed: 7,
        };
        let envelopes: Vec<u64> = (0..8)
            .map(|n| policy.envelope(n).as_millis() as u64)
            .collect();
        assert_eq!(envelopes, vec![10, 20, 40, 80, 100, 100, 100, 100]);
    }

    #[test]
    fn delays_are_jittered_within_bounds_and_seed_deterministic() {
        let policy = BackoffPolicy {
            base: Duration::from_millis(8),
            cap: Duration::from_secs(1),
            seed: 42,
        };
        for n in 0..20 {
            let env = policy.envelope(n);
            let delay = policy.delay(n);
            assert!(delay <= env, "attempt {n}: {delay:?} > envelope {env:?}");
            assert!(delay >= env / 2, "attempt {n}: {delay:?} < half envelope");
        }
        assert_eq!(policy.schedule(32), policy.schedule(32));
        let other = BackoffPolicy { seed: 43, ..policy };
        assert_ne!(policy.schedule(32), other.schedule(32), "seeds decorrelate");
    }

    #[test]
    fn ingest_frames_are_stamped_once_and_ids_never_repeat() {
        let mut client = RetryClient::new(ClientConfig::default());
        let bare = WireRequest::Ingest {
            mac: "aa".into(),
            t: 1,
            ap: "wap1".into(),
            request_id: None,
        };
        let WireRequest::Ingest {
            request_id: Some(first),
            ..
        } = client.stamped(&bare)
        else {
            panic!("ingest must be stamped");
        };
        let WireRequest::Ingest {
            request_id: Some(second),
            ..
        } = client.stamped(&bare)
        else {
            panic!("ingest must be stamped");
        };
        assert_ne!(first, second);
        // A caller-chosen id is preserved, not overwritten.
        let chosen = WireRequest::Ingest {
            mac: "aa".into(),
            t: 1,
            ap: "wap1".into(),
            request_id: Some(77),
        };
        assert_eq!(client.stamped(&chosen), chosen);
        // Ping is never stamped.
        assert_eq!(client.stamped(&WireRequest::Ping), WireRequest::Ping);
    }

    #[test]
    fn default_configured_clients_draw_disjoint_id_streams() {
        // Each default config gets its own random seed, so two clients that
        // never chose one still stamp different ids — the server must not
        // dedup one client's ingest against another's.
        let first = ClientConfig::default();
        let second = ClientConfig::default();
        assert_ne!(first.id_seed, second.id_seed, "seeds are per-instance");
        let bare = WireRequest::Ingest {
            mac: "aa".into(),
            t: 1,
            ap: "wap1".into(),
            request_id: None,
        };
        let (mut a, mut b) = (RetryClient::new(first), RetryClient::new(second));
        let (
            WireRequest::Ingest {
                request_id: ida, ..
            },
            WireRequest::Ingest {
                request_id: idb, ..
            },
        ) = (a.stamped(&bare), b.stamped(&bare))
        else {
            panic!("ingest must be stamped");
        };
        assert_ne!(ida, idb);
    }

    /// A misbehaving one-shot server: slams the first connection shut before
    /// answering, then serves pongs. The client must reconnect and succeed.
    #[test]
    fn reconnects_after_a_slammed_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (first, _) = listener.accept().unwrap();
            drop(first); // RST/EOF before any response
            let (second, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(second.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut stream = second;
            let mut pong = locater_proto::encode_response(&WireResponse::Pong {
                version: locater_proto::PROTOCOL_VERSION,
            });
            pong.push('\n');
            stream.write_all(pong.as_bytes()).unwrap();
        });
        let mut client = RetryClient::new(ClientConfig {
            addr: addr.to_string(),
            request_timeout: Duration::from_secs(5),
            max_retries: 3,
            backoff: BackoffPolicy {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(10),
                seed: 1,
            },
            id_seed: 1,
        });
        let response = client.request(&WireRequest::Ping).unwrap();
        assert!(matches!(response, WireResponse::Pong { .. }));
        let stats = client.stats();
        assert!(stats.retries >= 1, "stats: {stats:?}");
        assert!(stats.connects >= 2, "stats: {stats:?}");
        server.join().unwrap();
    }

    /// Non-retryable server errors surface immediately, without retries.
    #[test]
    fn non_retryable_errors_are_not_retried() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut stream = stream;
            let mut frame =
                locater_proto::encode_response(&WireResponse::Error(WireError::UnknownDevice {
                    mac: "ghost".into(),
                }));
            frame.push('\n');
            stream.write_all(frame.as_bytes()).unwrap();
        });
        let mut client = RetryClient::new(ClientConfig {
            addr: addr.to_string(),
            request_timeout: Duration::from_secs(5),
            max_retries: 5,
            ..ClientConfig::default()
        });
        let err = client.request(&WireRequest::Ping).unwrap_err();
        assert!(matches!(
            err,
            ClientError::Server(WireError::UnknownDevice { .. })
        ));
        assert_eq!(client.stats().attempts, 1, "no retry on non-retryable");
        server.join().unwrap();
    }
}
