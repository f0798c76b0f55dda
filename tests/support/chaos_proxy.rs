//! A deterministic chaos TCP proxy for wire-fault injection.
//!
//! [`ChaosProxy`] sits between a client and a live server, forwarding bytes
//! in both directions while injecting the failures real networks serve:
//! dropped connections, stalled reads, half-closes, and frames split
//! mid-byte. Every injection decision is a **pure function** of the seed and
//! the chunk's coordinates ([`ChaosConfig::action`]), so the same seed
//! yields a bit-identical decision stream — chaos runs replay exactly.
//!
//! The proxy never interprets the NDJSON protocol: it degrades the byte
//! stream only, which is precisely what a resilient client must survive.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the proxy does to one forwarded chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosAction {
    /// Pass the chunk through untouched.
    Forward,
    /// Write the first half of the chunk, pause, then write the rest —
    /// a frame split mid-byte across two TCP pushes.
    Split,
    /// Sleep for [`ChaosConfig::stall`] before forwarding the chunk.
    Stall,
    /// Close both directions immediately; the chunk is lost.
    Drop,
    /// Forward the chunk, then shut down this direction only (half-close):
    /// the peer sees EOF while the other direction stays open.
    HalfClose,
}

/// Fault mix for a [`ChaosProxy`], in chunks-per-mille rates.
///
/// Rates are evaluated in the order drop → stall → half-close → split on a
/// single per-chunk roll, so their sum must stay ≤ 1000; the remainder of
/// the probability mass forwards cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for the decision stream; equal seeds replay identical decisions.
    pub seed: u64,
    /// Per-mille chance a chunk kills the connection.
    pub drop_per_mille: u16,
    /// Per-mille chance a chunk is stalled by [`stall`](Self::stall) first.
    pub stall_per_mille: u16,
    /// Per-mille chance a chunk half-closes its direction after forwarding.
    pub half_close_per_mille: u16,
    /// Per-mille chance a chunk is split mid-byte into two pushes.
    pub split_per_mille: u16,
    /// How long a stalled chunk waits.
    pub stall: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            drop_per_mille: 20,
            stall_per_mille: 30,
            half_close_per_mille: 10,
            split_per_mille: 200,
            stall: Duration::from_millis(50),
        }
    }
}

/// A quiet mix: every chunk forwards untouched (for control runs).
impl ChaosConfig {
    /// A configuration that injects nothing, whatever the seed.
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_per_mille: 0,
            stall_per_mille: 0,
            half_close_per_mille: 0,
            split_per_mille: 0,
            stall: Duration::ZERO,
        }
    }

    /// The injection decision for chunk number `chunk` of direction `dir`
    /// (0 = client→server, 1 = server→client) on connection `conn`.
    ///
    /// Pure and stateless: the decision stream for a seed can be computed
    /// ahead of time, replayed, and asserted bit-identical across runs.
    pub fn action(&self, conn: u64, dir: u8, chunk: u64) -> ChaosAction {
        let key = conn
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(dir) << 62)
            .wrapping_add(chunk);
        let roll = (mix(self.seed, key) % 1000) as u16;
        let drop = self.drop_per_mille;
        let stall = drop + self.stall_per_mille;
        let half_close = stall + self.half_close_per_mille;
        let split = half_close + self.split_per_mille;
        if roll < drop {
            ChaosAction::Drop
        } else if roll < stall {
            ChaosAction::Stall
        } else if roll < half_close {
            ChaosAction::HalfClose
        } else if roll < split {
            ChaosAction::Split
        } else {
            ChaosAction::Forward
        }
    }
}

/// SplitMix64 in counter mode: stateless, so any (seed, key) pair maps to
/// the same draw forever.
fn mix(seed: u64, counter: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(counter.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Injection counters, one per [`ChaosAction`] (forwards are not counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosCounters {
    /// Connections killed mid-stream.
    pub drops: u64,
    /// Chunks stalled.
    pub stalls: u64,
    /// Directions half-closed.
    pub half_closes: u64,
    /// Chunks split mid-byte.
    pub splits: u64,
    /// Connections accepted.
    pub connections: u64,
}

#[derive(Debug, Default)]
struct Counters {
    drops: AtomicU64,
    stalls: AtomicU64,
    half_closes: AtomicU64,
    splits: AtomicU64,
    connections: AtomicU64,
}

/// A running chaos proxy. Dropping it stops the accept loop; established
/// pumps die with their sockets.
#[derive(Debug)]
pub struct ChaosProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral loopback port and forwards every accepted
    /// connection to `upstream` through the configured fault mix.
    pub fn start(upstream: SocketAddr, config: ChaosConfig) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let accept = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("chaos-accept".into())
                .spawn(move || accept_loop(&listener, upstream, config, &stop, &counters))?
        };
        Ok(ChaosProxy {
            local_addr,
            stop,
            counters,
            accept: Some(accept),
        })
    }

    /// The address clients should dial instead of the real server.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the injection counters.
    pub fn counters(&self) -> ChaosCounters {
        ChaosCounters {
            drops: self.counters.drops.load(Ordering::Relaxed),
            stalls: self.counters.stalls.load(Ordering::Relaxed),
            half_closes: self.counters.half_closes.load(Ordering::Relaxed),
            splits: self.counters.splits.load(Ordering::Relaxed),
            connections: self.counters.connections.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting new connections (established pumps drain on their
    /// own as their sockets close).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    config: ChaosConfig,
    stop: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
) {
    let mut conn_index = 0u64;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((client, _)) => {
                counters.connections.fetch_add(1, Ordering::Relaxed);
                let conn = conn_index;
                conn_index += 1;
                let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(5))
                else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                client.set_nodelay(true).ok();
                server.set_nodelay(true).ok();
                for dir in 0..2u8 {
                    let (from, to) = if dir == 0 {
                        (client.try_clone(), server.try_clone())
                    } else {
                        (server.try_clone(), client.try_clone())
                    };
                    let (Ok(from), Ok(to)) = (from, to) else {
                        continue;
                    };
                    let counters = Arc::clone(counters);
                    let _ = std::thread::Builder::new()
                        .name(format!("chaos-pump-{conn}-{dir}"))
                        .spawn(move || pump(from, to, config, conn, dir, &counters));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Forwards one direction chunk by chunk, consulting the decision stream.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    config: ChaosConfig,
    conn: u64,
    dir: u8,
    counters: &Counters,
) {
    let mut buf = [0u8; 4096];
    let mut chunk = 0u64;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => {
                // Upstream EOF/reset: propagate as a clean half-close.
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
        };
        let action = config.action(conn, dir, chunk);
        chunk += 1;
        match action {
            ChaosAction::Forward => {
                if to.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
            ChaosAction::Split => {
                counters.splits.fetch_add(1, Ordering::Relaxed);
                let mid = (n / 2).max(1);
                if to.write_all(&buf[..mid]).is_err() {
                    return;
                }
                let _ = to.flush();
                std::thread::sleep(Duration::from_millis(1));
                if to.write_all(&buf[mid..n]).is_err() {
                    return;
                }
            }
            ChaosAction::Stall => {
                counters.stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(config.stall);
                if to.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
            ChaosAction::Drop => {
                counters.drops.fetch_add(1, Ordering::Relaxed);
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
            ChaosAction::HalfClose => {
                counters.half_closes.fetch_add(1, Ordering::Relaxed);
                let _ = to.write_all(&buf[..n]);
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn decision_streams_are_seed_deterministic() {
        let a = ChaosConfig {
            seed: 7,
            ..ChaosConfig::default()
        };
        let b = ChaosConfig {
            seed: 7,
            ..ChaosConfig::default()
        };
        let stream =
            |c: &ChaosConfig| -> Vec<ChaosAction> { (0..512).map(|i| c.action(3, 1, i)).collect() };
        assert_eq!(stream(&a), stream(&b), "same seed, same decisions");
        let c = ChaosConfig {
            seed: 8,
            ..ChaosConfig::default()
        };
        assert_ne!(stream(&a), stream(&c), "seeds decorrelate");
        // The quiet mix never injects.
        assert!((0..512).all(|i| ChaosConfig::quiet(7).action(0, 0, i) == ChaosAction::Forward));
    }

    #[test]
    fn rates_partition_the_roll_space() {
        let config = ChaosConfig {
            seed: 11,
            drop_per_mille: 100,
            stall_per_mille: 100,
            half_close_per_mille: 100,
            split_per_mille: 100,
            stall: Duration::ZERO,
        };
        let mut seen = std::collections::HashMap::new();
        for i in 0..10_000u64 {
            *seen.entry(config.action(0, 0, i)).or_insert(0u64) += 1;
        }
        // Each 10% band should land within a loose tolerance of 1000 draws.
        for action in [
            ChaosAction::Drop,
            ChaosAction::Stall,
            ChaosAction::HalfClose,
            ChaosAction::Split,
        ] {
            let count = seen.get(&action).copied().unwrap_or(0);
            assert!(
                (600..1400).contains(&count),
                "{action:?} drawn {count} times in 10k"
            );
        }
        assert!(seen[&ChaosAction::Forward] > 5000);
    }

    /// An end-to-end echo through a quiet proxy: bytes survive untouched.
    #[test]
    fn quiet_proxy_is_transparent() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (stream, _) = upstream.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut stream = stream;
            stream.write_all(line.as_bytes()).unwrap();
        });
        let proxy = ChaosProxy::start(upstream_addr, ChaosConfig::quiet(1)).unwrap();
        let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.write_all(b"hello through the fog\n").unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "hello through the fog\n");
        assert_eq!(proxy.counters().connections, 1);
        echo.join().unwrap();
        proxy.stop();
    }
}
