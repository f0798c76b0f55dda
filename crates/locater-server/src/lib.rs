//! # locater-server — the network front door
//!
//! A std-only (`std::net`) TCP server exposing a live
//! [`ShardedLocaterService`](locater_core::system::ShardedLocaterService) over
//! the NDJSON wire protocol defined in [`locater_proto`]: one
//! [`WireRequest`](locater_proto::WireRequest) per line in, one
//! [`WireResponse`](locater_proto::WireResponse) per line out, in request
//! order, with pipelining.
//!
//! The crate has two layers:
//!
//! * [`ServerState`] — the transport-independent executor: it owns the
//!   service plus the serving-layer counters and maps every request variant
//!   to a response. The stdin REPL in `locater-cli serve` runs this executor
//!   directly and prints the same frames; the TCP server runs it on each
//!   connection's thread. One protocol, one executor, N transports.
//! * [`Server`] — the socket machinery: an accept thread and one thread per
//!   connection that reads a request, executes it under one of
//!   [`ServerConfig::workers`] execution permits and writes the answer, so a
//!   connection's responses are in request order by construction. Admission
//!   control rejects work beyond [`ServerConfig::admission_limit`] with an
//!   explicit `overloaded` response (backpressure, not silent drops), idle
//!   connections time out, and a `shutdown` request or SIGTERM
//!   ([`install_sigterm_drain`]) triggers a graceful drain that finishes
//!   admitted work, writes the configured drain snapshot, and resolves
//!   [`Server::join`] with a [`ServerReport`].
//!
//! ```no_run
//! use locater_core::system::{LocaterConfig, ShardedLocaterService};
//! use locater_server::{Server, ServerConfig, ServerState};
//! use locater_space::SpaceBuilder;
//! use locater_store::EventStore;
//! use std::sync::Arc;
//!
//! let space = SpaceBuilder::new("demo")
//!     .add_access_point("wap1", &["101"])
//!     .build()
//!     .unwrap();
//! let service = ShardedLocaterService::new(EventStore::new(space), LocaterConfig::default(), 4);
//! let state = Arc::new(ServerState::new(service, None));
//! let server = Server::bind(state, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr());
//! let report = server.join(); // blocks until a graceful drain
//! println!("served {} requests", report.requests_served);
//! ```

mod exec;
mod server;

pub use exec::{DrainSummary, ServerState};
#[cfg(unix)]
pub use server::install_sigterm_drain;
pub use server::{Server, ServerConfig, ServerReport};
