//! Readiness-driven TCP transport: the C10K event loop.
//!
//! The transport is a reactor rather than thread-per-connection:
//! sockets are nonblocking, readiness comes from a pluggable
//! [`Poller`], and a *fixed* worker pool drives every connection's
//! read/decode/match/write state machine. The broker's thread count and per-connection memory are
//! decided at spawn time and stay flat as connections grow from tens to
//! tens of thousands; the client side packs any number of connections
//! onto a single reactor thread.
//!
//! Layout:
//!
//! * `poller` — the [`Poller`] trait, the zero-`unsafe` [`ScanPoller`]
//!   default backend, and the [`PollWaker`] cross-thread wakeup.
//! * `conn` — per-connection state: bounded outbound queue, resumable
//!   coalesced-write cursor, incremental frame parser.
//! * `worker` — the broker worker loop (one thread, many connections).
//! * `broker` — dispatcher + acceptor + pool assembly; public
//!   [`TcpBroker`] handle.
//! * `client` — [`ClientReactor`] (one thread, many client
//!   connections) and the drop-in [`TcpClient`].
//!
//! See DESIGN.md §15 for the architecture walk-through and the
//! `connection_scaling` bench for the measured flat-thread/flat-memory
//! behaviour.

mod broker;
mod client;
mod conn;
mod poller;
mod worker;

pub use broker::{spawn_broker, spawn_broker_durable, spawn_broker_with, TcpBroker, MAX_WORKERS};
pub use client::{ClientReactor, ReactorClient, TcpClient};
pub use poller::{PollWaker, Poller, ScanPoller};
