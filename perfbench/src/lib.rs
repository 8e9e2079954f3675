//! Product-path benchmark for PSGuard: `Publisher::publish` →
//! `ReactorClient::publish` → reactor broker → `ReactorClient::recv_timeout`
//! → `Subscriber::decrypt`, over loopback sockets in one process.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod gen;
pub mod layers;
pub mod session;
pub mod stats;
pub mod trace;
