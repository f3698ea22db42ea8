//! `hbc-serve`: a dependency-free simulation service.
//!
//! The figure binaries answer one question per process run; this crate
//! turns the same experiment drivers into a long-lived service that many
//! clients can query concurrently:
//!
//! * [`json`] / [`spec`] — a hand-rolled JSON codec and the validated
//!   request specs it carries, with a *canonical* rendering that makes
//!   "same experiment" a syntactic property;
//! * [`hash`] / [`cache`] — SHA-256 content addressing over canonical
//!   specs, an in-memory LRU, and on-disk persistence under
//!   `results/cache/`, so identical requests never re-simulate;
//! * [`http`] / [`frontend`] — a std-only HTTP/1.1 front end on
//!   `TcpListener`, generic over a [`frontend::Backend`]: a fixed handler
//!   pool, a bounded admission queue (429 on overload), per-request
//!   timeouts, graceful drain (503), the shared routes and the shared
//!   Prometheus families. The `hbc-cluster` coordinator runs the same
//!   front end over its routing backend;
//! * [`server`] — the [`server::LocalBackend`] (result cache,
//!   single-flight coalescing of concurrent identical requests, and the
//!   simulation drivers) behind that front end, and the one local run
//!   path the `hbc-cluster` worker shares;
//! * [`metrics`] — request/cache/queue/latency counters and per-stage
//!   quantiles in the Prometheus text format at `GET /metrics` (legacy
//!   `hbc-probe` registry JSON at `GET /metrics.json`);
//! * [`spans`] — request-scoped span tracing across the whole request
//!   lifecycle, exported as JSON lines at `GET /trace`;
//! * [`client`] — the reusable blocking HTTP client (separate connect and
//!   I/O timeouts, typed [`client::ClientError`]) shared by the `hbc-load`
//!   generator, the `hbc-cluster` coordinator tooling, and the end-to-end
//!   tests.
//!
//! The serving contract is *bit-identity*: a figure fetched through the
//! service equals the corresponding figure binary's standard output
//! byte for byte, whether it was simulated for this request, coalesced
//! onto a concurrent identical one, or replayed from the result cache
//! (`tests/serve_e2e.rs` proves all three).
//!
//! # Example
//!
//! ```no_run
//! use hbc_serve::server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! println!("listening on http://{}", server.addr());
//! server.join(); // serves until a client POSTs /shutdown
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod frontend;
pub mod hash;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod spans;
pub mod spec;

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// A service must not let one poisoned lock wedge every later request:
/// all shared state guarded here and in `hbc-cluster` (cache LRU, metrics
/// histograms, admission queue, in-flight windows, connection registry)
/// stays internally consistent under panic because each critical section
/// completes its writes before leaving, so continuing with the inner
/// value is sound.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}
