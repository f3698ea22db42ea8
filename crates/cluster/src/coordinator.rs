//! The cluster coordinator: the shared `hbc-serve` HTTP
//! [`frontend`](hbc_serve::frontend) (families named `cluster_*`) in
//! front of a `ClusterBackend` that forwards `POST /run` to worker
//! processes over the binary wire protocol.
//!
//! Routing is rendezvous hashing ([`crate::ring`]) on the canonical spec
//! hash, so one spec always lands on the same worker while that worker is
//! up and its cache shard stays hot. Each forward opens a one-shot
//! connection, bounded by a per-worker in-flight window.
//!
//! * **Dead worker** — a connect failure, a failed write, or a reply cut
//!   short (`Closed`, `Truncated`, a reset) demotes the worker and fails
//!   over to the next candidate. `wire_timeout` bounds only the connect
//!   and the write. The prober revives workers that answer `Health`.
//! * **Slow worker** — once the `Run` frame is written, the reply is
//!   awaited until the request deadline: a worker still simulating then
//!   yields `504`, and is neither demoted nor retried.
//! * **Worker-reported errors** (`RunErr`) are forwarded verbatim and
//!   never retried: the stack is deterministic.
//! * **Exhausted candidates** answer `502`.
//!
//! Drain is the front end's; workers are separate processes with their
//! own drain and are left running.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hbc_probe::{Histogram, Stage};
use hbc_serve::frontend::{
    Backend, Frontend, FrontendConfig, FrontendHandle, RunReply, Served, SpanCtx,
};
use hbc_serve::json::Json;
use hbc_serve::lock;
use hbc_serve::metrics::{write_family, write_summary, AtomicCounter, Metrics};
use hbc_serve::spans::ServeSpans;
use hbc_serve::spec::RunRequest;

use crate::ring;
use crate::wire::{self, Msg, TraceCtx, WireError};

/// Coordinator construction parameters.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker addresses (`host:port`), the rendezvous membership. Order
    /// does not matter — routing depends only on the set.
    pub workers: Vec<String>,
    /// Handler threads serving the admission queue.
    pub handlers: usize,
    /// Bounded admission-queue capacity; connections beyond it get `429`.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from accept, spanning every
    /// failover attempt and the wait for a worker's reply.
    pub request_timeout: Duration,
    /// Per-attempt budget for connecting to a worker and writing the
    /// request to it, clamped to the remaining request deadline. The reply
    /// is awaited until the request deadline.
    pub wire_timeout: Duration,
    /// Per-worker bound on concurrently forwarded requests.
    pub window: usize,
    /// Background health-probe period.
    pub probe_interval: Duration,
    /// Most recent spans retained for `GET /trace`.
    pub span_capacity: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: Vec::new(),
            handlers: 4,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(600),
            wire_timeout: Duration::from_secs(120),
            window: 32,
            probe_interval: Duration::from_secs(2),
            span_capacity: 4096,
        }
    }
}

/// Coordinator-side view of one worker: health, the in-flight window,
/// and per-shard counters.
#[derive(Default)]
struct Target {
    addr: String,
    healthy: AtomicBool,
    in_flight: Mutex<usize>,
    window_cv: Condvar,
    forwarded: AtomicCounter,
    failures: AtomicCounter,
    hits_memory: AtomicCounter,
    hits_disk: AtomicCounter,
    misses: AtomicCounter,
    latency_micros: Mutex<Histogram>,
}

impl Target {
    fn new(addr: String) -> Self {
        Target { addr, healthy: AtomicBool::new(true), ..Target::default() }
    }

    /// Claims one in-flight slot, waiting until `deadline` if the window
    /// is full. `false` means the deadline passed first.
    fn acquire(&self, window: usize, deadline: Instant) -> bool {
        let count = lock(&self.in_flight);
        let left = deadline.saturating_duration_since(Instant::now());
        let waited = self.window_cv.wait_timeout_while(count, left, |count| *count >= window);
        let (mut count, _) = waited.unwrap_or_else(PoisonError::into_inner);
        if *count >= window {
            return false;
        }
        *count += 1;
        true
    }

    fn release(&self) {
        let mut count = lock(&self.in_flight);
        *count = count.saturating_sub(1);
        drop(count);
        self.window_cv.notify_one();
    }

    /// Marks the worker dead after a transport failure.
    fn demote(&self) {
        self.failures.inc();
        self.healthy.store(false, Ordering::SeqCst);
    }
}

/// A per-worker metric family: name, kind, help, and each worker's value.
type WorkerFamily = (&'static str, &'static str, &'static str, fn(&Target) -> u64);

/// The routing backend: rendezvous plan, in-flight windows, forward,
/// failover, and the health prober's state. Cloning shares all of it.
#[derive(Clone)]
pub(crate) struct ClusterBackend {
    inner: Arc<Cluster>,
}

#[derive(Default)]
struct Cluster {
    targets: Vec<Target>,
    worker_names: Vec<String>,
    window: usize,
    wire_timeout: Duration,
    probe_interval: Duration,
    failovers: AtomicCounter,
    retries_exhausted: AtomicCounter,
    /// Set by [`Coordinator::join`] to stop the prober.
    probe_stop: Mutex<bool>,
    probe_cv: Condvar,
}

impl ClusterBackend {
    fn new(config: &CoordinatorConfig) -> Self {
        ClusterBackend {
            inner: Arc::new(Cluster {
                targets: config.workers.iter().cloned().map(Target::new).collect(),
                worker_names: config.workers.clone(),
                window: config.window.max(1),
                wire_timeout: config.wire_timeout,
                probe_interval: config.probe_interval,
                ..Cluster::default()
            }),
        }
    }

    /// A budget for the best-effort control frames (`Health`, `Stats`,
    /// `Trace`).
    fn control_budget(&self) -> Duration {
        self.inner.wire_timeout.min(Duration::from_secs(2))
    }
}

/// A running coordinator. Lifecycle: [`Coordinator::bind`] → clients →
/// `POST /shutdown` (or [`CoordinatorHandle::shutdown`]) →
/// [`Coordinator::join`].
pub struct Coordinator {
    frontend: Frontend<ClusterBackend>,
    prober: JoinHandle<()>,
}

/// A cloneable reference to a running coordinator.
#[derive(Clone)]
pub struct CoordinatorHandle {
    frontend: FrontendHandle<ClusterBackend>,
}

impl Coordinator {
    /// Binds the listener and spawns the acceptor, handler pool, and
    /// health prober. Fails fast on an empty worker list.
    pub fn bind(config: CoordinatorConfig) -> io::Result<Coordinator> {
        if config.workers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a coordinator needs at least one worker address",
            ));
        }
        let backend = ClusterBackend::new(&config);
        let prober_backend = backend.clone();
        let front = FrontendConfig {
            addr: config.addr,
            handlers: config.handlers,
            queue_capacity: config.queue_capacity,
            request_timeout: config.request_timeout,
            span_capacity: config.span_capacity,
        };
        let frontend = Frontend::start(front, Arc::new(Metrics::default()), backend)?;
        let prober = std::thread::Builder::new()
            .name("hbc-cluster-prober".to_string())
            .spawn(move || probe_loop(&prober_backend))?;
        Ok(Coordinator { frontend, prober })
    }

    /// The bound address (the real port even when `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.frontend.addr()
    }

    /// A handle for shutdown and inspection.
    pub fn handle(&self) -> CoordinatorHandle {
        CoordinatorHandle { frontend: self.frontend.handle() }
    }

    /// Blocks until drain completes: handlers finish queued and in-flight
    /// requests, then the acceptor (which answered `503` meanwhile) and
    /// the prober exit.
    pub fn join(self) {
        let cluster = Arc::clone(&self.frontend.handle().backend().inner);
        self.frontend.join();
        *lock(&cluster.probe_stop) = true;
        cluster.probe_cv.notify_all();
        let _ = self.prober.join();
    }
}

impl CoordinatorHandle {
    /// Requests graceful drain: in-flight and queued requests finish, new
    /// connections get `503`.
    pub fn shutdown(&self) {
        self.frontend.shutdown();
    }

    /// Health flags by worker address, in configured order.
    pub fn worker_health(&self) -> Vec<(String, bool)> {
        let cluster = &self.frontend.backend().inner;
        cluster.targets.iter().map(|t| (t.addr.clone(), t.healthy.load(Ordering::SeqCst))).collect()
    }

    /// Total requests forwarded to workers (all attempts that got an
    /// answer).
    pub fn forwarded(&self) -> u64 {
        self.frontend.backend().inner.targets.iter().map(|t| t.forwarded.get()).sum()
    }

    /// Failovers: attempts abandoned on one worker and retried on the
    /// next rendezvous candidate.
    pub fn failovers(&self) -> u64 {
        self.frontend.backend().inner.failovers.get()
    }
}

/// Background health prober: one `Health` frame per worker per period.
/// A worker that answers (and is not itself draining) is revived; one
/// that refuses or stalls is demoted.
fn probe_loop(backend: &ClusterBackend) {
    let cluster = &backend.inner;
    let timeout = backend.control_budget();
    loop {
        for target in &cluster.targets {
            let alive = matches!(
                wire::exchange(&target.addr, &Msg::Health, timeout),
                Ok(Msg::HealthOk { draining: false, .. })
            );
            target.healthy.store(alive, Ordering::SeqCst);
        }
        let stop = lock(&cluster.probe_stop);
        let (stop, _) = cluster
            .probe_cv
            .wait_timeout_while(stop, cluster.probe_interval, |stop| !*stop)
            .unwrap_or_else(PoisonError::into_inner);
        if *stop {
            return;
        }
    }
}

/// The `504` answer for a request whose deadline passed first.
fn deadline_passed() -> (u16, String) {
    (504, "request deadline passed before any worker answered".to_string())
}

/// How one `Run` forward ended.
enum Forwarded {
    /// The worker answered (well-framed, though maybe nonsensical).
    Reply(Msg),
    /// Connect or write failed, or the reply was cut short.
    Dead,
    /// The deadline passed first, typically with the frame taken by a
    /// worker that is still simulating: slow, not dead.
    TimedOut,
}

/// Forwards one `Run` frame: connect and write within `wire_timeout`,
/// then wait for the reply until `deadline`.
fn forward_run(addr: &str, msg: &Msg, wire_timeout: Duration, deadline: Instant) -> Forwarded {
    let budget = wire_timeout.min(deadline.saturating_duration_since(Instant::now()));
    if budget.is_zero() {
        return Forwarded::TimedOut;
    }
    let Ok(mut stream) = wire::send(addr, msg, budget) else { return Forwarded::Dead };
    let wait = deadline.saturating_duration_since(Instant::now());
    if wait.is_zero() {
        return Forwarded::TimedOut;
    }
    if stream.set_read_timeout(Some(wait)).is_err() {
        return Forwarded::Dead;
    }
    match wire::read_msg(&mut stream) {
        Ok(reply) => Forwarded::Reply(reply),
        Err(WireError::Io(e))
            if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
        {
            Forwarded::TimedOut
        }
        Err(_) => Forwarded::Dead,
    }
}

/// `GET /cluster`: topology and live per-worker stats (best-effort wire
/// `Stats` probes with a short budget).
fn cluster_body(backend: &ClusterBackend, draining: bool) -> String {
    let cluster = &backend.inner;
    let mut workers = Vec::new();
    for target in &cluster.targets {
        let mut obj = BTreeMap::new();
        obj.insert("addr".to_string(), Json::Str(target.addr.clone()));
        obj.insert("healthy".to_string(), Json::Bool(target.healthy.load(Ordering::SeqCst)));
        obj.insert("forwarded".to_string(), Json::U64(target.forwarded.get()));
        obj.insert("failures".to_string(), Json::U64(target.failures.get()));
        if let Ok(Msg::StatsOk { pairs }) =
            wire::exchange(&target.addr, &Msg::Stats, backend.control_budget())
        {
            let stats = pairs.into_iter().map(|(name, value)| (name, Json::U64(value))).collect();
            obj.insert("stats".to_string(), Json::Obj(stats));
        }
        workers.push(Json::Obj(obj));
    }
    let mut obj = BTreeMap::new();
    obj.insert("draining".to_string(), Json::Bool(draining));
    obj.insert("failovers".to_string(), Json::U64(cluster.failovers.get()));
    obj.insert("workers".to_string(), Json::Arr(workers));
    Json::Obj(obj).render()
}

/// `GET /trace?federated=1`: the coordinator's own span ring plus every
/// healthy worker's, pulled over `Trace` frames and merged into one
/// JSONL stream. Each source opens with a meta line carrying its drop
/// accounting (`{"trace_meta":1,"node":…,"dropped":…,"retained":…}`), so
/// a truncated ring is visible in the merge instead of silently reading
/// as a complete trace. The bare `GET /trace` body is unchanged.
fn federated_trace_body(backend: &ClusterBackend, spans: &ServeSpans) -> String {
    let mut out = String::new();
    push_trace_source(&mut out, "coordinator", spans.log().dropped(), &spans.to_jsonl());
    for target in &backend.inner.targets {
        if !target.healthy.load(Ordering::SeqCst) {
            continue;
        }
        if let Ok(Msg::TraceOk { worker_id, dropped, jsonl }) =
            wire::exchange(&target.addr, &Msg::Trace, backend.control_budget())
        {
            push_trace_source(&mut out, &worker_id, dropped, &jsonl);
        }
    }
    out
}

fn push_trace_source(out: &mut String, node: &str, dropped: u64, jsonl: &str) {
    use std::fmt::Write as _;
    let retained = jsonl.lines().count();
    let _ = writeln!(
        out,
        "{{\"trace_meta\":1,\"node\":\"{node}\",\"dropped\":{dropped},\"retained\":{retained}}}"
    );
    out.push_str(jsonl);
}

impl Backend for ClusterBackend {
    const PREFIX: &'static str = "cluster";
    const PATHS: &'static [&'static str] = &["/cluster"];

    /// Routes and forwards one validated `POST /run`, with failover. The
    /// *original* spec text is what gets forwarded — the worker derives
    /// the identical canonical form and cache key.
    fn run(&self, spec: &str, run: RunRequest, trace: SpanCtx<'_>, deadline: Instant) -> RunReply {
        let cluster = &self.inner;
        let spans = trace.spans;
        let hash = run.spec_hash();

        let route_start_us = spans.now_us();
        let order = ring::candidates(&hash, &cluster.worker_names);
        // Healthy candidates first (rendezvous order preserved), then the
        // unhealthy rest as a last resort — the prober's view may be stale,
        // and trying a dead worker only costs one fast connect failure.
        let healthy = |i: &&usize| cluster.targets[**i].healthy.load(Ordering::SeqCst);
        let mut plan: Vec<usize> = order.iter().filter(healthy).copied().collect();
        plan.extend(order.iter().filter(|i| !healthy(i)));
        spans.record_at(
            Stage::ClusterRoute,
            trace.request,
            trace.parent,
            route_start_us,
            spans.now_us(),
        );

        for (attempt, &index) in plan.iter().enumerate() {
            let target = &cluster.targets[index];
            if Instant::now() >= deadline || !target.acquire(cluster.window, deadline) {
                break;
            }
            if attempt > 0 {
                cluster.failovers.inc();
            }
            // The forward span's ID is allocated before the exchange so it
            // can ride in the wire trace context: the worker records its
            // spans under this request ID, parented on this span, and the
            // federated trace stitches into one tree. Each failover attempt
            // gets its own forward span.
            let forward_span = spans.alloc_span();
            let ctx = Some(TraceCtx { request: trace.request, parent: forward_span });
            let forward_start_us = spans.now_us();
            let forward_start = Instant::now();
            let run_msg = Msg::Run { spec_json: spec.to_string(), trace: ctx };
            let outcome = forward_run(&target.addr, &run_msg, cluster.wire_timeout, deadline);
            let micros = u64::try_from(forward_start.elapsed().as_micros()).unwrap_or(u64::MAX);
            spans.record_linked(
                Stage::ClusterForward,
                forward_span,
                trace.request,
                trace.parent,
                forward_start_us,
                spans.now_us(),
            );
            target.release();
            match outcome {
                Forwarded::Reply(Msg::RunOk { cache, spec_hash, body }) => {
                    target.forwarded.inc();
                    lock(&target.latency_micros).record(micros);
                    match cache.as_str() {
                        "hit-memory" => target.hits_memory.inc(),
                        "hit-disk" => target.hits_disk.inc(),
                        _ => target.misses.inc(),
                    }
                    let worker = Some(target.addr.clone());
                    return Ok(Served { cache, spec_hash, worker, body });
                }
                Forwarded::Reply(Msg::RunErr { status, message }) => {
                    // The worker answered: the stack is deterministic, so a
                    // retry elsewhere would fail identically. Forward as-is.
                    target.forwarded.inc();
                    lock(&target.latency_micros).record(micros);
                    let status = if (400..=599).contains(&status) { status } else { 500 };
                    return Err((status, message));
                }
                // The worker took the request and is still working on it:
                // no retry elsewhere can beat the deadline.
                Forwarded::TimedOut => return Err(deadline_passed()),
                // A well-framed but nonsensical reply, or a dead transport:
                // demote the worker and fail over.
                Forwarded::Reply(_) | Forwarded::Dead => target.demote(),
            }
        }

        if Instant::now() >= deadline {
            Err(deadline_passed())
        } else {
            cluster.retries_exhausted.inc();
            Err((502, "no worker answered this request; every rendezvous candidate failed".into()))
        }
    }

    fn get(
        &self,
        path: &str,
        query: &str,
        spans: &ServeSpans,
        draining: bool,
    ) -> Option<(&'static str, String)> {
        match path {
            "/cluster" => Some(("application/json", cluster_body(self, draining))),
            "/trace" if query.split('&').any(|pair| pair == "federated=1") => {
                Some(("application/x-ndjson", federated_trace_body(self, spans)))
            }
            _ => None,
        }
    }

    fn write_metrics(&self, out: &mut String) {
        use std::fmt::Write as _;
        let cluster = &self.inner;
        let per_worker: [WorkerFamily; 4] = [
            (
                "cluster_forwarded_total",
                "counter",
                "Requests answered by each worker (RunOk or RunErr).",
                |t| t.forwarded.get(),
            ),
            (
                "cluster_worker_failures_total",
                "counter",
                "Transport failures per worker (connect refused, failed write, severed frame).",
                |t| t.failures.get(),
            ),
            (
                "cluster_worker_healthy",
                "gauge",
                "1 if the worker's last health probe (or forward) succeeded.",
                |t| u64::from(t.healthy.load(Ordering::SeqCst)),
            ),
            (
                "cluster_shard_misses_total",
                "counter",
                "Worker-reported cache misses (a simulation ran on that shard).",
                |t| t.misses.get(),
            ),
        ];
        for (name, kind, help, value) in per_worker {
            write_family(out, name, kind, help);
            for t in &cluster.targets {
                let _ = writeln!(out, "{name}{{worker=\"{}\"}} {}", t.addr, value(t));
            }
        }
        write_family(
            out,
            "cluster_shard_hits_total",
            "counter",
            "Worker-reported cache hits by shard and serving tier.",
        );
        for t in &cluster.targets {
            for (tier, counter) in [("memory", &t.hits_memory), ("disk", &t.hits_disk)] {
                let (addr, hits) = (&t.addr, counter.get());
                let _ = writeln!(
                    out,
                    "cluster_shard_hits_total{{worker=\"{addr}\",tier=\"{tier}\"}} {hits}"
                );
            }
        }
        for (name, help, counter) in [
            (
                "cluster_failovers_total",
                "Attempts abandoned on one worker and retried on the next rendezvous candidate.",
                &cluster.failovers,
            ),
            (
                "cluster_retries_exhausted_total",
                "Requests answered 502 after every rendezvous candidate failed.",
                &cluster.retries_exhausted,
            ),
        ] {
            write_family(out, name, "counter", help);
            let _ = writeln!(out, "{name} {}", counter.get());
        }
        let latency = "cluster_worker_latency_microseconds";
        write_family(
            out,
            latency,
            "summary",
            "Forward round-trip latency per worker (connect to reply read).",
        );
        for t in &cluster.targets {
            let h = lock(&t.latency_micros).clone();
            write_summary(out, latency, &format!("worker=\"{}\"", t.addr), &h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbc_serve::frontend::render_metrics;
    use hbc_serve::metrics::parse_prometheus;

    #[test]
    fn empty_worker_list_is_rejected_at_bind() {
        let err = Coordinator::bind(CoordinatorConfig::default())
            .err()
            .expect("bind must fail without workers");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn prometheus_rendering_is_strictly_parseable() {
        let config = CoordinatorConfig {
            workers: vec!["127.0.0.1:9101".to_string(), "127.0.0.1:9102".to_string()],
            ..CoordinatorConfig::default()
        };
        let backend = ClusterBackend::new(&config);
        let metrics = Metrics::default();
        let spans = ServeSpans::new(8);
        metrics.requests.inc();
        backend.inner.targets[0].forwarded.inc();
        backend.inner.targets[1].healthy.store(false, Ordering::SeqCst);
        spans.record_at(Stage::ClusterRoute, 1, 0, 0, 5);
        let text = render_metrics(&metrics, &spans, &backend);
        let samples = parse_prometheus(&text).expect("strict parse succeeds");
        let healthy: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == "cluster_worker_healthy")
            .map(|s| s.value)
            .collect();
        assert_eq!(healthy, [1.0, 0.0]);
        assert!(samples.iter().any(|s| s.name == "cluster_forwarded_total"
            && s.label("worker") == Some("127.0.0.1:9101")
            && s.value == 1.0));
        assert!(
            samples.iter().any(|s| s.name == "hbc_span_dropped_total" && s.value == 0.0),
            "span drop accounting must be exported"
        );
    }

    #[test]
    fn federated_trace_meta_lines_carry_drop_accounting() {
        let mut out = String::new();
        push_trace_source(&mut out, "coordinator", 0, "{\"request\":1}\n{\"request\":1}\n");
        push_trace_source(&mut out, "127.0.0.1:9101", 7, "");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "{\"trace_meta\":1,\"node\":\"coordinator\",\"dropped\":0,\"retained\":2}"
        );
        assert_eq!(
            lines[3],
            "{\"trace_meta\":1,\"node\":\"127.0.0.1:9101\",\"dropped\":7,\"retained\":0}"
        );
        for line in &lines {
            Json::parse(line).expect("every merged line is valid JSON");
        }
    }

    #[test]
    fn window_acquire_honours_the_deadline() {
        let target = Target::new("127.0.0.1:1".to_string());
        assert!(target.acquire(1, Instant::now() + Duration::from_secs(1)));
        // Window of 1 is now full; a second acquire must time out.
        let start = Instant::now();
        assert!(!target.acquire(1, Instant::now() + Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(25));
        target.release();
        assert!(target.acquire(1, Instant::now() + Duration::from_secs(1)));
    }
}
