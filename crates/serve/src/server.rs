//! The simulation server: the shared HTTP [`frontend`](crate::frontend)
//! in front of a [`LocalBackend`] — the result cache, single-flight
//! execution, and the simulation drivers.
//!
//! * **Timeouts** — a simulation that misses the request deadline gets a
//!   `504`, while its runner thread finishes into the result cache, so a
//!   retry is a hit.
//! * **Single-flight** — concurrent identical requests coalesce onto one
//!   simulation and serve the same bytes. `serve.exec.runs` counts real
//!   simulations only.
//! * **One run path** — the `hbc-cluster` worker answers its `Run` frames
//!   through the same backend, with no deadline of its own
//!   ([`LocalBackend::run_to_completion`]).

use std::collections::btree_map::{BTreeMap, Entry};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::cache::{ResultCache, Tier};
use crate::frontend::{
    Backend, Frontend, FrontendConfig, FrontendHandle, RunReply, Served, SpanCtx,
};
use crate::lock;
use crate::metrics::Metrics;
use crate::spans::ServeSpans;
use crate::spec::RunRequest;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads serving requests. `0` is permitted (nothing drains
    /// the queue — used by overload tests); the CLI requires ≥ 1.
    pub workers: usize,
    /// Bounded admission-queue capacity; connections beyond it get `429`.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from accept. A simulation that
    /// misses it returns `504` (and keeps running into the cache).
    pub request_timeout: Duration,
    /// Upper bound on the per-request `jobs` field (worker threads inside
    /// the `hbc-exec` engine). Requests asking for more are clamped.
    pub max_jobs: usize,
    /// Result-cache directory; `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// In-memory result-cache entries.
    pub cache_entries: usize,
    /// Most recent spans retained for `GET /trace`.
    pub span_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(600),
            max_jobs: 8,
            cache_dir: Some(PathBuf::from("results/cache")),
            cache_entries: 64,
            span_capacity: 4096,
        }
    }
}

/// How one in-flight simulation ended.
#[derive(Debug, Clone)]
enum FlightState {
    Running,
    Done(String),
    Failed(String),
}

/// A single-flight slot: the leader executes, followers wait here.
#[derive(Debug)]
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

/// Outcome of waiting on a [`Flight`].
enum FlightWait {
    Done(String),
    Failed(String),
    TimedOut,
}

impl Flight {
    fn new() -> Self {
        Flight { state: Mutex::new(FlightState::Running), cv: Condvar::new() }
    }

    fn finish(&self, state: FlightState) {
        *lock(&self.state) = state;
        self.cv.notify_all();
    }

    /// Waits for the flight to land, until `deadline` if there is one.
    fn wait(&self, deadline: Option<Instant>) -> FlightWait {
        let running = |state: &mut FlightState| matches!(state, FlightState::Running);
        let guard = lock(&self.state);
        let state = match deadline {
            None => self.cv.wait_while(guard, running).unwrap_or_else(PoisonError::into_inner),
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                let waited = self.cv.wait_timeout_while(guard, left, running);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
        };
        match &*state {
            FlightState::Done(body) => FlightWait::Done(body.clone()),
            FlightState::Failed(msg) => FlightWait::Failed(msg.clone()),
            FlightState::Running => FlightWait::TimedOut,
        }
    }
}

/// The local run path: result cache, single-flight, and `execute`.
/// Cloning shares the same cache, flights and counters.
#[derive(Clone)]
pub struct LocalBackend {
    inner: Arc<Local>,
}

struct Local {
    max_jobs: usize,
    cache: ResultCache,
    metrics: Arc<Metrics>,
    in_flight: Mutex<BTreeMap<String, Arc<Flight>>>,
}

/// A request that missed the cache: the flight to wait on, what the reply
/// will say once it lands, and, for the leader, the simulation to run.
struct Pending {
    flight: Arc<Flight>,
    cache_label: &'static str,
    hash: String,
    lead: Option<Box<Lead>>,
}

impl Pending {
    /// Waits for the flight (until `deadline`, if any) and answers it.
    fn wait(self, deadline: Option<Instant>) -> RunReply {
        match self.flight.wait(deadline) {
            FlightWait::Done(body) => Ok(Served {
                cache: self.cache_label.to_string(),
                spec_hash: self.hash,
                worker: None,
                body,
            }),
            FlightWait::Failed(message) => Err((500, message)),
            FlightWait::TimedOut => Err((
                504,
                "simulation exceeded the request timeout; it continues into the result cache — \
                 retry to fetch it"
                    .to_string(),
            )),
        }
    }
}

/// The leader's side of a flight: the simulation to run, and the request
/// and parent span its `serve.simulate` span joins.
struct Lead {
    run: RunRequest,
    canonical: String,
    hash: String,
    flight: Arc<Flight>,
    request: u64,
    parent: u64,
}

impl Lead {
    /// Runs the simulation under `catch_unwind`, puts the body in the
    /// cache, and lands the flight for every waiter.
    fn fly(self, local: &Local, spans: &ServeSpans) {
        local.metrics.exec_runs.inc();
        let sim_start_us = spans.now_us();
        let result = catch_unwind(AssertUnwindSafe(|| self.run.execute()));
        // The simulate span carries the leader's request ID; coalesced
        // followers share this one simulation, so their traces show a
        // single-flight wait instead.
        spans.record_at("serve.simulate", self.request, self.parent, sim_start_us, spans.now_us());
        let hash = &self.hash;
        let state = match result {
            Ok(body) => {
                if let Err(e) = local.cache.put(hash, &self.canonical, &body) {
                    eprintln!("hbc-serve: persisting cache entry {hash} failed: {e}");
                }
                FlightState::Done(body)
            }
            Err(_) => {
                FlightState::Failed(format!("simulation for spec {hash} panicked; see server logs"))
            }
        };
        lock(&local.in_flight).remove(hash);
        self.flight.finish(state);
    }
}

impl LocalBackend {
    /// A backend whose result cache persists under `cache_dir` (memory
    /// only when `None`) and keeps `cache_entries` in memory, clamping
    /// each request's `jobs` to `max_jobs`.
    pub fn new(cache_dir: Option<PathBuf>, cache_entries: usize, max_jobs: usize) -> Self {
        let cache = match cache_dir {
            Some(dir) => ResultCache::new(dir, cache_entries),
            None => ResultCache::in_memory(cache_entries),
        };
        let metrics = Arc::new(Metrics::default());
        LocalBackend {
            inner: Arc::new(Local { max_jobs, cache, metrics, in_flight: Mutex::default() }),
        }
    }

    /// The counters this backend updates.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// Serves one request with no deadline: a hit answers at once, a
    /// leader runs the simulation on the calling thread, and a follower
    /// waits for the leader's flight however long it takes.
    pub fn run_to_completion(&self, run: RunRequest, trace: SpanCtx<'_>) -> RunReply {
        self.begin(run, trace).or_else(|mut pending| {
            if let Some(lead) = pending.lead.take() {
                lead.fly(&self.inner, trace.spans);
            }
            pending.wait(None)
        })
    }

    /// Looks `run` up in the cache and answers a hit; on a miss, leads or
    /// joins the spec's flight.
    fn begin(&self, mut run: RunRequest, trace: SpanCtx<'_>) -> Result<Served, Pending> {
        let local = &self.inner;
        // `jobs` is execution-only (absent from the cache key); clamp it so a
        // request cannot commandeer the host.
        run.jobs = run.jobs.min(local.max_jobs);
        let hash = run.spec_hash();
        let canonical = run.canonical();

        let spans = trace.spans;
        let lookup_start_us = spans.now_us();
        let cached = local.cache.get(&hash, &canonical);
        let lookup_end_us = spans.now_us();
        spans.record_at(
            "serve.cache_lookup",
            trace.request,
            trace.parent,
            lookup_start_us,
            lookup_end_us,
        );
        if let Some((body, tier)) = cached {
            let (label, counter) = match tier {
                Tier::Memory => ("hit-memory", &local.metrics.cache_hits_memory),
                Tier::Disk => ("hit-disk", &local.metrics.cache_hits_disk),
            };
            counter.inc();
            return Ok(Served { cache: label.to_string(), spec_hash: hash, worker: None, body });
        }

        // Single-flight: the first requester for this hash leads and
        // executes; concurrent identical requests wait on the same flight.
        let (flight, leader) = match lock(&local.in_flight).entry(hash.clone()) {
            Entry::Occupied(slot) => (Arc::clone(slot.get()), false),
            Entry::Vacant(slot) => (Arc::clone(slot.insert(Arc::new(Flight::new()))), true),
        };
        if !leader {
            local.metrics.coalesced.inc();
            return Err(Pending { flight, cache_label: "coalesced", hash, lead: None });
        }
        local.metrics.cache_misses.inc();
        let lead = Lead {
            run,
            canonical,
            hash: hash.clone(),
            flight: Arc::clone(&flight),
            request: trace.request,
            parent: trace.parent,
        };
        Err(Pending { flight, cache_label: "miss", hash, lead: Some(Box::new(lead)) })
    }
}

impl Backend for LocalBackend {
    const PREFIX: &'static str = "serve";
    const PATHS: &'static [&'static str] = &["/metrics.json"];

    /// A leader's simulation runs on a detached runner thread, so a
    /// request that misses its deadline still lands its result in the
    /// cache and a retry is a hit.
    fn run(&self, _spec: &str, run: RunRequest, trace: SpanCtx<'_>, deadline: Instant) -> RunReply {
        self.begin(run, trace).or_else(|mut pending| {
            if let Some(lead) = pending.lead.take() {
                let (local, spans) = (Arc::clone(&self.inner), Arc::clone(trace.spans));
                let runner = std::thread::Builder::new().name("hbc-serve-runner".to_string());
                if let Err(e) = runner.spawn(move || lead.fly(&local, &spans)) {
                    lock(&self.inner.in_flight).remove(&pending.hash);
                    let failed = format!("cannot spawn runner thread: {e}");
                    pending.flight.finish(FlightState::Failed(failed));
                }
            }
            let spans = trace.spans;
            let wait_start_us = spans.now_us();
            let reply = pending.wait(Some(deadline));
            let wait_end_us = spans.now_us();
            spans.record_at(
                "serve.single_flight_wait",
                trace.request,
                trace.parent,
                wait_start_us,
                wait_end_us,
            );
            reply
        })
    }

    /// `GET /metrics.json`: the legacy registry snapshot — service
    /// counters plus the result cache's eviction count, rendered as
    /// deterministic `hbc-probe` JSON.
    fn get(&self, path: &str, _: &str, _: &ServeSpans, _: bool) -> Option<(&'static str, String)> {
        (path == "/metrics.json").then(|| {
            let mut reg = self.inner.metrics.to_registry();
            reg.counter("serve.cache.evictions").set(self.inner.cache.evictions());
            ("application/json", reg.to_json())
        })
    }

    fn write_metrics(&self, out: &mut String) {
        self.inner.metrics.write_cache_families(out, self.inner.cache.evictions());
    }
}

/// A running server: the front end over a [`LocalBackend`]. The usual
/// lifecycle is [`Server::bind`] → clients → `POST /shutdown` (or
/// [`ServerHandle::shutdown`]) → [`Server::join`].
pub type Server = Frontend<LocalBackend>;

/// A cloneable reference to a running server, for shutdown and metrics.
pub type ServerHandle = FrontendHandle<LocalBackend>;

impl Server {
    /// Binds the listener, spawns the acceptor and worker threads, and
    /// returns immediately.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let backend = LocalBackend::new(config.cache_dir, config.cache_entries, config.max_jobs);
        let front = FrontendConfig {
            addr: config.addr,
            handlers: config.workers,
            queue_capacity: config.queue_capacity,
            request_timeout: config.request_timeout,
            span_capacity: config.span_capacity,
        };
        Frontend::start(front, Arc::clone(backend.metrics()), backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_wait_times_out_and_completes() {
        let flight = Flight::new();
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        assert!(matches!(flight.wait(deadline), FlightWait::TimedOut));
        flight.finish(FlightState::Done("x".to_string()));
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        assert!(matches!(flight.wait(deadline), FlightWait::Done(b) if b == "x"));
    }
}
