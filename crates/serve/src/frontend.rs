//! The HTTP front end shared by `hbc-serve` and the `hbc-cluster`
//! coordinator, generic over the [`Backend`] that answers `POST /run`.
//!
//! ```text
//!            accept           bounded queue           handler pool
//!  clients ─────────▶ acceptor ──────────────▶ handlers ── POST /run ──▶ Backend::run
//!                        │ queue full / draining    │
//!                        ▼                          └─ shared routes, Backend::get
//!                   429 / 503 response
//! ```
//!
//! A backend supplies only what differs between the services: how a
//! validated request runs, a few extra `GET` routes, its own metric
//! families, and the metric prefix (`serve` or `cluster`).
//!
//! * **Backpressure** — beyond [`FrontendConfig::queue_capacity`] queued
//!   connections the acceptor answers `429` at once.
//! * **Timeouts** — every request carries a deadline from accept; one that
//!   spent it in the queue gets `504`, and so does backend work that
//!   misses it.
//! * **Unread requests** — after an acceptor's `429` or `503` the unread
//!   request bytes are drained (so closing does not reset the response
//!   away) under one 500 ms deadline: a trickling client cannot stall the
//!   acceptor.
//! * **Drain** — `POST /shutdown` (or [`FrontendHandle::shutdown`]):
//!   handlers finish the queue and their in-flight responses, every new
//!   connection gets `503` until [`Frontend::join`], and a connection
//!   still queued then (only without handlers) gets `503` too.
//! * **Latency** — every response a handler writes records its
//!   end-to-end latency.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hbc_probe::Stage;

use crate::http::{self, HttpError, Request};
use crate::json::Json;
use crate::lock;
use crate::metrics::Metrics;
use crate::spans::ServeSpans;
use crate::spec::{ExperimentId, Preset, RunRequest};

/// The one budget for answering a connection whose request is never read.
const UNREAD_DRAIN: Duration = Duration::from_millis(500);

/// Where a backend's spans go: the sink, the request they belong to, and
/// the span they hang under (0 for a root span).
#[derive(Clone, Copy)]
pub struct SpanCtx<'a> {
    /// The span sink (shared with runner threads, hence the `Arc`).
    pub spans: &'a Arc<ServeSpans>,
    /// The request ID every span joins.
    pub request: u64,
    /// The parent span ID.
    pub parent: u64,
}

/// A backend's answer to one `POST /run`: a figure, or the status and
/// message of a JSON error envelope.
pub type RunReply = Result<Served, (u16, String)>;

/// A `200` figure body and its `X-…` headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Served {
    /// `X-Cache`: how the body was produced (`hit-memory`, `miss`, …).
    pub cache: String,
    /// `X-Spec-Hash`: the canonical spec hash.
    pub spec_hash: String,
    /// `X-Worker`: the cluster worker that answered, if any.
    pub worker: Option<String>,
    /// The figure body.
    pub body: String,
}

/// What sits behind the front end: a local simulation stack or a cluster.
pub trait Backend: Send + Sync + 'static {
    /// Prefix of the front end's metric families (`{PREFIX}_http_requests_total`, …).
    const PREFIX: &'static str;
    /// Paths [`get`](Self::get) answers besides the shared routes; any
    /// other method on them gets `405`.
    const PATHS: &'static [&'static str];

    /// Runs one validated `POST /run` before `deadline`. `spec` is the body
    /// as the client sent it; `run` is its validated form.
    fn run(&self, spec: &str, run: RunRequest, trace: SpanCtx<'_>, deadline: Instant) -> RunReply;

    /// Answers `GET path?query` with `(content type, body)`, or `None` to
    /// fall through to the shared routes. `spans` is the front end's sink;
    /// `draining` says whether drain has started.
    fn get(
        &self,
        path: &str,
        query: &str,
        spans: &ServeSpans,
        draining: bool,
    ) -> Option<(&'static str, String)>;

    /// Appends the backend's own families to the `GET /metrics` body.
    fn write_metrics(&self, out: &mut String);
}

/// Front-end construction parameters.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Handler threads serving the admission queue. `0` is permitted
    /// (nothing drains the queue — used by overload tests).
    pub handlers: usize,
    /// Bounded admission-queue capacity; connections beyond it get `429`.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from accept.
    pub request_timeout: Duration,
    /// Most recent spans retained for `GET /trace`.
    pub span_capacity: usize,
}

/// One accepted connection waiting for a handler.
struct QueuedConn {
    stream: TcpStream,
    accepted: Instant,
    /// The span-trace request ID allocated at accept.
    request_id: u64,
    /// When the connection entered the queue, on the span clock.
    queued_us: u64,
}

/// State shared by the acceptor, the handlers, and every handle.
struct Shared<B> {
    addr: SocketAddr,
    request_timeout: Duration,
    backend: B,
    metrics: Arc<Metrics>,
    spans: Arc<ServeSpans>,
    queue: Mutex<VecDeque<QueuedConn>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    /// Draining: handlers finish the queue, the acceptor answers `503`.
    /// Set under the queue lock, so no handler misses the wake-up.
    draining: AtomicBool,
    /// Fully stopped: the acceptor exits (set by `join`).
    stopped: AtomicBool,
}

/// A running front end. Lifecycle: [`Frontend::start`] → clients →
/// `POST /shutdown` (or [`FrontendHandle::shutdown`]) → [`Frontend::join`].
pub struct Frontend<B> {
    shared: Arc<Shared<B>>,
    acceptor: JoinHandle<()>,
    handlers: Vec<JoinHandle<()>>,
}

/// A cloneable reference to a running front end.
#[derive(Clone)]
pub struct FrontendHandle<B> {
    shared: Arc<Shared<B>>,
}

impl<B: Backend> Frontend<B> {
    /// Binds the listener, spawns the acceptor and handler threads, and
    /// returns immediately. `metrics` receives the front end's counters.
    pub fn start(config: FrontendConfig, metrics: Arc<Metrics>, backend: B) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let shared = Arc::new(Shared {
            addr: listener.local_addr()?,
            request_timeout: config.request_timeout,
            backend,
            metrics,
            spans: Arc::new(ServeSpans::new(config.span_capacity)),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity: config.queue_capacity,
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("hbc-{}-acceptor", B::PREFIX))
                .spawn(move || accept_loop(&shared, &listener))?
        };
        let mut handlers = Vec::with_capacity(config.handlers);
        for i in 0..config.handlers {
            let shared = Arc::clone(&shared);
            handlers.push(
                std::thread::Builder::new()
                    .name(format!("hbc-{}-handler-{i}", B::PREFIX))
                    .spawn(move || handler_loop(&shared))?,
            );
        }
        Ok(Frontend { shared, acceptor, handlers })
    }

    /// The bound address (the real port even when `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle for shutdown and inspection.
    pub fn handle(&self) -> FrontendHandle<B> {
        FrontendHandle { shared: Arc::clone(&self.shared) }
    }

    /// Blocks until drain completes: handlers finish queued and in-flight
    /// requests, then the acceptor (which answered `503` meanwhile) exits,
    /// and any connection still queued gets `503`.
    pub fn join(self) {
        for handler in self.handlers {
            let _ = handler.join();
        }
        // Handlers are gone; flip the acceptor from 503-mode to exit.
        self.shared.stopped.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.shared.addr, Duration::from_secs(1));
        let _ = self.acceptor.join();
        let leftovers: Vec<QueuedConn> = lock(&self.shared.queue).drain(..).collect();
        for conn in leftovers {
            self.shared.metrics.queue_pop();
            self.shared.metrics.responses_unavailable.inc();
            respond_without_reading(conn.stream, 503, "server is shutting down");
        }
    }
}

impl<B: Backend> FrontendHandle<B> {
    /// Starts drain: in-flight and queued requests finish, new
    /// connections get `503`.
    pub fn shutdown(&self) {
        initiate_drain(&self.shared);
    }

    /// The live front-end metrics.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The backend behind this front end.
    pub fn backend(&self) -> &B {
        &self.shared.backend
    }
}

/// The `GET /metrics` body: the front end's families under `B::PREFIX`
/// with the backend's families spliced in.
pub fn render_metrics<B: Backend>(metrics: &Metrics, spans: &ServeSpans, backend: &B) -> String {
    metrics.render_prometheus(B::PREFIX, spans.log().dropped(), &spans.stage_histograms(), |out| {
        backend.write_metrics(out);
    })
}

fn initiate_drain<B>(shared: &Shared<B>) {
    let queue = lock(&shared.queue);
    shared.draining.store(true, Ordering::SeqCst);
    drop(queue);
    shared.queue_cv.notify_all();
}

fn accept_loop<B: Backend>(shared: &Arc<Shared<B>>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.stopped.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let accept_start_us = shared.spans.now_us();
        let mut queue = lock(&shared.queue);
        if shared.draining.load(Ordering::SeqCst) {
            drop(queue);
            shared.metrics.responses_unavailable.inc();
            respond_without_reading(stream, 503, "server is draining");
            continue;
        }
        if queue.len() >= shared.queue_capacity {
            drop(queue);
            shared.metrics.responses_rejected.inc();
            respond_without_reading(stream, 429, "admission queue is full, retry later");
            continue;
        }
        let request_id = shared.spans.begin_request();
        let queued_us = shared.spans.now_us();
        queue.push_back(QueuedConn { stream, accepted: Instant::now(), request_id, queued_us });
        shared.metrics.queue_push();
        drop(queue);
        shared.spans.record_at(Stage::ServeAccept, request_id, 0, accept_start_us, queued_us);
        shared.queue_cv.notify_one();
    }
}

/// Writes an error response to a connection whose request was never read
/// (admission rejection, drain), then sinks the unread request bytes so
/// closing the socket does not reset the response away. Write and sink
/// share one [`UNREAD_DRAIN`] deadline.
fn respond_without_reading(mut stream: TcpStream, status: u16, message: &str) {
    let deadline = Instant::now() + UNREAD_DRAIN;
    let _ = stream.set_write_timeout(Some(UNREAD_DRAIN));
    let body = error_body(status, message);
    let mut sinking =
        http::write_response(&mut stream, status, "application/json", &[], body.as_bytes()).is_ok();
    let mut sink = [0u8; 512];
    while sinking {
        let left = deadline.saturating_duration_since(Instant::now());
        sinking = !left.is_zero()
            && stream.set_read_timeout(Some(left)).is_ok()
            && matches!(stream.read(&mut sink), Ok(n) if n > 0);
    }
}

fn handler_loop<B: Backend>(shared: &Arc<Shared<B>>) {
    loop {
        let idle = |queue: &mut VecDeque<QueuedConn>| {
            queue.is_empty() && !shared.draining.load(Ordering::SeqCst)
        };
        let queue = lock(&shared.queue);
        let mut queue =
            shared.queue_cv.wait_while(queue, idle).unwrap_or_else(PoisonError::into_inner);
        let Some(conn) = queue.pop_front() else { return };
        drop(queue);
        shared.metrics.queue_pop();
        handle_conn(shared, conn);
    }
}

/// JSON error envelope: `{"error":…,"status":…}`.
fn error_body(status: u16, message: &str) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("error".to_string(), Json::Str(message.to_string()));
    obj.insert("status".to_string(), Json::U64(u64::from(status)));
    Json::Obj(obj).render()
}

/// A handled request's answer: `200` with a content type, extra headers
/// and body, or the status and message of a JSON error envelope.
type Answer = Result<(&'static str, Vec<(&'static str, String)>, String), (u16, String)>;

/// The routes every front end answers, whatever its backend.
const SHARED_PATHS: &[&str] =
    &["/run", "/metrics", "/trace", "/healthz", "/experiments", "/shutdown"];

/// Reads, routes and answers one dequeued connection, with metrics
/// accounting by status, end-to-end latency, and lifecycle spans.
fn handle_conn<B: Backend>(shared: &Shared<B>, conn: QueuedConn) {
    let QueuedConn { mut stream, accepted, request_id, queued_us } = conn;
    let spans = &shared.spans;
    spans.record_at(Stage::ServeQueueWait, request_id, 0, queued_us, spans.now_us());
    let deadline = accepted + shared.request_timeout;
    let left = deadline.saturating_duration_since(Instant::now());
    let request = if left.is_zero() {
        Err((504, "request timed out in queue".to_string()))
    } else {
        // The socket budget is capped, so an idle client cannot pin a
        // handler for a long request timeout.
        let _ = stream.set_read_timeout(Some(left.min(Duration::from_secs(10))));
        let _ = stream.set_write_timeout(Some(left.min(Duration::from_secs(10))));
        let parse_start_us = spans.now_us();
        let parsed = http::read_request(&mut stream);
        spans.record_at(Stage::ServeParse, request_id, 0, parse_start_us, spans.now_us());
        match parsed {
            Ok(request) => Ok(request),
            // Nothing useful (or nobody) to answer: closed early or dead socket.
            Err(HttpError::Closed | HttpError::Io(_)) => return,
            Err(err) => Err((400, err.to_string())),
        }
    };
    shared.metrics.requests.inc();
    let answer = request.and_then(|request| route(shared, &request, deadline, request_id));
    let (status, content_type, headers, body) = match answer {
        Ok((content_type, headers, body)) => (200, content_type, headers, body),
        Err((status, message)) => {
            (status, "application/json", Vec::new(), error_body(status, &message))
        }
    };
    let m = &shared.metrics;
    match status {
        200 => m.responses_ok.inc(),
        400 | 405 => m.responses_bad_request.inc(),
        404 => m.responses_not_found.inc(),
        429 => m.responses_rejected.inc(),
        502 => m.responses_bad_gateway.inc(),
        503 => m.responses_unavailable.inc(),
        504 => m.responses_timeout.inc(),
        _ => m.responses_error.inc(),
    }
    let serialize_start_us = spans.now_us();
    let headers: Vec<(&str, &str)> = headers.iter().map(|(k, v)| (*k, v.as_str())).collect();
    let bytes = http::render_response(status, content_type, &headers, body.as_bytes());
    let write_start_us = spans.now_us();
    spans.record_at(Stage::ServeSerialize, request_id, 0, serialize_start_us, write_start_us);
    let _ = stream.write_all(&bytes).and_then(|()| stream.flush());
    spans.record_at(Stage::ServeWrite, request_id, 0, write_start_us, spans.now_us());
    m.record_latency(u64::try_from(accepted.elapsed().as_micros()).unwrap_or(u64::MAX));
}

/// Routes one parsed request: backend `GET` routes first, then the
/// shared ones.
fn route<B: Backend>(shared: &Shared<B>, request: &Request, deadline: Instant, id: u64) -> Answer {
    // `Request.path` carries the query string verbatim; split it off so
    // `/trace?federated=1` routes to the trace endpoint.
    let (path, query) = request.path.split_once('?').unwrap_or((request.path.as_str(), ""));
    let method = request.method.as_str();
    if method == "GET" {
        let draining = shared.draining.load(Ordering::SeqCst);
        if let Some((content_type, body)) = shared.backend.get(path, query, &shared.spans, draining)
        {
            return Ok((content_type, Vec::new(), body));
        }
    }
    let plain = |content_type, body: String| Ok((content_type, Vec::new(), body));
    match (method, path) {
        ("POST", "/run") => run(shared, &request.body, deadline, id),
        ("GET", "/metrics") => {
            let body = render_metrics(&shared.metrics, &shared.spans, &shared.backend);
            plain("text/plain; version=0.0.4", body)
        }
        ("GET", "/trace") => plain("application/x-ndjson", shared.spans.to_jsonl()),
        ("GET", "/healthz") => plain("text/plain", "ok\n".to_string()),
        ("GET", "/experiments") => plain("application/json", experiments_body()),
        ("POST", "/shutdown") => {
            initiate_drain(shared);
            plain("text/plain", "draining\n".to_string())
        }
        (_, path) if SHARED_PATHS.contains(&path) || B::PATHS.contains(&path) => {
            Err((405, "method not allowed".to_string()))
        }
        _ => Err((404, "no such endpoint".to_string())),
    }
}

/// `GET /experiments`: what the service can run.
fn experiments_body() -> String {
    let experiments = ExperimentId::ALL.map(|id| Json::Str(id.name().to_string())).to_vec();
    let presets = [Preset::Fast, Preset::Standard, Preset::Full]
        .map(|p| Json::Str(p.name().to_string()))
        .to_vec();
    let mut obj = BTreeMap::new();
    obj.insert("experiments".to_string(), Json::Arr(experiments));
    obj.insert("presets".to_string(), Json::Arr(presets));
    Json::Obj(obj).render()
}

/// Validates one `POST /run` body and hands it to the backend.
fn run<B: Backend>(shared: &Shared<B>, body: &[u8], deadline: Instant, id: u64) -> Answer {
    let text = std::str::from_utf8(body).map_err(|_| (400, "request body is not UTF-8".into()))?;
    let run = RunRequest::from_json_text(text).map_err(|err| (400, err.to_string()))?;
    let trace = SpanCtx { spans: &shared.spans, request: id, parent: 0 };
    let Served { cache, spec_hash, worker, body } =
        shared.backend.run(text, run, trace, deadline)?;
    let mut headers = vec![("X-Cache", cache), ("X-Spec-Hash", spec_hash)];
    headers.extend(worker.map(|worker| ("X-Worker", worker)));
    Ok(("text/plain", headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_body_lists_everything() {
        let v = Json::parse(&experiments_body()).unwrap();
        let obj = v.as_obj().unwrap();
        assert!(matches!(&obj["experiments"], Json::Arr(a) if a.len() == 10));
        assert!(matches!(&obj["presets"], Json::Arr(a) if a.len() == 3));
    }
}
