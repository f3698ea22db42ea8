//! Conformance suite for the shared HTTP front end, run against a fake
//! [`Backend`]: status codes for malformed input, unknown routes, a full
//! queue, a spent budget, and drain, plus the shared metric families.
//!
//! Every test synchronises on events — the acceptor's strict
//! accept order, a reply read off the socket, or the fake backend's own
//! signal — never on a sleep.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hbc_serve::client::HttpClient;
use hbc_serve::frontend::{
    Backend, Frontend, FrontendConfig, FrontendHandle, RunReply, Served, SpanCtx,
};
use hbc_serve::http::{self, Response};
use hbc_serve::json::Json;
use hbc_serve::metrics::{parse_prometheus, write_family, Metrics};
use hbc_serve::spans::ServeSpans;
use hbc_serve::spec::RunRequest;

/// A backend that echoes the spec, counts its runs, and can hold a run
/// until the test releases it.
#[derive(Default)]
struct Fake {
    runs: AtomicU64,
    hold: bool,
    /// (a run is holding, the test released it)
    gate: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Fake {
    fn holding() -> Self {
        Fake { hold: true, ..Fake::default() }
    }

    fn wait_until_holding(&self) {
        let mut gate = self.gate.lock().expect("gate");
        while !gate.0 {
            gate = self.cv.wait(gate).expect("gate");
        }
    }

    fn release(&self) {
        self.gate.lock().expect("gate").1 = true;
        self.cv.notify_all();
    }
}

impl Backend for Fake {
    const PREFIX: &'static str = "fake";
    const PATHS: &'static [&'static str] = &["/fake"];

    fn run(&self, spec: &str, run: RunRequest, _: SpanCtx<'_>, _: Instant) -> RunReply {
        self.runs.fetch_add(1, Ordering::SeqCst);
        if self.hold {
            let mut gate = self.gate.lock().expect("gate");
            gate.0 = true;
            self.cv.notify_all();
            while !gate.1 {
                gate = self.cv.wait(gate).expect("gate");
            }
        }
        Ok(Served {
            cache: "miss".to_string(),
            spec_hash: run.spec_hash(),
            worker: None,
            body: spec.to_string(),
        })
    }

    fn get(&self, path: &str, _: &str, _: &ServeSpans, _: bool) -> Option<(&'static str, String)> {
        (path == "/fake").then(|| ("text/plain", "fake\n".to_string()))
    }

    fn write_metrics(&self, out: &mut String) {
        write_family(out, "fake_runs_total", "counter", "Runs the fake backend answered.");
        out.push_str(&format!("fake_runs_total {}\n", self.runs.load(Ordering::SeqCst)));
    }
}

const SPEC: &str = r#"{"experiment":"table2","preset":"fast"}"#;

fn start(handlers: usize, queue_capacity: usize, fake: Fake) -> Frontend<Fake> {
    let config = FrontendConfig {
        addr: "127.0.0.1:0".to_string(),
        handlers,
        queue_capacity,
        request_timeout: Duration::from_secs(60),
        span_capacity: 256,
    };
    Frontend::start(config, Arc::new(Metrics::default()), fake).expect("front end binds")
}

fn http() -> HttpClient {
    HttpClient::new(Duration::from_secs(30))
}

fn stop(frontend: Frontend<Fake>) {
    frontend.handle().shutdown();
    frontend.join();
}

/// Sends raw bytes and reads the response.
fn raw(addr: SocketAddr, bytes: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream.write_all(bytes).expect("write");
    http::read_response(&mut stream).expect("a response")
}

/// The JSON error envelope's `(status, error)` fields.
fn envelope(resp: &Response) -> (u64, String) {
    let v = Json::parse(&resp.text()).expect("error envelope is JSON");
    let obj = v.as_obj().expect("object");
    let status = obj["status"].as_u64().expect("status field");
    (status, obj["error"].as_str().expect("error field").to_string())
}

/// Fills a handler-less queue of capacity 1: the first connection is
/// queued; the returned 429 — answered only after the acceptor queued the
/// first, since it accepts in order — proves it.
fn fill_queue(addr: SocketAddr) -> (TcpStream, Response) {
    let queued = TcpStream::connect(addr).expect("connect");
    let rejected = http().post(addr, "/run", SPEC.as_bytes()).expect("rejection is a response");
    (queued, rejected)
}

#[test]
fn malformed_http_bodies_and_specs_are_400() {
    let frontend = start(1, 8, Fake::default());
    let addr = frontend.addr();

    let garbage = raw(addr, b"NONSENSE\r\n\r\n");
    assert_eq!(garbage.status, 400, "{}", garbage.text());
    assert_eq!(envelope(&garbage).0, 400);

    let not_utf8 = http().post(addr, "/run", &[0xff, 0xfe, 0xfd]).expect("response");
    assert_eq!(not_utf8.status, 400);
    assert!(envelope(&not_utf8).1.contains("UTF-8"), "{}", not_utf8.text());

    for (body, expect) in [
        (r#"{"experiment":"fig2"}"#, "expected one of"),
        (r#"{"experiment":"fig6","speed":1}"#, "unknown field"),
        ("not json", "invalid JSON"),
        // Quotes and backslashes in the message stay valid JSON.
        (r#"{"experiment":"fig\"6\\"}"#, "expected one of"),
    ] {
        let resp = http().post(addr, "/run", body.as_bytes()).expect("response");
        assert_eq!(resp.status, 400, "{}", resp.text());
        let (status, error) = envelope(&resp);
        assert_eq!(status, 400);
        assert!(error.contains(expect), "{error} should mention {expect}");
    }
    assert_eq!(frontend.handle().backend().runs.load(Ordering::SeqCst), 0);

    let ok = http().post(addr, "/run", SPEC.as_bytes()).expect("response");
    assert_eq!(ok.status, 200);
    assert_eq!(ok.body, SPEC.as_bytes());
    assert_eq!(ok.header("x-cache"), Some("miss"));
    assert_eq!(ok.header("x-worker"), None);
    stop(frontend);
}

#[test]
fn unknown_paths_are_404_and_wrong_methods_405() {
    let frontend = start(1, 8, Fake::default());
    let addr = frontend.addr();
    let missing = http().get(addr, "/nope").expect("response");
    assert_eq!(missing.status, 404);
    assert_eq!(envelope(&missing).0, 404);
    for (method_path, status) in [
        (http().get(addr, "/run"), 405),
        (http().post(addr, "/metrics", b""), 405),
        (http().post(addr, "/trace", b""), 405),
        (http().post(addr, "/fake", b""), 405),
        (http().get(addr, "/fake"), 200),
        (http().get(addr, "/fake?x=1"), 200),
        (http().get(addr, "/healthz"), 200),
        (http().get(addr, "/experiments"), 200),
    ] {
        let resp = method_path.expect("response");
        assert_eq!(resp.status, status, "{}", resp.text());
    }
    stop(frontend);
}

#[test]
fn full_queue_answers_429() {
    let frontend = start(0, 1, Fake::default());
    let (_queued, rejected) = fill_queue(frontend.addr());
    assert_eq!(rejected.status, 429);
    assert!(envelope(&rejected).1.contains("queue"), "{}", rejected.text());
    assert_eq!(frontend.handle().metrics().responses_rejected.get(), 1);
    stop(frontend);
}

#[test]
fn request_that_spent_its_budget_in_the_queue_gets_504() {
    // A zero budget is spent by the time any handler dequeues.
    let config = FrontendConfig {
        addr: "127.0.0.1:0".to_string(),
        handlers: 1,
        queue_capacity: 4,
        request_timeout: Duration::ZERO,
        span_capacity: 64,
    };
    let frontend =
        Frontend::start(config, Arc::new(Metrics::default()), Fake::default()).expect("bind");
    let resp = http().post(frontend.addr(), "/run", SPEC.as_bytes()).expect("response");
    assert_eq!(resp.status, 504);
    assert!(envelope(&resp).1.contains("queue"), "{}", resp.text());
    assert_eq!(frontend.handle().backend().runs.load(Ordering::SeqCst), 0);
    assert_eq!(frontend.handle().metrics().responses_timeout.get(), 1);
    stop(frontend);
}

#[test]
fn draining_front_end_finishes_in_flight_and_answers_new_connections_503() {
    let frontend = start(1, 8, Fake::holding());
    let addr = frontend.addr();
    let handle: FrontendHandle<Fake> = frontend.handle();
    let in_flight = std::thread::spawn(move || http().post(addr, "/run", SPEC.as_bytes()));
    handle.backend().wait_until_holding();

    handle.shutdown();
    let refused = http().get(addr, "/healthz").expect("a draining front end answers");
    assert_eq!(refused.status, 503);
    assert_eq!(envelope(&refused).0, 503);

    handle.backend().release();
    let finished = in_flight.join().expect("client thread").expect("in-flight completes");
    assert_eq!(finished.status, 200);
    assert_eq!(finished.body, SPEC.as_bytes());
    frontend.join();
    assert_eq!(handle.metrics().responses_unavailable.get(), 1);
}

#[test]
fn connection_still_queued_at_join_gets_503() {
    let frontend = start(0, 1, Fake::default());
    let metrics = frontend.handle().metrics();
    let (mut queued, rejected) = fill_queue(frontend.addr());
    assert_eq!(rejected.status, 429);
    stop(frontend);
    queued.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let drained = http::read_response(&mut queued).expect("an orderly refusal");
    assert_eq!(drained.status, 503);
    assert_eq!(metrics.responses_unavailable.get(), 1);
    assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
}

#[test]
fn trickling_rejected_client_cannot_stall_the_acceptor() {
    let frontend = start(0, 1, Fake::default());
    let addr = frontend.addr();
    let (_queued, rejected) = fill_queue(addr);
    assert_eq!(rejected.status, 429);

    // A rejected client that keeps its request coming one byte every
    // 400 ms for 6 s, never finishing it.
    let trickler = TcpStream::connect(addr).expect("connect");
    let trickle = std::thread::spawn(move || {
        let mut trickler = trickler;
        for _ in 0..15 {
            if trickler.write_all(b"P").is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(400));
        }
        let mut sink = Vec::new();
        let _ = trickler.read_to_end(&mut sink);
    });

    // The acceptor takes connections in order, so this one waits behind
    // the trickler's drain; it must still be answered within seconds.
    let started = Instant::now();
    let third = http().post(addr, "/run", SPEC.as_bytes()).expect("a response");
    let waited = started.elapsed();
    assert_eq!(third.status, 429);
    assert!(waited < Duration::from_secs(3), "the third client waited {waited:?} for its 429");
    trickle.join().expect("trickler");
    stop(frontend);
}

#[test]
fn metrics_use_the_backend_prefix_and_splice_its_families() {
    let frontend = start(1, 8, Fake::default());
    let addr = frontend.addr();
    assert_eq!(http().post(addr, "/run", SPEC.as_bytes()).expect("response").status, 200);
    let text = http().get(addr, "/metrics").expect("response");
    assert_eq!(text.status, 200);
    let samples = parse_prometheus(&text.text()).expect("strict Prometheus text");
    let value = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
    assert_eq!(value("fake_http_requests_total"), Some(2.0));
    assert_eq!(value("fake_runs_total"), Some(1.0));
    assert_eq!(value("fake_queue_depth"), Some(0.0));
    assert!(value("fake_latency_microseconds_count") >= Some(1.0));
    let statuses: Vec<&str> = samples
        .iter()
        .filter(|s| s.name == "fake_http_responses_total")
        .filter_map(|s| s.label("status"))
        .collect();
    assert_eq!(statuses, ["200", "400", "404", "429", "500", "502", "503", "504"]);
    assert!(samples.iter().any(|s| s.name == "fake_stage_duration_microseconds_count"
        && s.label("stage") == Some("serve.parse")));
    stop(frontend);
}
