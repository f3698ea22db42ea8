//! `hbc-load`: a deterministic load generator for `hbc-serve` and the
//! `hbc-cluster` coordinator (same HTTP API).
//!
//! ```text
//! hbc-load --addr URL[,URL…] [--requests N] [--concurrency C1,C2,…]
//!          [--seed N] [--timeout-ms N] [--out PATH|none]
//! hbc-load --addr URL --smoke
//! hbc-load --addr URL --cluster-smoke
//! hbc-load --addr URL --shutdown
//! ```
//!
//! The default mode replays the seeded request mix of
//! [`hbc_serve::spec::mixed_request`] — a pure function of `(seed, index)`,
//! so every run issues the same specs in the same order — at each requested
//! concurrency level, and records throughput, latency percentiles, and
//! status/cache tallies into a benchmark JSON (`results/BENCH_serve.json`
//! by default). `--addr` accepts multiple targets (repeated flags or
//! comma-separated); request `index` goes to target `index % targets`, so
//! one run can drive several servers, or a coordinator next to a direct
//! worker for comparison.
//!
//! `--smoke` is the single-server CI gate: it computes one figure payload
//! in-process, requests it twice, and fails unless both responses are
//! `200` with byte-identical bodies and the second is a cache hit
//! (confirmed both by the `X-Cache` header and the `/metrics` counters).
//! `--cluster-smoke` is the coordinator equivalent: a fixed spec set is
//! computed in-process and every routed response must be byte-identical,
//! carry an `X-Worker` attribution, repeat as a shard-local cache hit,
//! and leave behind strictly parseable cluster metrics, including the
//! shared front-end families (`cluster_http_requests_total` and a nonzero
//! `cluster_latency_microseconds_count`). `--shutdown`
//! POSTs `/shutdown` and exits.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use hbc_serve::client::{self, HttpClient};
use hbc_serve::json::Json;
use hbc_serve::spec::{mixed_request, ExperimentId, Preset, RunRequest};

struct Options {
    targets: Vec<SocketAddr>,
    requests: u64,
    concurrency: Vec<usize>,
    seed: u64,
    timeout: Duration,
    out: Option<std::path::PathBuf>,
    smoke: bool,
    cluster_smoke: bool,
    shutdown: bool,
}

impl Options {
    fn http(&self) -> HttpClient {
        HttpClient::new(self.timeout)
    }

    /// The first target (the only one the smoke/shutdown modes address).
    fn primary(&self) -> SocketAddr {
        self.targets[0]
    }
}

fn main() {
    let opts = options_from_args();
    if opts.shutdown {
        match opts.http().post(opts.primary(), "/shutdown", b"") {
            Ok(resp) => println!("hbc-load: shutdown requested ({})", resp.status),
            Err(e) => fail(&format!("shutdown request failed: {e}")),
        }
        return;
    }
    if opts.smoke {
        smoke(&opts);
        return;
    }
    if opts.cluster_smoke {
        cluster_smoke(&opts);
        return;
    }
    load(&opts);
}

/// One recorded request: status, `X-Cache` label, latency.
struct Sample {
    status: u16,
    cache: String,
    micros: u64,
}

/// The measured outcome of one concurrency level.
struct Level {
    concurrency: usize,
    wall: Duration,
    samples: Vec<Sample>,
}

fn load(opts: &Options) {
    let mut levels = Vec::new();
    for &concurrency in &opts.concurrency {
        let level = run_level(opts, concurrency);
        let p = percentiles(&level.samples);
        println!(
            "hbc-load: c={concurrency} {} requests in {:.2}s — {:.1} req/s, \
             p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms",
            level.samples.len(),
            level.wall.as_secs_f64(),
            level.samples.len() as f64 / level.wall.as_secs_f64(),
            p[0] as f64 / 1000.0,
            p[1] as f64 / 1000.0,
            p[2] as f64 / 1000.0,
        );
        levels.push(level);
    }
    let report = render_report(opts, &levels);
    match &opts.out {
        None => println!("{report}"),
        Some(path) => {
            if let Some(parent) = path.parent() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    fail(&format!("cannot create {}: {e}", parent.display()));
                }
            }
            if let Err(e) = std::fs::write(path, format!("{report}\n")) {
                fail(&format!("cannot write {}: {e}", path.display()));
            }
            println!("hbc-load: wrote {}", path.display());
        }
    }
}

/// Replays requests 0..`opts.requests` of the mix with `concurrency`
/// client threads pulling indices from a shared counter. Request `index`
/// goes to target `index % targets`.
fn run_level(opts: &Options, concurrency: usize) -> Level {
    let next = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel::<Sample>();
    let started = Instant::now();
    let mut threads = Vec::new();
    for _ in 0..concurrency.max(1) {
        let next = Arc::clone(&next);
        let tx = tx.clone();
        let targets = opts.targets.clone();
        let (http, seed, requests) = (opts.http(), opts.seed, opts.requests);
        threads.push(std::thread::spawn(move || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= requests {
                return;
            }
            let target = targets[usize::try_from(index).unwrap_or(0) % targets.len()];
            let spec = mixed_request(seed, index).to_json();
            let t0 = Instant::now();
            let sample = match http.post(target, "/run", spec.as_bytes()) {
                Ok(resp) => Sample {
                    status: resp.status,
                    cache: resp.header("x-cache").unwrap_or("none").to_string(),
                    micros: u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
                },
                Err(_) => Sample {
                    status: 0,
                    cache: "transport-error".to_string(),
                    micros: u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
                },
            };
            if tx.send(sample).is_err() {
                return;
            }
        }));
    }
    drop(tx);
    let mut samples: Vec<Sample> = rx.iter().collect();
    for thread in threads {
        let _ = thread.join();
    }
    let wall = started.elapsed();
    samples.sort_by_key(|s| s.micros);
    Level { concurrency, wall, samples }
}

/// Nearest-rank p50/p95/p99 (in microseconds) over samples sorted by
/// latency.
fn percentiles(sorted: &[Sample]) -> [u64; 3] {
    let n = sorted.len();
    if n == 0 {
        return [0; 3];
    }
    [50u64, 95, 99].map(|p| {
        let rank = (p as usize * n).div_ceil(100).clamp(1, n);
        sorted[rank - 1].micros
    })
}

fn render_report(opts: &Options, levels: &[Level]) -> String {
    use std::collections::BTreeMap;
    let mut config = BTreeMap::new();
    config.insert("requests".to_string(), Json::U64(opts.requests));
    config.insert("seed".to_string(), Json::U64(opts.seed));
    config.insert("targets".to_string(), Json::U64(opts.targets.len() as u64));
    config.insert("mix".to_string(), Json::Str("hbc-load mix (spec::mixed_request)".to_string()));
    let levels = levels
        .iter()
        .map(|level| {
            let p = percentiles(&level.samples);
            let mut status = BTreeMap::new();
            let mut cache = BTreeMap::new();
            for s in &level.samples {
                let key = if s.status == 0 {
                    "transport-error".to_string()
                } else {
                    s.status.to_string()
                };
                let e = status.entry(key).or_insert(Json::U64(0));
                *e = Json::U64(e.as_u64().unwrap_or(0) + 1);
                let e = cache.entry(s.cache.clone()).or_insert(Json::U64(0));
                *e = Json::U64(e.as_u64().unwrap_or(0) + 1);
            }
            let mut latency = BTreeMap::new();
            for (name, micros) in [("p50_ms", p[0]), ("p95_ms", p[1]), ("p99_ms", p[2])] {
                latency.insert(name.to_string(), Json::F64(micros as f64 / 1000.0));
            }
            let mut obj = BTreeMap::new();
            obj.insert("concurrency".to_string(), Json::U64(level.concurrency as u64));
            obj.insert("wall_s".to_string(), Json::F64(level.wall.as_secs_f64()));
            obj.insert(
                "throughput_rps".to_string(),
                Json::F64(level.samples.len() as f64 / level.wall.as_secs_f64()),
            );
            obj.insert("latency".to_string(), Json::Obj(latency));
            obj.insert("status".to_string(), Json::Obj(status));
            obj.insert("cache".to_string(), Json::Obj(cache));
            Json::Obj(obj)
        })
        .collect();
    let mut root = BTreeMap::new();
    root.insert("schema".to_string(), Json::U64(1));
    root.insert("bench".to_string(), Json::Str("hbc-serve load".to_string()));
    root.insert("config".to_string(), Json::Obj(config));
    root.insert("levels".to_string(), Json::Arr(levels));
    Json::Obj(root).render()
}

/// The CI smoke gate: golden byte-identity plus a verified cache hit.
fn smoke(opts: &Options) {
    let http = opts.http();
    let addr = opts.primary();
    let mut request = RunRequest::new(ExperimentId::Fig4);
    request.preset = Preset::Fast;
    let expected = request.execute();
    let spec = request.to_json();

    let first = must(http.post(addr, "/run", spec.as_bytes()), "first request");
    if first.status != 200 {
        fail(&format!("first request: expected 200, got {} ({})", first.status, first.text()));
    }
    if first.body != expected.as_bytes() {
        fail("first response body differs from the figure binary's output");
    }
    let second = must(http.post(addr, "/run", spec.as_bytes()), "second request");
    let label = second.header("x-cache").unwrap_or("none").to_string();
    if second.status != 200 || second.body != expected.as_bytes() {
        fail(&format!(
            "second request: status {}, golden match {}",
            second.status,
            second.body == expected.as_bytes()
        ));
    }
    if !label.starts_with("hit-") {
        fail(&format!("second request was not served from the cache (X-Cache: {label})"));
    }
    let samples = metrics_samples(&http, addr);
    let hits: f64 =
        samples.iter().filter(|s| s.name == "serve_cache_hits_total").map(|s| s.value).sum();
    if samples.iter().all(|s| s.name != "serve_cache_hits_total") {
        fail("metrics response is missing the cache-hit counters");
    }
    if hits == 0.0 {
        fail("metrics report zero cache hits after a hit response");
    }
    let hits = hits as u64;
    // Capture the span trace: every line must be a JSON object naming a
    // registered stage. Saved for CI to archive as an artifact.
    let trace = must(http.get(addr, "/trace"), "trace request");
    let trace_text = trace.text();
    let mut spans = 0usize;
    for line in trace_text.lines() {
        let record = Json::parse(line)
            .unwrap_or_else(|e| fail(&format!("trace line is not JSON ({e}): {line}")));
        let stage = record
            .as_obj()
            .and_then(|o| o.get("stage"))
            .and_then(|s| s.as_str())
            .unwrap_or_else(|| fail(&format!("trace line has no stage: {line}")));
        if !hbc_probe::is_registered_stage(stage) {
            fail(&format!("trace carries unregistered stage {stage:?}"));
        }
        spans += 1;
    }
    if spans == 0 {
        fail("trace is empty after served requests");
    }
    let trace_out = std::path::Path::new("results/TRACE_smoke.jsonl");
    if std::fs::create_dir_all("results").is_ok() {
        if let Err(e) = std::fs::write(trace_out, &trace_text) {
            eprintln!("note: could not write {}: {e}", trace_out.display());
        }
    }
    println!(
        "hbc-load smoke: ok ({} payload bytes, second request X-Cache: {label}, \
         {hits} cache hit(s) in /metrics, {spans} spans in /trace)",
        expected.len()
    );
}

/// The cluster CI gate, run against a coordinator: routed responses must
/// be byte-identical to in-process execution, attributed to a worker,
/// repeat as shard-local cache hits, and leave valid cluster metrics.
fn cluster_smoke(opts: &Options) {
    let http = opts.http();
    let addr = opts.primary();
    let mut bytes = 0usize;
    let mut workers = std::collections::BTreeSet::new();
    for index in 0..4u64 {
        let request = mixed_request(opts.seed, index);
        let expected = request.execute();
        let spec = request.to_json();
        let first = must(http.post(addr, "/run", spec.as_bytes()), &format!("request {index}"));
        if first.status != 200 {
            fail(&format!(
                "request {index}: expected 200, got {} ({})",
                first.status,
                first.text()
            ));
        }
        if first.body != expected.as_bytes() {
            fail(&format!("request {index}: routed response differs from in-process execution"));
        }
        let worker = match first.header("x-worker") {
            Some(worker) => worker.to_string(),
            None => fail(&format!("request {index}: response carries no X-Worker attribution")),
        };
        // Rendezvous routing sends the identical spec to the same worker,
        // so the repeat must be a shard-local cache hit.
        let second =
            must(http.post(addr, "/run", spec.as_bytes()), &format!("repeat of request {index}"));
        let label = second.header("x-cache").unwrap_or("none");
        if second.status != 200 || second.body != expected.as_bytes() {
            fail(&format!("repeat of request {index}: status {}", second.status));
        }
        if !label.starts_with("hit-") {
            fail(&format!("repeat of request {index} missed its shard cache (X-Cache: {label})"));
        }
        bytes += expected.len();
        workers.insert(worker);
    }
    let samples = metrics_samples(&http, addr);
    let forwarded: f64 =
        samples.iter().filter(|s| s.name == "cluster_forwarded_total").map(|s| s.value).sum();
    if forwarded < 8.0 {
        fail(&format!("cluster_forwarded_total is {forwarded}, expected at least 8"));
    }
    let healthy =
        samples.iter().filter(|s| s.name == "cluster_worker_healthy" && s.value == 1.0).count();
    if healthy == 0 {
        fail("no worker is marked healthy in /metrics");
    }
    // The front end's shared families, under the coordinator's prefix.
    if samples.iter().all(|s| s.name != "cluster_http_requests_total") {
        fail("metrics response is missing cluster_http_requests_total");
    }
    let latency_count = samples
        .iter()
        .find(|s| s.name == "cluster_latency_microseconds_count")
        .map_or(0.0, |s| s.value);
    if latency_count == 0.0 {
        fail("cluster_latency_microseconds_count is zero after served requests");
    }
    println!(
        "hbc-load cluster-smoke: ok ({bytes} payload bytes over {} worker(s), \
         {forwarded} forwards, {healthy} healthy)",
        workers.len()
    );
}

fn options_from_args() -> Options {
    let mut opts = Options {
        targets: Vec::new(),
        requests: 64,
        concurrency: vec![1, 4],
        seed: 7,
        timeout: Duration::from_secs(120),
        out: Some(std::path::PathBuf::from("results/BENCH_serve.json")),
        smoke: false,
        cluster_smoke: false,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => {
                for part in value("--addr").split(',') {
                    match client::parse_addr(part.trim()) {
                        Ok(parsed) => opts.targets.push(parsed),
                        Err(e) => usage(&e),
                    }
                }
            }
            "--requests" => opts.requests = parse(&value("--requests"), "--requests"),
            "--concurrency" => {
                opts.concurrency = value("--concurrency")
                    .split(',')
                    .map(|c| parse(c.trim(), "--concurrency"))
                    .collect();
                if opts.concurrency.is_empty() || opts.concurrency.contains(&0) {
                    usage("--concurrency needs positive levels, e.g. 1,4");
                }
            }
            "--seed" => opts.seed = parse(&value("--seed"), "--seed"),
            "--timeout-ms" => {
                opts.timeout = Duration::from_millis(parse(&value("--timeout-ms"), "--timeout-ms"));
            }
            "--out" => {
                let path = value("--out");
                opts.out = if path == "none" { None } else { Some(path.into()) };
            }
            "--smoke" => opts.smoke = true,
            "--cluster-smoke" => opts.cluster_smoke = true,
            "--shutdown" => opts.shutdown = true,
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if opts.targets.is_empty() {
        usage("--addr is required (e.g. --addr http://127.0.0.1:8080)");
    }
    opts
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| usage(&format!("{flag} needs an unsigned integer")))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: hbc-load --addr URL[,URL…] [--requests N] [--concurrency C1,C2,…] [--seed N] \
         [--timeout-ms N] [--out PATH|none] [--smoke] [--cluster-smoke] [--shutdown]"
    );
    std::process::exit(2);
}

/// The response, or a failed gate naming `what`.
fn must<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| fail(&format!("{what} failed: {e}")))
}

/// `GET /metrics`, checked as strict Prometheus text: the parser doubles
/// as a format-validity gate in CI.
fn metrics_samples(http: &HttpClient, addr: SocketAddr) -> Vec<hbc_serve::metrics::Sample> {
    let metrics = must(http.get(addr, "/metrics"), "metrics request");
    hbc_serve::metrics::parse_prometheus(&metrics.text())
        .unwrap_or_else(|e| fail(&format!("metrics body is not valid Prometheus text: {e}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("hbc-load: FAIL: {msg}");
    std::process::exit(1);
}
