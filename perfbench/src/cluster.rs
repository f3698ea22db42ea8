//! The `cluster_serve` workload: an in-process `Coordinator` and two
//! `Worker`s on loopback, with in-memory result caches, built fresh on
//! fresh ports for every run.
//!
//! * Cold: `nproc` closed-loop clients send 80 distinct fast-preset specs
//!   in 20 rounds. A round is figures 4, 5, 6 and 7 at one seed derived
//!   from the workload seed, sent one after another by one client. Every
//!   spec is simulated behind the wire; a cache hit here fails the run.
//!   Right after a round, untimed, its client runs the round's specs
//!   through `RunRequest::execute()` for the reference bodies. So the
//!   timed rounds are spread over the whole phase, and the host runs two
//!   simulations at once throughout: one served, one reference, or two
//!   served.
//! * Hit: then the same specs, replayed as an open loop at [`FIXED_RATE`]
//!   requests per second, each timed from the moment it was due.
//!
//! No record of serving traffic exists, so the hit rate and the hit
//! phase's length are chosen, not measured. The gated (end-to-end) metrics
//! are all read before the hit phase starts, so they do not depend on that
//! choice. The traced run (`--trace 1`) adds a rate ladder for the highest
//! rate whose p99 stays within [`HIT_P99_LIMIT_MS`] with no growing
//! backlog, and splits the time by layer from the coordinator's
//! `/trace?federated=1`.
//!
//! Every cold body must equal a direct `RunRequest::execute()` (run
//! outside the timed rounds) and every hit body the cold body of its spec.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hbc_cluster::coordinator::{Coordinator, CoordinatorConfig, CoordinatorHandle};
use hbc_cluster::ring;
use hbc_cluster::worker::{Worker, WorkerConfig, WorkerHandle};
use hbc_serve::client::HttpClient;
use hbc_serve::json::Json;
use hbc_serve::spec::{ExperimentId, Preset, RunRequest};
use hbc_trace::TraceSet;

use crate::stats::{mix, ms, peak_rss_mb, percentile, show};
use crate::{on_own_thread, Args, Report};

/// Workers behind the coordinator.
const WORKERS: usize = 2;
/// The experiments the specs cover, each with [`SEEDS`] seeds.
const EXPERIMENTS: [ExperimentId; 4] =
    [ExperimentId::Fig4, ExperimentId::Fig5, ExperimentId::Fig6, ExperimentId::Fig7];
const SEEDS: u64 = 20;
/// Share of `--seconds` the hit phase takes: chosen, not measured.
const HIT_SHARE: f64 = 0.4;
/// Offered rate of the hit phase, requests per second: chosen, not
/// measured.
const FIXED_RATE: f64 = 400.0;
/// The hit p99 a ladder rate must meet to count towards capacity.
const HIT_P99_LIMIT_MS: f64 = 50.0;
/// Ladder: each rung offers this many times the previous rate until one
/// fails, then bisects between the last pass and the first failure.
const LADDER_STEP: f64 = 1.5;
const LADDER_CLIMB: usize = 8;
const LADDER_BISECT: usize = 3;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 51;
/// Pause between a cluster's last answer and its shutdown. `Coordinator`
/// drain can lose its wake-up: it sets the draining flag and notifies the
/// handler queue without holding the queue's lock, so a handler caught
/// between its flag check and its wait sleeps for good and
/// `Coordinator::join` never returns. The pause lets every handler get
/// back to its wait first.
const SETTLE: Duration = Duration::from_millis(20);
/// How long a drain may take before the run reports it as hung.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Span ring per process in the traced run: holds every span it makes.
const TRACED_SPAN_CAPACITY: usize = 1 << 18;
/// Worker span IDs live above `port << 32`; coordinator IDs below.
const WORKER_SPAN_BASE: u64 = 1 << 32;

/// A coordinator with its workers.
struct Cluster {
    coordinator: Coordinator,
    handle: CoordinatorHandle,
    addr: SocketAddr,
    workers: Vec<Worker>,
    worker_handles: Vec<WorkerHandle>,
    names: Vec<String>,
}

impl Cluster {
    /// Binds the workers and the coordinator on fresh loopback ports and
    /// waits until `GET /cluster` shows every worker healthy and answering.
    fn start(client: &HttpClient, span_capacity: usize) -> Cluster {
        let workers: Vec<Worker> = (0..WORKERS)
            .map(|_| {
                Worker::bind(WorkerConfig { cache_dir: None, span_capacity, ..Default::default() })
                    .expect("binding a loopback worker")
            })
            .collect();
        let names: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
        let coordinator = Coordinator::bind(CoordinatorConfig {
            workers: names.clone(),
            span_capacity,
            ..Default::default()
        })
        .expect("binding a loopback coordinator");
        let addr = coordinator.addr();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !ready(client, addr) {
            assert!(Instant::now() < deadline, "cluster at {addr} never became ready");
            std::thread::sleep(Duration::from_millis(1));
        }
        Cluster {
            handle: coordinator.handle(),
            coordinator,
            addr,
            worker_handles: workers.iter().map(Worker::handle).collect(),
            workers,
            names,
        }
    }

    /// Drains the coordinator and the workers and joins every thread.
    /// Reports a drain that has not ended within [`DRAIN_TIMEOUT`] as a
    /// failed check and leaves its threads to end with the process.
    fn stop(self, report: &mut Report) {
        std::thread::sleep(SETTLE);
        let (done, ended) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            self.handle.shutdown();
            self.coordinator.join();
            for worker in &self.worker_handles {
                worker.drain();
            }
            for worker in self.workers {
                worker.join();
            }
            let _ = done.send(());
        });
        report.check(ended.recv_timeout(DRAIN_TIMEOUT).is_ok(), || {
            format!("cluster drain still running after {DRAIN_TIMEOUT:?}")
        });
    }
}

/// Whether `GET /cluster` lists every worker as healthy with live stats.
fn ready(client: &HttpClient, addr: SocketAddr) -> bool {
    let Ok(response) = client.get(addr, "/cluster") else { return false };
    let Ok(body) = Json::parse(&response.text()) else { return false };
    let workers = match body.as_obj().and_then(|o| o.get("workers")) {
        Some(Json::Arr(list)) => Some(list),
        _ => None,
    };
    response.status == 200
        && workers.is_some_and(|list| {
            list.len() == WORKERS
                && list.iter().filter_map(Json::as_obj).all(|w| {
                    w.get("healthy").and_then(Json::as_bool) == Some(true)
                        && w.contains_key("stats")
                })
        })
}

/// One `POST /run` answer.
struct Answer {
    status: u16,
    cache: String,
    worker: String,
    body: Vec<u8>,
}

fn post(client: &HttpClient, addr: SocketAddr, spec: &str) -> Result<Answer, String> {
    let response = client.post(addr, "/run", spec.as_bytes()).map_err(|e| e.to_string())?;
    Ok(Answer {
        status: response.status,
        cache: response.header("x-cache").unwrap_or("").to_string(),
        worker: response.header("x-worker").unwrap_or("").to_string(),
        body: response.body,
    })
}

/// One request of a phase.
struct Shot {
    /// Position in the phase's schedule.
    index: usize,
    spec: usize,
    /// Due (or, closed loop, sent) to answered.
    latency_ms: f64,
    /// Sent to answered.
    service_ms: f64,
    /// How late the generator sent it.
    late_ms: f64,
    answer: Result<Answer, String>,
}

/// What the cold phase produced.
#[derive(Default)]
struct Cold {
    /// Every request, in spec order.
    shots: Vec<Shot>,
    /// The wall time of every round, in seconds.
    rounds: Vec<f64>,
    /// `RunRequest::execute()` of every spec, in spec order.
    direct: Vec<String>,
}

/// The cold phase: `jobs` closed-loop clients, each taking the next round
/// of [`EXPERIMENTS`]`.len()` specs and sending them one after another,
/// each when the previous one is answered. After each round, outside its
/// timing, the client executes the round's specs directly.
fn cold_phase(
    client: &HttpClient,
    addr: SocketAddr,
    requests: &[RunRequest],
    specs: &[String],
    jobs: usize,
) -> Cold {
    let round_len = EXPERIMENTS.len();
    let next = AtomicUsize::new(0);
    let per_client: Vec<Cold> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Cold::default();
                    loop {
                        let first = next.fetch_add(1, Ordering::Relaxed) * round_len;
                        if first >= specs.len() {
                            return mine;
                        }
                        let round = first..(first + round_len).min(specs.len());
                        let round_start = Instant::now();
                        for spec in round.clone() {
                            let start = Instant::now();
                            let answer = post(client, addr, &specs[spec]);
                            let latency_ms = ms(start.elapsed());
                            mine.shots.push(Shot {
                                index: spec,
                                spec,
                                latency_ms,
                                service_ms: latency_ms,
                                late_ms: 0.0,
                                answer,
                            });
                        }
                        mine.rounds.push(round_start.elapsed().as_secs_f64());
                        mine.direct.extend(on_own_thread(|| {
                            round.map(|spec| requests[spec].execute()).collect::<Vec<_>>()
                        }));
                    }
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("cold client panicked")).collect()
    });
    let mut cold = Cold::default();
    let mut direct = Vec::new();
    for mine in per_client {
        // Each client's reference bodies follow its shots one for one.
        direct.extend(mine.shots.iter().map(|shot| shot.index).zip(mine.direct));
        cold.shots.extend(mine.shots);
        cold.rounds.extend(mine.rounds);
    }
    cold.shots.sort_by_key(|shot| shot.index);
    direct.sort_by_key(|&(index, _)| index);
    cold.direct = direct.into_iter().map(|(_, body)| body).collect();
    cold
}

/// An open loop: request `i` is due `i / rate` seconds after the start and
/// cycles through `specs`; `jobs` sender threads (one connection each)
/// send every request when it is due, or as soon as one is free.
fn open_loop(
    client: &HttpClient,
    addr: SocketAddr,
    specs: &[String],
    rate: f64,
    duration: Duration,
    jobs: usize,
) -> Vec<Shot> {
    let total = ((rate * duration.as_secs_f64()).ceil() as usize).max(1);
    let next = AtomicUsize::new(0);
    let origin = Instant::now() + Duration::from_millis(5);
    let mut shots: Vec<Shot> = std::thread::scope(|s| {
        let senders: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            return mine;
                        }
                        let due = origin + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let spec = i % specs.len();
                        let answer = post(client, addr, &specs[spec]);
                        let done = Instant::now();
                        mine.push(Shot {
                            index: i,
                            spec,
                            latency_ms: ms(done - due),
                            service_ms: ms(done - sent),
                            late_ms: ms(sent.saturating_duration_since(due)),
                            answer,
                        });
                    }
                })
            })
            .collect();
        senders.into_iter().flat_map(|s| s.join().expect("load sender panicked")).collect()
    });
    shots.sort_by_key(|shot| shot.index);
    shots
}

/// Answer counts across every phase.
#[derive(Default)]
struct Tally {
    answers: u64,
    hits: u64,
    primary: u64,
}

/// Checks one phase's answers and counts them. `cold` holds the cold body
/// of every spec once the cold phase is done.
fn check_phase(
    report: &mut Report,
    tally: &mut Tally,
    phase: &str,
    shots: &[Shot],
    primaries: &[String],
    cold: Option<&[Vec<u8>]>,
) {
    for shot in shots {
        let answer = match &shot.answer {
            Ok(answer) if answer.status == 200 => answer,
            Ok(answer) => {
                report.check(false, || {
                    format!("{phase} spec {}: status {}", shot.spec, answer.status)
                });
                continue;
            }
            Err(e) => {
                report.check(false, || format!("{phase} spec {}: {e}", shot.spec));
                continue;
            }
        };
        tally.answers += 1;
        tally.hits += u64::from(answer.cache.starts_with("hit"));
        tally.primary += u64::from(answer.worker == primaries[shot.spec]);
        match cold {
            None => report.check(answer.cache == "miss", || {
                format!("cold spec {}: answered from cache ({})", shot.spec, answer.cache)
            }),
            Some(bodies) => report.check(answer.body == bodies[shot.spec], || {
                format!("{phase} spec {}: body differs from the cold body", shot.spec)
            }),
        }
    }
}

/// Whether a ladder rung met the limit: every request answered, p99 within
/// [`HIT_P99_LIMIT_MS`], and no growing backlog (the last quarter of the
/// rung was sent no later than the limit).
fn rung_ok(shots: &[Shot]) -> bool {
    let latencies: Vec<f64> = shots.iter().map(|s| s.latency_ms).collect();
    let all_ok = shots.iter().all(|s| matches!(&s.answer, Ok(a) if a.status == 200));
    let tail = &shots[shots.len() - shots.len().div_ceil(4)..];
    all_ok
        && percentile(&latencies, 99.0) <= HIT_P99_LIMIT_MS
        && tail.iter().all(|s| s.late_ms <= HIT_P99_LIMIT_MS)
}

/// The distinct cold specs: every experiment with every derived seed.
fn specs(seed: u64) -> Vec<RunRequest> {
    (0..SEEDS)
        .flat_map(|k| {
            EXPERIMENTS.map(|experiment| {
                let mut request = RunRequest::new(experiment);
                request.preset = Preset::Fast;
                request.seed = mix(seed, k);
                request
            })
        })
        .collect()
}

/// The `cluster_serve` workload.
pub fn run(args: &Args, report: &mut Report) {
    let client = HttpClient::with_timeouts(Duration::from_secs(5), Duration::from_secs(120));
    let requests = specs(args.seed);
    let bodies: Vec<String> = requests.iter().map(RunRequest::to_json).collect();
    let span_capacity =
        if args.trace { TRACED_SPAN_CAPACITY } else { WorkerConfig::default().span_capacity };

    let mut setup = Vec::new();
    let mut cluster: Option<Cluster> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = cluster.take() {
            previous.stop(report);
        }
        let start = Instant::now();
        cluster = Some(Cluster::start(&client, span_capacity));
        setup.push(start.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("at least one set-up");
    let primaries: Vec<String> = requests
        .iter()
        .map(|r| cluster.names[ring::candidates(&r.spec_hash(), &cluster.names)[0]].clone())
        .collect();

    let start = Instant::now();
    let Cold { shots: cold, rounds, direct } =
        cold_phase(&client, cluster.addr, &requests, &bodies, args.jobs);
    let cold_wall = start.elapsed().as_secs_f64();
    // Before any hit: every finished connection thread of a worker stays
    // allocated until the worker is joined, so the peak would otherwise
    // grow with the chosen hit traffic.
    let rss = peak_rss_mb();
    let start = Instant::now();
    let hit_phase = args.seconds.mul_f64(HIT_SHARE);
    let hot = open_loop(&client, cluster.addr, &bodies, FIXED_RATE, hit_phase, args.jobs);
    let hot_wall = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    check_phase(report, &mut tally, "cold", &cold, &primaries, None);
    let cold_bodies: Vec<Vec<u8>> = cold
        .iter()
        .map(|s| s.answer.as_ref().map(|a| a.body.clone()).unwrap_or_default())
        .collect();
    check_phase(report, &mut tally, "hit", &hot, &primaries, Some(&cold_bodies));

    let traced = args.trace.then(|| {
        let start = Instant::now();
        let trace = fetch_trace(&client, cluster.addr);
        let times = request_times(&trace);
        let tracing = start.elapsed().as_secs_f64();
        check_trace(report, &trace);
        let rung = args.seconds.mul_f64(0.02).max(Duration::from_millis(400));
        let capacity = ladder(|rate| {
            let shots = open_loop(&client, cluster.addr, &bodies, rate, rung, args.jobs);
            check_phase(report, &mut tally, "ladder", &shots, &primaries, Some(&cold_bodies));
            let ok = rung_ok(&shots);
            let lat: Vec<f64> = shots.iter().map(|s| s.latency_ms).collect();
            println!(
                "  ladder {rate:.0} rps: p99 {:.3} ms (n = {}) {}",
                percentile(&lat, 99.0),
                lat.len(),
                if ok { "ok" } else { "over" }
            );
            ok
        });
        (times, tracing, capacity)
    });
    let executed: u64 = cluster.worker_handles.iter().map(WorkerHandle::executed).sum();
    let failovers = cluster.handle.failovers();
    cluster.stop(report);

    println!("  cold phase {cold_wall:.3} s: {} rounds, with their direct execution", rounds.len());
    report.check(direct.len() == cold_bodies.len(), || {
        format!("{} direct bodies for {} cold specs", direct.len(), cold_bodies.len())
    });
    for (i, (got, want)) in cold_bodies.iter().zip(&direct).enumerate() {
        report.check(got == want.as_bytes(), || format!("spec {i}: body differs from execute()"));
    }

    let non_primary = tally.answers - tally.primary;
    let redundant = executed.saturating_sub(requests.len() as u64);
    println!(
        "  answers {} (hits {}), non-primary answers {non_primary}, failovers {failovers}, \
         simulations {executed} for {} distinct specs",
        tally.answers,
        tally.hits,
        requests.len()
    );
    let cold_ms: Vec<f64> = cold.iter().map(|s| s.latency_ms).collect();
    let hot_ms: Vec<f64> = hot.iter().map(|s| s.latency_ms).collect();
    let service_ms: Vec<f64> = hot.iter().map(|s| s.service_ms).collect();
    let late_ms: Vec<f64> = hot.iter().map(|s| s.late_ms).collect();
    let hit_p50 = show("hit at the fixed rate", &hot_ms, 50.0, "ms");
    // The tail at the fixed rate, and how much of it the generator's own
    // lateness explains.
    let hit_p99 = show("hit at the fixed rate", &hot_ms, 99.0, "ms");
    show("hit service time (sent to answered)", &service_ms, 99.0, "ms");
    let late_p99 = show("generator lateness at the fixed rate", &late_ms, 99.0, "ms");

    if let Some((times, tracing, capacity)) = traced {
        let service: Vec<f64> = cold.iter().chain(&hot).map(|s| s.service_ms).collect();
        let client_mean_ms = service.iter().sum::<f64>() / service.len() as f64;
        layers(report, &times, client_mean_ms);
        let phases = cold_wall + hot_wall;
        // Spans are always recorded; what tracing adds is exporting and
        // parsing them, relative to the phases they describe.
        report.set("trace_overhead", (phases + tracing) / phases);
        report.set("serve.hit_ratio", tally.hits as f64 / tally.answers.max(1) as f64);
        report.set("cluster.failovers", failovers as f64);
        report.set("cluster.primary_share", tally.primary as f64 / tally.answers.max(1) as f64);
        report.set("cluster.redundant_sims", redundant as f64);
        report.set("load.late_p99_ms", late_p99);
        report.set("hit_p50_ms", hit_p50);
        report.set("hit_p99_ms", hit_p99);
        report.set("hit_capacity_rps", capacity);
        return;
    }
    report.set("setup_s", show("set-up", &setup, 50.0, "s"));
    report.set("peak_rss_mb", rss);
    report.set("wall_s", show("cold round (figures 4-7 at one seed)", &rounds, 50.0, "s"));
    report.set("cold_p50_ms", show("cold", &cold_ms, 50.0, "ms"));
    report.set("cold_p75_ms", show("cold", &cold_ms, 75.0, "ms"));
}

/// Climbs the rate ladder from [`FIXED_RATE`] with `rung_at(rate)`, which
/// runs one rung and says whether it met the limit; returns the highest
/// rate that did.
fn ladder(mut rung_at: impl FnMut(f64) -> bool) -> f64 {
    // A rate fails only if a second rung at it fails too, so one host
    // stall does not end the climb.
    let mut try_rate = |rate: f64| rung_at(rate) || rung_at(rate);
    let (mut pass, mut fail) = (0.0, f64::INFINITY);
    let mut rate = FIXED_RATE;
    for _ in 0..LADDER_CLIMB {
        if try_rate(rate) {
            pass = rate;
            rate *= LADDER_STEP;
        } else {
            fail = rate;
            if pass > 0.0 {
                break;
            }
            rate /= LADDER_STEP;
        }
    }
    if pass > 0.0 && fail.is_finite() {
        for _ in 0..LADDER_BISECT {
            let mid = (pass * fail).sqrt();
            if try_rate(mid) {
                pass = mid;
            } else {
                fail = mid;
            }
        }
    }
    pass
}

/// Fetches and parses the federated trace.
fn fetch_trace(client: &HttpClient, addr: SocketAddr) -> TraceSet {
    let response = client.get(addr, "/trace?federated=1").expect("fetching the federated trace");
    assert_eq!(response.status, 200, "GET /trace?federated=1");
    TraceSet::parse_jsonl(&response.text()).expect("the federated trace parses")
}

/// A per-layer split is only as good as its trace: every process must
/// have answered, and no ring may have dropped a span.
fn check_trace(report: &mut Report, set: &TraceSet) {
    let complete = set.sources.len() == WORKERS + 1 && set.sources.iter().all(|s| s.dropped == 0);
    report.check(complete, || {
        let sources: Vec<String> =
            set.sources.iter().map(|s| format!("{} dropped {}", s.node, s.dropped)).collect();
        format!("trace incomplete: {}", sources.join(", "))
    });
}

/// Self time by stage, summed per request, for every `POST /run` request
/// (the ones with a `cluster.route` span), plus each request's total
/// coordinator root-span time.
struct RequestTimes {
    stages: BTreeMap<String, u64>,
    root_us: u64,
}

fn request_times(set: &TraceSet) -> BTreeMap<u64, RequestTimes> {
    let mut children: BTreeMap<u64, u64> = BTreeMap::new();
    for span in &set.spans {
        if span.parent != 0 {
            *children.entry(span.parent).or_default() += span.dur_us;
        }
    }
    let mut out: BTreeMap<u64, RequestTimes> = BTreeMap::new();
    for span in &set.spans {
        let times = out
            .entry(span.request)
            .or_insert_with(|| RequestTimes { stages: BTreeMap::new(), root_us: 0 });
        let own = span.dur_us.saturating_sub(children.get(&span.span).copied().unwrap_or(0));
        *times.stages.entry(span.stage.clone()).or_default() += own;
        if span.parent == 0 && span.span < WORKER_SPAN_BASE {
            times.root_us += span.dur_us;
        }
    }
    out.retain(|_, t| t.stages.contains_key("cluster.route"));
    out
}

/// The per-layer split of the traced run: cold requests are the ones
/// that simulated, hits the rest. `client_mean_ms` is the mean
/// client-observed service time of the same requests.
fn layers(report: &mut Report, times: &BTreeMap<u64, RequestTimes>, client_mean_ms: f64) {
    let (cold_times, hot_times): (Vec<&RequestTimes>, Vec<&RequestTimes>) =
        times.values().partition(|t| t.stages.contains_key("serve.simulate"));
    let stage = |times: &[&RequestTimes], name: &str| -> Vec<f64> {
        times.iter().map(|t| t.stages.get(name).copied().unwrap_or(0) as f64).collect()
    };
    let hot_p50 = |name: &str| {
        let samples = stage(&hot_times, name);
        if samples.is_empty() {
            0.0
        } else {
            show(name, &samples, 50.0, "us (hit phase)")
        }
    };
    for (metric, name) in [
        ("serve.accept_us", "serve.accept"),
        ("serve.queue_wait_us", "serve.queue_wait"),
        ("serve.parse_us", "serve.parse"),
        ("serve.cache_lookup_us", "serve.cache_lookup"),
        ("serve.serialize_us", "serve.serialize"),
        ("serve.write_us", "serve.write"),
        ("cluster.route_us", "cluster.route"),
        ("cluster.forward_self_us", "cluster.forward"),
        ("cluster.worker_self_us", "cluster.worker_execute"),
    ] {
        report.set(metric, hot_p50(name));
    }
    let simulate: Vec<f64> =
        stage(&cold_times, "serve.simulate").into_iter().map(|us| us / 1e3).collect();
    if !simulate.is_empty() {
        report.set("serve.simulate_ms", show("serve.simulate", &simulate, 50.0, "ms (cold)"));
    }
    let traced = times.len();
    let root_ms: f64 = times.values().map(|t| t.root_us as f64 / 1e3).sum();
    report.set("cluster.traced_requests", traced as f64);
    // Client-observed service time not covered by any coordinator span
    // (connect, kernel queues, unspanned code), per request.
    report.set("unattributed_ms", client_mean_ms - root_ms / traced.max(1) as f64);
}
