//! `perfbench`: the repository benchmark.
//!
//! One command runs one workload for a fixed time, checks every output it
//! produced, and prints every metric by name with its unit. The last line
//! of standard output is one JSON object:
//!
//! ```text
//! {"correct":true,"attempted":N,"failed":0,"metrics":{"wall_s":{"value":…,"unit":"s"},…}}
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` makes a
//! separate instrumented run and reports the per-layer split. Lines before
//! the last are for people: the stamp (host, toolchain, commit, jobs,
//! seed), every percentile with its sample count, and any failed check.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6_sweep --seed 42 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/README.md` for what each workload and metric measures.

mod cluster;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics, printed with `--trace 0` on every workload
/// (names and units as in `BENCHMARK.json`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("cold_p50_ms", "ms"),
    ("cold_p75_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A layer
/// the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.warm_gen_ms", "ms"),
    ("workloads.inst_gen_ms", "ms"),
    ("mem.warm_touch_ms", "ms"),
    ("mem.warm_touches", "count"),
    ("mem.l1_load_misses", "count"),
    ("mem.lb_hits", "count"),
    ("mem.bank_conflicts", "count"),
    ("cpu.run_ms", "ms"),
    ("cpu.ticked_cycles", "count"),
    ("cpu.skipped_cycles", "count"),
    ("cpu.ns_per_ticked_cycle", "ns"),
    ("core.cells", "count"),
    ("core.cell_p50_ms", "ms"),
    ("core.cell_max_ms", "ms"),
    ("core.exec_idle_ms", "ms"),
    ("serve.accept_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.cache_lookup_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.write_us", "us"),
    ("cluster.route_us", "us"),
    ("cluster.forward_self_us", "us"),
    ("cluster.worker_self_us", "us"),
    ("serve.simulate_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("cluster.failovers", "count"),
    ("cluster.primary_share", "ratio"),
    ("cluster.redundant_sims", "count"),
    ("cluster.traced_requests", "count"),
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("hit_capacity_rps", "1/s"),
    ("load.late_p99_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead", "ratio"),
    ("failed_share", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fig6Sweep,
    DistinctCells,
    ClusterServe,
}

impl Workload {
    const ALL: [Workload; 3] =
        [Workload::Fig6Sweep, Workload::DistinctCells, Workload::ClusterServe];

    fn name(self) -> &'static str {
        match self {
            Workload::Fig6Sweep => "fig6_sweep",
            Workload::DistinctCells => "distinct_cells",
            Workload::ClusterServe => "cluster_serve",
        }
    }
}

/// Parsed command line.
pub struct Args {
    workload: Workload,
    /// Workload seed: every input of the run is derived from it.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Per-layer (instrumented) run instead of the end-to-end one.
    pub trace: bool,
    /// Load threads, connections and sweep jobs: the host's parallelism.
    pub jobs: usize,
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                );
            }
            "--seed" => {
                seed = Some(value.parse().unwrap_or_else(|_| usage("--seed needs an integer")));
            }
            "--seconds" => {
                let s: u64 = value.parse().unwrap_or_else(|_| usage("--seconds needs an integer"));
                if s == 0 {
                    usage("--seconds must be at least 1");
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        jobs: hbc_core::exec::default_jobs(),
    }
}

/// What one run produced: outputs checked, outputs wrong, and metric
/// values by name.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one checked output (a sweep table, a cell, a response);
    /// `problem` describes it when wrong.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED: {}", problem());
        }
    }

    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Renders the result line over `names`. Every name must have been
    /// set: a missing metric is a bug in this benchmark.
    fn json(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).unwrap_or_else(|| panic!("metric {name} unset"));
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Runs `f` on a thread of its own and returns its result. Untimed
/// reference work runs this way, between the timed parts of a run: the
/// simulator's thread-local warm memo then ends with the thread instead of
/// staying in the peak resident set.
pub fn on_own_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("reference work panicked"))
}

/// The parent of the working directory (empty when there is none).
fn parent_dir() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    cwd.parent().map(std::path::Path::to_path_buf).unwrap_or_default()
}

/// First line of `program args` output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        // Never look for a repository above the directory the benchmark
        // runs in.
        .env("GIT_CEILING_DIRECTORIES", parent_dir())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args = parse_args();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} jobs={} rustc=\"{}\" commit={}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        hbc_core::exec::default_jobs(),
        args.jobs,
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
    );
    let mut report = Report::default();
    match args.workload {
        Workload::Fig6Sweep => sweep::fig6(&args, &mut report),
        Workload::DistinctCells => sweep::distinct(&args, &mut report),
        Workload::ClusterServe => cluster::run(&args, &mut report),
    }
    if args.trace {
        report.set("failed_share", report.failed as f64 / report.attempted.max(1) as f64);
        for &(name, _) in PER_LAYER {
            report.values.entry(name).or_insert(0.0);
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in names {
        if let Some(value) = report.values.get(name) {
            println!("  {name:<26} {value:>14.4} {unit}");
        }
    }
    println!("{}", report.json(names));
}
