//! The two sweep workloads.
//!
//! * `fig6_sweep` runs `experiments::fig6::run` on `ExpParams::standard()`
//!   (108 cells over 9 benchmarks) at `jobs = nproc`. All 12 cells of a
//!   benchmark share one warm stream and the 12 cover 6 cache geometries,
//!   so functional warm-up and its reuse dominate.
//! * `distinct_cells` runs `SimBuilder::run` at `ExpParams::full()` windows
//!   over 9 benchmarks x 4 organizations, each cell with its own seed, at
//!   `jobs = nproc`. No cell shares a warm stream or a geometry, so the
//!   timed core and instruction generation do the work and warm reuse is
//!   bypassed.
//!
//! The end-to-end run times the program's own entry points. The traced
//! run (`--trace 1`) alternates an untraced pass with an instrumented
//! replica of the same cells, built from the public simulator APIs with a
//! timer around each layer call, and checks that every replica cell
//! yields the program's `RunStats`/`MemStats`.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hbc_core::exec::run_cells;
use hbc_core::experiments::{fig4, fig6};
use hbc_core::{Benchmark, ExpParams, SimBuilder};
use hbc_cpu::{Core, CpuConfig, RunStats};
use hbc_mem::{MemStats, MemSystem, PortModel};
use hbc_workloads::WorkloadGen;

use crate::stats::{median, mix, ms, peak_rss_mb, show};
use crate::{on_own_thread, Args, Report};

/// The seed `results/fig6.txt` was generated with.
const GOLDEN_SEED: u64 = 42;
/// The committed Figure 6 table, read from the source tree the benchmark
/// was built from.
const FIG6_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig6.txt");
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 51;
/// `distinct_cells` computes its serial reference in this many shares, one
/// after each timed pass, so the timed passes spread over the whole run.
const REFERENCE_SHARES: usize = 4;

/// A primary-cache organization.
#[derive(Debug, Clone, Copy)]
enum Org {
    Sram { kib: u64, hit: u64, ports: PortModel, lb: bool },
    Dram { hit: u64, lb: bool },
}

/// The `distinct_cells` organizations: 32K 2-port 1~; 32K duplicate 2~ +
/// LB; 64K 8-bank 3~ + LB; DRAM 6~ + LB.
const DISTINCT_ORGS: [Org; 4] = [
    Org::Sram { kib: 32, hit: 1, ports: PortModel::Ideal(2), lb: false },
    Org::Sram { kib: 32, hit: 2, ports: PortModel::Duplicate, lb: true },
    Org::Sram { kib: 64, hit: 3, ports: PortModel::Banked(8), lb: true },
    Org::Dram { hit: 6, lb: true },
];

/// One sweep cell: a benchmark, its seed and an organization.
#[derive(Debug, Clone, Copy)]
struct CellSpec {
    bench: Benchmark,
    seed: u64,
    org: Org,
}

impl CellSpec {
    fn builder(&self, params: &ExpParams) -> SimBuilder {
        let sim = params.sim(self.bench).seed(self.seed);
        match self.org {
            Org::Sram { kib, hit, ports, lb } => {
                sim.cache_size_kib(kib).hit_cycles(hit).ports(ports).line_buffer(lb)
            }
            Org::Dram { hit, lb } => sim.dram_cache(hit).line_buffer(lb),
        }
    }
}

/// The cells of Figure 6, in the order `fig6::run` enumerates them.
fn fig6_cells(params: &ExpParams) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for &bench in &params.benchmarks {
        for ports in [PortModel::Banked(8), PortModel::Duplicate] {
            for hit in fig4::HITS {
                for lb in [false, true] {
                    let org = Org::Sram { kib: 32, hit, ports, lb };
                    cells.push(CellSpec { bench, seed: params.seed, org });
                }
            }
        }
    }
    cells
}

/// The `distinct_cells` cells: every benchmark under every organization,
/// each with its own seed derived from the workload seed.
fn distinct_cells(params: &ExpParams, seed: u64) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for &bench in &params.benchmarks {
        for org in DISTINCT_ORGS {
            let index = cells.len() as u64;
            cells.push(CellSpec { bench, seed: mix(seed, index), org });
        }
    }
    cells
}

/// Set-up: building the simulator state every cell needs (memory
/// hierarchy, workload generator, core) without running it, repeated
/// [`SETUP_REPEATS`] times; returns the median in seconds.
fn setup_s(params: &ExpParams, cells: &[CellSpec]) -> f64 {
    let samples: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            for cell in cells {
                let mem = MemSystem::new(cell.builder(params).mem_config())
                    .expect("sweep cells use valid memory configurations");
                let gen = WorkloadGen::new(cell.bench, cell.seed);
                let core = Core::new(CpuConfig::paper(), mem, gen)
                    .expect("the paper's CPU configuration is valid");
                black_box(&core);
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    show("setup", &samples, 50.0, "s")
}

/// What a Figure 6 table must equal: the committed golden at the default
/// seed, a serial reference at any other. A missing golden is an error
/// every table check reports.
fn fig6_reference(params: &ExpParams) -> Result<String, String> {
    if params.seed == GOLDEN_SEED {
        return std::fs::read_to_string(FIG6_GOLDEN)
            .map_err(|e| format!("reading the golden {FIG6_GOLDEN}: {e}"));
    }
    let serial = ExpParams { jobs: 1, ..params.clone() };
    Ok(fig6::run(&serial).to_string())
}

/// Checks one Figure 6 table against its reference.
fn check_table(report: &mut Report, reference: &Result<String, String>, table: &str, what: &str) {
    match reference {
        Ok(text) => report.check(table == text, || format!("{what}: table differs")),
        Err(e) => report.check(false, || format!("{what}: {e}")),
    }
}

fn fig6_params(args: &Args) -> ExpParams {
    ExpParams { seed: args.seed, jobs: args.jobs, ..ExpParams::standard() }
}

fn distinct_params(args: &Args) -> ExpParams {
    ExpParams { seed: args.seed, jobs: args.jobs, ..ExpParams::full() }
}

/// The `fig6_sweep` workload.
pub fn fig6(args: &Args, report: &mut Report) {
    let params = fig6_params(args);
    let cells = fig6_cells(&params);
    if args.trace {
        return traced(args, report, &params, &cells, Pass::Fig6);
    }
    let setup = setup_s(&params, &cells);
    let mut walls = Vec::new();
    let mut tables = Vec::new();
    let mut reference = None;
    let mut timed = Duration::ZERO;
    while walls.is_empty() || timed < args.seconds {
        let sweep = Instant::now();
        let table = fig6::run(&params).to_string();
        let wall = sweep.elapsed();
        timed += wall;
        walls.push(wall.as_secs_f64());
        tables.push(table);
        // Untimed, once half the timed sweeps are done, so the timed
        // sweeps spread over the whole run.
        if reference.is_none() && timed >= args.seconds / 2 {
            reference = Some(on_own_thread(|| fig6_reference(&params)));
        }
    }
    let rss = peak_rss_mb();
    let reference = reference.unwrap_or_else(|| on_own_thread(|| fig6_reference(&params)));
    for (i, table) in tables.iter().enumerate() {
        check_table(report, &reference, table, &format!("fig6 sweep {i}"));
    }
    // One request is one figure: the cold latency is the sweep's.
    let sweep_ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    report.set("setup_s", setup);
    report.set("peak_rss_mb", rss);
    report.set("wall_s", show("sweep wall", &walls, 50.0, "s"));
    report.set("cold_p50_ms", show("sweep", &sweep_ms, 50.0, "ms"));
    report.set("cold_p75_ms", show("sweep", &sweep_ms, 75.0, "ms"));
}

/// The `distinct_cells` workload.
pub fn distinct(args: &Args, report: &mut Report) {
    let params = distinct_params(args);
    let cells = distinct_cells(&params, args.seed);
    if args.trace {
        return traced(args, report, &params, &cells, Pass::Cells);
    }
    let setup = setup_s(&params, &cells);
    let mut walls = Vec::new();
    let mut cell_ms = Vec::new();
    let mut passes = Vec::new();
    // The serial loop is the reference every parallel pass must equal.
    let mut reference = Vec::with_capacity(cells.len());
    let serial = |range: std::ops::Range<usize>| {
        on_own_thread(|| {
            run_cells(1, range.len(), |i| cells[range.start + i].builder(&params).run())
        })
    };
    let share = cells.len().div_ceil(REFERENCE_SHARES);
    let mut timed = Duration::ZERO;
    while walls.is_empty() || timed < args.seconds {
        let pass = Instant::now();
        let out = run_cells(params.jobs, cells.len(), |i| {
            let cell = Instant::now();
            let result = cells[i].builder(&params).run();
            (result, ms(cell.elapsed()))
        });
        let wall = pass.elapsed();
        timed += wall;
        walls.push(wall.as_secs_f64());
        cell_ms.extend(out.iter().map(|(_, t)| *t));
        passes.push(out.into_iter().map(|(result, _)| result).collect::<Vec<_>>());
        // Untimed: the next share of the reference.
        let done = reference.len();
        reference.extend(serial(done..(done + share).min(cells.len())));
    }
    let rss = peak_rss_mb();
    reference.extend(serial(reference.len()..cells.len()));
    for (p, pass) in passes.iter().enumerate() {
        for (i, (got, want)) in pass.iter().zip(&reference).enumerate() {
            report.check(got == want && got.ipc() > 0.0, || {
                format!("distinct_cells pass {p} cell {i} ({:?}) differs from serial", cells[i])
            });
        }
    }
    report.set("setup_s", setup);
    report.set("peak_rss_mb", rss);
    report.set("wall_s", show("pass wall", &walls, 50.0, "s"));
    // One request is one cell.
    report.set("cold_p50_ms", show("cell", &cell_ms, 50.0, "ms"));
    report.set("cold_p75_ms", show("cell", &cell_ms, 75.0, "ms"));
}

/// The untraced pass a traced run compares against.
#[derive(Clone, Copy)]
enum Pass {
    Fig6,
    Cells,
}

/// What `SimBuilder::run` yields for one cell and the replica must match:
/// its counts and the cycles the event horizon skipped.
type CellStats = (RunStats, MemStats, u64);

/// `SimBuilder::run` of every cell at `params.jobs`.
fn cell_stats(params: &ExpParams, cells: &[CellSpec]) -> Vec<CellStats> {
    run_cells(params.jobs, cells.len(), |i| {
        let result = cells[i].builder(params).run();
        (*result.run(), result.mem().clone(), result.skipped_cycles())
    })
}

/// The program's own outputs of one untraced pass.
enum PassOutput {
    Table(hbc_core::report::Table),
    Cells(Vec<CellStats>),
}

impl Pass {
    fn run(self, params: &ExpParams, cells: &[CellSpec]) -> PassOutput {
        match self {
            Pass::Fig6 => PassOutput::Table(fig6::run(params)),
            Pass::Cells => PassOutput::Cells(cell_stats(params, cells)),
        }
    }
}

impl PassOutput {
    /// Whether replica cell `i` reproduces the program's output for it.
    fn agrees(&self, i: usize, cell: &CellTrace) -> bool {
        match self {
            // `fig6::run` pushes one row per (no LB, LB) pair of cells and
            // prints IPC with three decimals in columns 3 and 4. The full
            // counts are checked once after the timed passes.
            PassOutput::Table(table) => {
                let column = 3 + i % 2;
                table.rows().get(i / 2).and_then(|row| row.get(column))
                    == Some(&format!("{:.3}", cell.run.ipc()))
            }
            PassOutput::Cells(cells) => cell.matches(&cells[i]),
        }
    }
}

/// Per-layer times and counts of one replica cell.
struct CellTrace {
    run: RunStats,
    mem: MemStats,
    warm_gen: Duration,
    warm_touch: Duration,
    warm_touches: u64,
    inst_gen: Duration,
    /// `Core::run` (warm-up and measured windows), generation included.
    core_run: Duration,
    cell: Duration,
    ticked: u64,
    skipped: u64,
    bank_conflicts: u64,
}

impl CellTrace {
    fn matches(&self, (run, mem, skipped): &CellStats) -> bool {
        self.run == *run && self.mem == *mem && self.skipped == *skipped
    }
}

/// Warm streams memoized per thread, as `SimBuilder::run` does, so the
/// replica does the same work as the program: generate once per
/// `(benchmark, seed, cache_warm)`, replay into every later cell.
struct WarmRecord {
    key: (Benchmark, u64, u64),
    gen: WorkloadGen,
    addrs: Vec<u64>,
}

/// Entries the memo keeps, as in `SimBuilder::run`.
const WARM_MEMO_ENTRIES: usize = 4;

thread_local! {
    static WARM_MEMO: RefCell<Vec<WarmRecord>> = const { RefCell::new(Vec::new()) };
}

/// Functionally warms `mem`; returns the post-warm generator, the
/// generation time (zero on a memo hit), the replay time and the number
/// of addresses touched.
fn warm(
    cell: &CellSpec,
    cache_warm: u64,
    mem: &mut MemSystem,
) -> (WorkloadGen, Duration, Duration, u64) {
    let key = (cell.bench, cell.seed, cache_warm);
    WARM_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        let mut gen_time = Duration::ZERO;
        let record = match memo.iter().position(|r| r.key == key) {
            Some(i) => memo.remove(i),
            None => {
                let start = Instant::now();
                let mut gen = WorkloadGen::new(cell.bench, cell.seed);
                let addrs = (0..cache_warm).filter_map(|_| gen.next_warm()).collect();
                gen_time = start.elapsed();
                WarmRecord { key, gen, addrs }
            }
        };
        let start = Instant::now();
        for &addr in &record.addrs {
            mem.warm_touch(addr);
        }
        let touch_time = start.elapsed();
        let out = (record.gen.clone(), gen_time, touch_time, record.addrs.len() as u64);
        if memo.len() == WARM_MEMO_ENTRIES {
            memo.remove(0);
        }
        memo.push(record);
        out
    })
}

/// Instructions the stream adapter generates per timed refill.
const REFILL: usize = 256;

type Inst = <WorkloadGen as Iterator>::Item;

/// The instruction stream `Core` consumes, refilled in timed chunks so
/// generation time can be told apart from the core's own.
struct TimedStream {
    gen: WorkloadGen,
    buf: VecDeque<Inst>,
    spent: Rc<Cell<Duration>>,
}

impl Iterator for TimedStream {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        if self.buf.is_empty() {
            let start = Instant::now();
            self.buf.extend((0..REFILL).map(|_| self.gen.next_inst()));
            self.spent.set(self.spent.get() + start.elapsed());
        }
        self.buf.pop_front()
    }
}

/// Runs one cell through the instrumented replica of `SimBuilder::run`.
fn traced_cell(params: &ExpParams, cell: &CellSpec) -> CellTrace {
    let start = Instant::now();
    let mut mem = MemSystem::new(cell.builder(params).mem_config())
        .expect("sweep cells use valid memory configurations");
    let (gen, warm_gen, warm_touch, warm_touches) = warm(cell, params.cache_warm, &mut mem);
    let spent = Rc::new(Cell::new(Duration::ZERO));
    let stream =
        TimedStream { gen, buf: VecDeque::with_capacity(REFILL), spent: Rc::clone(&spent) };
    let mut core =
        Core::new(CpuConfig::paper(), mem, stream).expect("the paper's CPU configuration is valid");
    core.set_event_horizon(true);
    let run_start = Instant::now();
    if params.warmup > 0 {
        core.run(params.warmup);
    }
    let run = core.run(params.instructions);
    let core_run = run_start.elapsed();
    let skipped = core.skipped_cycles();
    CellTrace {
        run,
        mem: core.mem().stats().clone(),
        warm_gen,
        warm_touch,
        warm_touches,
        inst_gen: spent.get(),
        core_run,
        cell: start.elapsed(),
        ticked: core.now() - skipped,
        skipped,
        bank_conflicts: core.mem().bank_conflicts(),
    }
}

/// The per-layer run: untraced and traced passes alternate until the time
/// is up; per-layer values are per traced pass (means over passes).
fn traced(args: &Args, report: &mut Report, params: &ExpParams, cells: &[CellSpec], pass: Pass) {
    let fig6_reference = matches!(pass, Pass::Fig6).then(|| fig6_reference(params));
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traces: Vec<CellTrace> = Vec::new();
    let start = Instant::now();
    // At least two pairs, so each side runs first once.
    while traced_walls.len() < 2 || start.elapsed() < args.seconds {
        // Alternate which side of a pair runs first, so neither always
        // pays for a cold process.
        let traced_first = traced_walls.len() % 2 == 1;
        let mut replica = Vec::new();
        let mut trace_pass = || {
            let t = Instant::now();
            replica = run_cells(params.jobs, cells.len(), |i| traced_cell(params, &cells[i]));
            traced_walls.push(t.elapsed().as_secs_f64());
        };
        if traced_first {
            trace_pass();
        }
        let t = Instant::now();
        let output = pass.run(params, cells);
        untraced_walls.push(t.elapsed().as_secs_f64());
        if !traced_first {
            trace_pass();
        }
        if let (Some(reference), PassOutput::Table(table)) = (&fig6_reference, &output) {
            check_table(report, reference, &table.to_string(), "fig6 untraced pass");
        }
        for (i, cell) in replica.iter().enumerate() {
            report.check(output.agrees(i, cell), || {
                format!("traced cell {i} ({:?}) differs from SimBuilder::run", cells[i])
            });
        }
        traces.extend(replica);
    }
    if let Pass::Fig6 = pass {
        // The table shows only IPC, while the per-layer figures report the
        // replica's full counts: check those once against `SimBuilder::run`,
        // outside the timed passes.
        let reference = cell_stats(params, cells);
        for (k, cell) in traces.iter().enumerate() {
            let i = k % cells.len();
            report.check(cell.matches(&reference[i]), || {
                format!("traced cell {i} ({:?}) counts differ from SimBuilder::run", cells[i])
            });
        }
    }
    let passes = traced_walls.len() as f64;
    let per_pass = |f: &dyn Fn(&CellTrace) -> f64| traces.iter().map(f).sum::<f64>() / passes;
    let warm_gen = per_pass(&|c| ms(c.warm_gen));
    let warm_touch = per_pass(&|c| ms(c.warm_touch));
    let inst_gen = per_pass(&|c| ms(c.inst_gen));
    let cpu_run = per_pass(&|c| ms(c.core_run.saturating_sub(c.inst_gen)));
    let cell_total = per_pass(&|c| ms(c.cell));
    let ticked = per_pass(&|c| c.ticked as f64);
    let wall_ms = traced_walls.iter().sum::<f64>() * 1e3 / passes;
    let jobs = params.jobs as f64;
    let exec_idle = jobs * wall_ms - cell_total;
    let layers = warm_gen + warm_touch + inst_gen + cpu_run;
    let cell_ms: Vec<f64> = traces.iter().map(|c| ms(c.cell)).collect();
    println!(
        "  traced pass: wall {wall_ms:.1} ms x {jobs} jobs = cells {cell_total:.1} ms + exec idle \
         {exec_idle:.1} ms; cells = layers {layers:.1} ms + unattributed {:.1} ms",
        cell_total - layers
    );
    report.set("workloads.warm_gen_ms", warm_gen);
    report.set("workloads.inst_gen_ms", inst_gen);
    report.set("mem.warm_touch_ms", warm_touch);
    report.set("mem.warm_touches", per_pass(&|c| c.warm_touches as f64));
    report.set("mem.l1_load_misses", per_pass(&|c| c.mem.l1_load_misses as f64));
    report.set("mem.lb_hits", per_pass(&|c| c.mem.lb_hits as f64));
    report.set("mem.bank_conflicts", per_pass(&|c| c.bank_conflicts as f64));
    report.set("cpu.run_ms", cpu_run);
    report.set("cpu.ticked_cycles", ticked);
    report.set("cpu.skipped_cycles", per_pass(&|c| c.skipped as f64));
    report.set("cpu.ns_per_ticked_cycle", cpu_run * 1e6 / ticked.max(1.0));
    report.set("core.cells", cell_ms.len() as f64);
    report.set("core.cell_p50_ms", show("traced cell", &cell_ms, 50.0, "ms"));
    report.set("core.cell_max_ms", show("traced cell", &cell_ms, 100.0, "ms"));
    report.set("core.exec_idle_ms", exec_idle);
    // End to end (the traced pass's wall) minus the layer sum, in wall
    // time: what neither a layer nor exec idling accounts for.
    report.set("unattributed_ms", wall_ms - (layers + exec_idle) / jobs);
    report.set("trace_overhead", median(&traced_walls) / median(&untraced_walls));
}
