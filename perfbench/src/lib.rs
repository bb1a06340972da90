//! The repository benchmark: three quick-scale registry cells driven from
//! outside through `SimulationBuilder::run`, every run checked against the
//! committed golden, plus a profiled run whose counts are priced by
//! per-layer replays into a ledger against the measured wall time.
//!
//! Everything runs single-threaded, one process at a time. See
//! `README.md` in this directory for the workloads, the metrics and what
//! the ledger's residue holds.

pub mod golden;
mod replay;

use domino_core::obs::{CostPath, CostProfile, ProfHandle};
use domino_core::topology::{ConflictGraph, Network};
use domino_core::{scenarios, RunReport, Scheme, SimulationBuilder, TraceHandle};
use golden::Expected;
use replay::Timers;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// The registry's default master seed: the seed the committed goldens
/// were generated with.
pub const DEFAULT_SEED: u64 = 1;

/// Cells per pass of the Fig 12 workload. One TCP cell's peak memory
/// and run time swing by ±15% with its seed, so one pass times several.
const FIG12_CELLS: usize = 4;

/// Random T(20,3) topologies per pass of a Fig 14 workload. Their run
/// times differ by up to 2×, so one pass times several.
const FIG14_TOPOLOGIES: usize = 8;

/// Set-up measurements before each pass; `setup_s` is the median of
/// all of them, so it samples the whole run rather than its first moment.
const SETUP_REPS_PER_PASS: usize = 3;

/// Simulated horizon of the run that times world construction from
/// outside: long enough to build the world, too short to simulate.
const WORLD_HORIZON_S: f64 = 1e-6;

/// Engine replay length, pops per timer band.
const ENGINE_POPS: u64 = 1_000_000;
/// Medium replay length, begin/end pairs per topology.
const MEDIUM_PAIRS: u64 = 100_000;
/// Scheduler replay length, controller rounds per topology.
const SCHEDULER_ROUNDS: u64 = 2_000;

/// One benchmark workload: a quick-scale cell of the experiment registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig 12's TCP shard under DOMINO: T(10,2), 10 Mb/s down and 4 Mb/s
    /// up per link, 4 s simulated.
    Fig12TcpDomino,
    /// Fig 14's random T(20,3) topologies, 10 Mb/s UDP each way, DCF,
    /// 2 s simulated each.
    Fig14UdpDcf,
    /// The same topologies and traffic under DOMINO.
    Fig14UdpDomino,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig12TcpDomino,
        Workload::Fig14UdpDcf,
        Workload::Fig14UdpDomino,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig12TcpDomino => "fig12-tcp-domino",
            Workload::Fig14UdpDcf => "fig14-udp-dcf",
            Workload::Fig14UdpDomino => "fig14-udp-domino",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The MAC scheme the workload runs.
    pub(crate) fn scheme(self) -> Scheme {
        match self {
            Workload::Fig14UdpDcf => Scheme::Dcf,
            Workload::Fig12TcpDomino | Workload::Fig14UdpDomino => Scheme::Domino,
        }
    }

    /// Simulation cells per pass.
    pub fn cells(self) -> usize {
        match self {
            Workload::Fig12TcpDomino => FIG12_CELLS,
            Workload::Fig14UdpDcf | Workload::Fig14UdpDomino => FIG14_TOPOLOGIES,
        }
    }

    /// The registry's simulated duration of one cell.
    pub fn duration_s(self) -> f64 {
        match self {
            Workload::Fig12TcpDomino => 4.0,
            Workload::Fig14UdpDcf | Workload::Fig14UdpDomino => 2.0,
        }
    }

    /// The network of cell `index` (the registry's scenario call).
    fn network(self, seed: u64, index: usize) -> Network {
        let seed = cell_seed(seed, index);
        match self {
            Workload::Fig12TcpDomino => scenarios::standard_t(10, 2, seed),
            Workload::Fig14UdpDcf | Workload::Fig14UdpDomino => scenarios::random_t(20, 3, seed),
        }
    }

    /// The configured builder of cell `index` over `horizon_s` simulated
    /// seconds, built as the registry shard builds it.
    fn builder(self, seed: u64, index: usize, horizon_s: f64) -> SimulationBuilder {
        let builder = SimulationBuilder::new(self.network(seed, index))
            .duration_s(horizon_s)
            .seed(cell_seed(seed, index));
        match self {
            Workload::Fig12TcpDomino => builder.tcp(10e6, 4e6),
            Workload::Fig14UdpDcf | Workload::Fig14UdpDomino => builder.udp(10e6, 10e6),
        }
    }
}

/// Topology and simulation seed of cell `index`: the Fig 14 registry's
/// `seed + i·1000`, so cell 0 is always the registry cell of `seed`.
fn cell_seed(seed: u64, index: usize) -> u64 {
    seed + index as u64 * 1000
}

/// What one benchmark run does.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Master seed; the inputs are a pure function of it.
    pub seed: u64,
    /// Host seconds to keep measuring for (at least one pass runs).
    pub seconds: f64,
    /// Simulated seconds per cell (the registry's duration by default).
    pub horizon_s: f64,
    /// Cells per pass (the workload's default by default).
    pub cells: usize,
    /// Golden row per cell, where the committed goldens hold one; every
    /// cell is also checked for runs that agree with each other.
    pub expected: Vec<Option<Expected>>,
    /// This benchmark's executable, run with `--cell` for each isolated
    /// run of the end-to-end measurement.
    pub exe: PathBuf,
}

impl Options {
    /// The registry cell of `workload` at `seed`, measured for `seconds`,
    /// with no golden attached.
    pub fn new(workload: Workload, seed: u64, seconds: f64, exe: PathBuf) -> Options {
        Options {
            workload,
            seed,
            seconds,
            horizon_s: workload.duration_s(),
            cells: workload.cells(),
            expected: Vec::new(),
            exe,
        }
    }

    fn builders(&self) -> Vec<SimulationBuilder> {
        (0..self.cells)
            .map(|i| self.workload.builder(self.seed, i, self.horizon_s))
            .collect()
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Simulation runs made (one operation each).
    pub attempted: u64,
    /// Runs that panicked, livelocked, or disagreed with the golden or
    /// with another run of the same cell.
    pub failed: u64,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
    /// Host seconds of each untraced pass, in run order.
    pub passes: Vec<f64>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What a run prints that the benchmark checks: the golden's values and
/// a digest of every field of the run's stats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSummary {
    /// Aggregate goodput, Mb/s.
    pub goodput_mbps: f64,
    /// Mean per-link delay, ms.
    pub delay_ms: f64,
    /// Jain's fairness index over the flow links.
    pub fairness: f64,
    /// Livelocks the liveness monitor declared.
    pub livelocks: u64,
    /// Digest of the stats' `Debug` form (which prints floats exactly).
    pub digest: u64,
}

impl RunSummary {
    /// Summarise `report`.
    pub fn of(report: &RunReport) -> RunSummary {
        struct HashWriter(std::collections::hash_map::DefaultHasher);
        impl std::fmt::Write for HashWriter {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                s.hash(&mut self.0);
                Ok(())
            }
        }
        let mut w = HashWriter(std::collections::hash_map::DefaultHasher::new());
        let _ = std::fmt::write(&mut w, format_args!("{:?}", report.stats));
        RunSummary {
            goodput_mbps: report.aggregate_mbps(),
            delay_ms: report.mean_delay_us() / 1000.0,
            fairness: report.fairness(),
            livelocks: report.stats.faults.livelocks,
            digest: w.0.finish(),
        }
    }
}

/// One run of one cell in a process of its own.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellRun {
    /// Host seconds of `SimulationBuilder::run`.
    pub wall_s: f64,
    /// Peak resident set of the process, MB.
    pub peak_rss_mb: f64,
    /// What the run printed.
    pub summary: RunSummary,
}

impl CellRun {
    /// Build cell `index` of `workload`, then time one run of it.
    pub fn run(workload: Workload, seed: u64, index: usize, horizon_s: f64) -> CellRun {
        let builder = workload.builder(seed, index, horizon_s);
        let (report, wall_s) = timed(|| builder.run(workload.scheme()));
        CellRun {
            wall_s,
            peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
            summary: RunSummary::of(&report),
        }
    }

    /// The one-line form a cell process prints.
    pub fn encode(&self) -> String {
        let s = &self.summary;
        format!(
            "cell {:?} {:?} {:?} {:?} {:?} {} {}",
            self.wall_s,
            self.peak_rss_mb,
            s.goodput_mbps,
            s.delay_ms,
            s.fairness,
            s.livelocks,
            s.digest
        )
    }

    /// Inverse of [`CellRun::encode`].
    pub fn decode(line: &str) -> Option<CellRun> {
        let f: Vec<&str> = line.strip_prefix("cell ")?.split(' ').collect();
        let [wall, rss, goodput, delay, fairness, livelocks, digest] = f[..] else {
            return None;
        };
        Some(CellRun {
            wall_s: wall.parse().ok()?,
            peak_rss_mb: rss.parse().ok()?,
            summary: RunSummary {
                goodput_mbps: goodput.parse().ok()?,
                delay_ms: delay.parse().ok()?,
                fairness: fairness.parse().ok()?,
                livelocks: livelocks.parse().ok()?,
                digest: digest.parse().ok()?,
            },
        })
    }
}

/// Run cell `index` in a fresh process of `opts.exe`, so its peak
/// resident set is its own. `None` when the process fails; its error
/// output goes to ours.
fn spawn_cell(opts: &Options, index: usize) -> Option<CellRun> {
    let out = std::process::Command::new(&opts.exe)
        .args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--cell", &index.to_string()])
        .args(["--horizon", &format!("{:?}", opts.horizon_s)])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(CellRun::decode)
}

/// Counts operations and checks each run: it finished, did not
/// livelock, prints the golden row when one is attached, and has stats
/// identical to every other run of the same cell (traced or not).
struct Checker {
    expected: Vec<Option<Expected>>,
    reference: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(opts: &Options) -> Checker {
        Checker {
            expected: opts.expected.clone(),
            reference: vec![None; opts.cells],
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, cell: usize, run: Option<&RunSummary>) {
        self.attempted += 1;
        let Some(run) = run else {
            self.failed += 1;
            return;
        };
        let reference = *self.reference[cell].get_or_insert(run.digest);
        let golden = self
            .expected
            .get(cell)
            .and_then(Option::as_ref)
            .is_none_or(|e| e.matches(run));
        if run.livelocks != 0 || !golden || run.digest != reference {
            self.failed += 1;
        }
    }
}

/// The host wall clock: the one place the benchmark reads it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Clock(
    // lint: allow(D001) the benchmark's purpose is host wall time
    std::time::Instant,
);

impl Clock {
    /// Start timing now.
    pub(crate) fn start() -> Clock {
        // lint: allow(D001) the benchmark's purpose is host wall time
        Clock(std::time::Instant::now())
    }

    /// Host seconds since [`Clock::start`].
    pub(crate) fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Run `f` and return its result with the host seconds it took.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Clock::start();
    let out = f();
    (out, clock.secs())
}

/// Median of `v` (sorted in place); 0 for an empty slice.
pub(crate) fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One in-process pass over every cell, untraced (`prof` false) or with
/// a cost profiler attached. Returns the summed run seconds and, per
/// cell, the report and profile of runs that did not panic.
fn pass(
    opts: &Options,
    cells: &[SimulationBuilder],
    checker: &mut Checker,
    prof: bool,
) -> (f64, Vec<Option<(RunReport, CostProfile)>>) {
    let scheme = opts.workload.scheme();
    let mut wall = 0.0;
    let mut outs = Vec::with_capacity(cells.len());
    for (i, builder) in cells.iter().enumerate() {
        let (run, secs) = timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                if prof {
                    let (handle, profiler) = ProfHandle::collecting();
                    let report = builder.run_profiled(scheme, TraceHandle::off(), handle);
                    (report, profiler.snapshot())
                } else {
                    (builder.run(scheme), CostProfile::default())
                }
            }))
        });
        wall += secs;
        let run = run.ok();
        checker.check(i, run.as_ref().map(|(r, _)| RunSummary::of(r)).as_ref());
        outs.push(run);
    }
    (wall, outs)
}

/// Host seconds to build the scenario, the builder and the world of every
/// cell once (the world by a run with a 1 µs horizon).
fn setup_seconds(opts: &Options) -> f64 {
    let scheme = opts.workload.scheme();
    (0..opts.cells)
        .map(|i| {
            timed(|| {
                opts.workload
                    .builder(opts.seed, i, WORLD_HORIZON_S)
                    .run(scheme)
            })
            .1
        })
        .sum()
}

/// Peak resident set of this process so far, MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end run, tracing off: `wall_s` is the median pass (every
/// cell once, each in a fresh process), `setup_s` the median set-up of
/// every cell (measured before each pass), `peak_rss_mb` the median over
/// passes of the cells' mean peak resident set.
pub fn measure(opts: &Options) -> Outcome {
    let mut checker = Checker::new(opts);
    let clock = Clock::start();
    let (mut walls, mut rss, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    while walls.is_empty() || clock.secs() < opts.seconds {
        setups.extend((0..SETUP_REPS_PER_PASS).map(|_| setup_seconds(opts)));
        let runs: Vec<Option<CellRun>> = (0..opts.cells).map(|i| spawn_cell(opts, i)).collect();
        for (i, run) in runs.iter().enumerate() {
            checker.check(i, run.as_ref().map(|r| &r.summary));
        }
        let ok: Vec<CellRun> = runs.into_iter().flatten().collect();
        walls.push(ok.iter().map(|r| r.wall_s).sum());
        rss.push(ok.iter().map(|r| r.peak_rss_mb).sum::<f64>() / ok.len().max(1) as f64);
    }
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        passes: walls.clone(),
        metrics: vec![
            Metric {
                name: "wall_s",
                unit: "s",
                value: median(&mut walls),
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(&mut setups),
            },
            Metric {
                name: "peak_rss_mb",
                unit: "MB",
                value: median(&mut rss),
            },
        ],
    }
}

/// The traced run: a profiled pass next to untraced ones, per-layer
/// counts from the profile, unit costs from the replays, and the ledger.
pub fn trace(opts: &Options) -> Outcome {
    let scheme = opts.workload.scheme();
    let cells = opts.builders();
    let nets: Vec<&Network> = cells.iter().map(SimulationBuilder::network_ref).collect();
    let build_ms = (0..opts.cells)
        .map(|i| replay::median_ms(3, || drop(opts.workload.network(opts.seed, i))))
        .sum::<f64>()
        / opts.cells as f64;
    let graphs: Vec<ConflictGraph> = nets.iter().map(|n| ConflictGraph::build(n)).collect();
    let graph_ms = nets
        .iter()
        .map(|n| replay::median_ms(3, || drop(ConflictGraph::build(n))))
        .sum::<f64>()
        / nets.len() as f64;
    let world_ms: f64 = (0..opts.cells)
        .map(|i| {
            let b = opts.workload.builder(opts.seed, i, WORLD_HORIZON_S);
            replay::median_ms(3, || drop(b.run(scheme)))
        })
        .sum();

    // Untraced and profiled passes alternate until the time is up.
    let mut checker = Checker::new(opts);
    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<Option<(RunReport, CostProfile)>>> = None;
    let clock = Clock::start();
    while plain.is_empty() || clock.secs() < opts.seconds {
        plain.push(pass(opts, &cells, &mut checker, false).0);
        let (wall, outs) = pass(opts, &cells, &mut checker, true);
        profiled.push(wall);
        first.get_or_insert(outs);
    }
    // One profiled run per cell, `None` where it panicked (a failed
    // operation already), so the cells stay aligned with their replays.
    let first = first.unwrap_or_default();
    let runs: Vec<&(RunReport, CostProfile)> = first.iter().flatten().collect();
    let passes = plain.clone();
    let wall_ms = median(&mut plain) * 1e3;
    let traced_ms = median(&mut profiled) * 1e3;

    let count = |path: CostPath| runs.iter().map(|(_, p)| p.get(path)).sum::<u64>() as f64;
    let stat = |f: &dyn Fn(&RunReport) -> f64| runs.iter().map(|(r, _)| f(r)).sum::<f64>();
    let mean = |f: &dyn Fn(&RunReport) -> f64| stat(f) / runs.len().max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let pops = count(CostPath::EnginePop);
    let traffic = count(CostPath::EvTraffic);
    let begins = count(CostPath::MediumBegin);
    let adjudications = [
        CostPath::AdjData,
        CostPath::AdjMacAck,
        CostPath::AdjPoll,
        CostPath::AdjRopReport,
        CostPath::AdjSignature,
    ]
    .into_iter()
    .map(count)
    .sum::<f64>();
    let computes = count(CostPath::CtrlCompute);
    let detects = count(CostPath::SigDetect);
    let events = stat(&|r| r.stats.events as f64);
    let delivered = stat(&|r| r.stats.delays.iter().map(|d| d.count() as f64).sum());

    // Unit costs, replayed on each cell's own network and seed. The
    // engine replays hold the timer population the workload's insert
    // rate implies in each band; the measured cascades per pop then give
    // the share of pops that behave like far timers.
    let inserts_per_s = count(CostPath::WheelInsert) / (opts.horizon_s * runs.len().max(1) as f64);
    let engine =
        |t: Timers| replay::engine_cost(opts.seed, t.pending(inserts_per_s), t, ENGINE_POPS);
    let (near, far) = (engine(Timers::Near), engine(Timers::Far));
    let cascades_per_pop = ratio(count(CostPath::WheelCascade), pops);
    let far_share = if far.cascades_per_pop > near.cascades_per_pop {
        ((cascades_per_pop - near.cascades_per_pop)
            / (far.cascades_per_pop - near.cascades_per_pop))
            .clamp(0.0, 1.0)
    } else {
        0.0
    };
    let medium_ns: Vec<f64> = nets
        .iter()
        .zip(&graphs)
        .map(|(n, g)| replay::medium_ns_per_begin_end(n, g, opts.seed, MEDIUM_PAIRS))
        .collect();
    let convert_us: Vec<f64> = if computes > 0.0 {
        nets.iter()
            .zip(&graphs)
            .map(|(n, g)| replay::scheduler_us_per_round(n, g, SCHEDULER_ROUNDS))
            .collect()
    } else {
        vec![0.0; nets.len()]
    };

    let sim_est = pops * ((1.0 - far_share) * near.ns_per_pop + far_share * far.ns_per_pop) / 1e6;
    let per_cell = |unit: &[f64], path: CostPath| -> f64 {
        first
            .iter()
            .zip(unit)
            .filter_map(|(run, u)| run.as_ref().map(|(_, p)| p.get(path) as f64 * u))
            .sum()
    };
    let medium_est = per_cell(&medium_ns, CostPath::MediumBegin) / 1e6;
    let scheduler_est = per_cell(&convert_us, CostPath::CtrlCompute) / 1e3;
    let explained = sim_est + medium_est + scheduler_est + world_ms;
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    let m = |name, unit, value| Metric { name, unit, value };
    Outcome {
        passes,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            m("sim.pops", "count", pops),
            m("sim.inserts", "count", count(CostPath::WheelInsert)),
            m("sim.cascades_per_pop", "ratio", cascades_per_pop),
            m("sim.ns_per_pop.near", "ns", near.ns_per_pop),
            m("sim.ns_per_pop.far", "ns", far.ns_per_pop),
            m("sim.far_share", "ratio", far_share),
            m("sim.ns_per_event", "ns", ratio(wall_ms * 1e6, events)),
            m("traffic.events", "count", traffic),
            m(
                "traffic.events_per_delivered_pkt",
                "ratio",
                ratio(traffic, delivered),
            ),
            m(
                "traffic.tcp_retransmissions",
                "count",
                stat(&|r| r.stats.tcp_retransmissions as f64),
            ),
            m("medium.begins", "count", begins),
            m("medium.adjudications", "count", adjudications),
            m(
                "medium.adj_per_begin",
                "ratio",
                ratio(adjudications, begins),
            ),
            m("medium.ns_per_begin_end", "ns", avg(&medium_ns)),
            m("mac.slot_events", "count", count(CostPath::EvSlot)),
            m("mac.retries", "count", stat(&|r| r.stats.retries as f64)),
            m(
                "mac.ack_timeouts",
                "count",
                stat(&|r| r.stats.ack_timeouts as f64),
            ),
            m("mac.drops", "count", stat(&|r| r.stats.drops as f64)),
            m("mac.goodput_mbps", "Mb/s", mean(&|r| r.aggregate_mbps())),
            m(
                "mac.mean_delay_ms",
                "ms",
                mean(&|r| r.mean_delay_us() / 1000.0),
            ),
            m("mac.fairness", "ratio", mean(&|r| r.fairness())),
            m("scheduler.computes", "count", computes),
            m("scheduler.slots", "count", count(CostPath::CtrlSlots)),
            m("scheduler.actions", "count", count(CostPath::CtrlActions)),
            m("scheduler.convert_us", "us", avg(&convert_us)),
            m("signature.emits", "count", count(CostPath::SigEmit)),
            m("signature.targets", "count", count(CostPath::SigTargets)),
            m(
                "signature.detect_ratio",
                "ratio",
                ratio(detects, detects + count(CostPath::SigMiss)),
            ),
            m("rop.polls", "count", count(CostPath::RopPoll)),
            m("rop.reports", "count", count(CostPath::RopReport)),
            m("topology.build_ms", "ms", build_ms),
            m("topology.conflict_graph_ms", "ms", graph_ms),
            m(
                "wired.dispatch_msgs",
                "count",
                count(CostPath::CtrlDispatchMsgs),
            ),
            m(
                "obs.trace_overhead",
                "ratio",
                ratio(traced_ms, wall_ms) - 1.0,
            ),
            m("sim.est_ms", "ms", sim_est),
            m("medium.est_ms", "ms", medium_est),
            m("scheduler.est_ms", "ms", scheduler_est),
            m("setup.est_ms", "ms", world_ms),
            m("ledger.wall_ms", "ms", wall_ms),
            m(
                "ledger.explained_pct",
                "%",
                ratio(100.0 * explained, wall_ms),
            ),
            m("ledger.residue_ms", "ms", wall_ms - explained),
        ],
    }
}
