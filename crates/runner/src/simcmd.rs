//! `domino-run sim` — one crash-resumable simulation run.
//!
//! The experiment registry answers "regenerate the paper"; this
//! subcommand answers "run one configured simulation, snapshot it at
//! checkpoints, and finish it later in a fresh process". Checkpoints are
//! the sealed containers of [`domino_sim::snapshot`]: versioned,
//! digest-verified, and bound to the complete run configuration, so a
//! resume under the wrong scheme, seed, or fault plane fails loudly
//! instead of silently diverging. The rendered stats block is a pure
//! function of the run — a restored run's block byte-matches the
//! uninterrupted run's, which is exactly what the CI gate diffs.

use domino_core::{
    scenarios, Checkpoints, FaultConfig, RunOptions, RunReport, Scheme, SimulationBuilder,
};
use domino_sim::SimTime;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Usage string for the subcommand (the binary prints it on `--help`).
pub const USAGE: &str = "usage: domino-run sim --scheme <dcf|centaur|domino|omniscient> \
[--scenario <fig1|fig7|t6x2>] [--seed <n>] [--duration-s <s>] \
[--udp <down_bps>,<up_bps>] [--chaos <x>] [--standby] [--ctrl-crash <p>] \
[--checkpoint-every-us <n> | --checkpoint-at-us <t>]... [--state-dir <dir>] \
[--restore <file>]";

/// Built-in network scenarios the subcommand can instantiate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// The paper's Fig. 1 topology.
    Fig1,
    /// The paper's Fig. 7 topology.
    Fig7,
    /// The standard T(6,2) enterprise topology (seeded).
    T6x2,
}

impl Scenario {
    /// Stable lowercase name (stats-block field; `domino-profile` header).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Fig1 => "fig1",
            Scenario::Fig7 => "fig7",
            Scenario::T6x2 => "t6x2",
        }
    }
}

/// Parsed `domino-run sim …` invocation.
#[derive(Clone, Debug)]
pub struct SimArgs {
    /// MAC scheme to run.
    pub scheme: Scheme,
    /// Network scenario.
    pub scenario: Scenario,
    /// Master seed.
    pub seed: u64,
    /// Simulated horizon in seconds.
    pub duration_s: f64,
    /// UDP workload `(down_bps, up_bps)`.
    pub udp: (f64, f64),
    /// Chaos fault intensity (0 = fault plane off).
    pub chaos: f64,
    /// Enable the warm-standby controller.
    pub standby: bool,
    /// Per-compute controller crash probability.
    pub ctrl_crash: f64,
    /// Periodic checkpoint interval in µs (expanded to boundaries).
    pub checkpoint_every_us: Option<f64>,
    /// Explicit checkpoint times in µs.
    pub checkpoint_at_us: Vec<f64>,
    /// Directory the sealed checkpoint files are written to.
    pub state_dir: PathBuf,
    /// Resume from this sealed checkpoint instead of starting at t=0.
    pub restore: Option<PathBuf>,
}

/// Parse the subcommand's arguments (everything after `sim`).
pub fn parse(args: &[String]) -> Result<SimArgs, String> {
    let mut out = SimArgs {
        scheme: Scheme::Domino,
        scenario: Scenario::T6x2,
        seed: 1,
        duration_s: 1.0,
        udp: (8e6, 2e6),
        chaos: 0.0,
        standby: false,
        ctrl_crash: 0.0,
        checkpoint_every_us: None,
        checkpoint_at_us: Vec::new(),
        state_dir: PathBuf::from("."),
        restore: None,
    };
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scheme" => {
                out.scheme = match need(&mut it, "--scheme")?.as_str() {
                    "dcf" => Scheme::Dcf,
                    "centaur" => Scheme::Centaur,
                    "domino" => Scheme::Domino,
                    "omniscient" => Scheme::Omniscient,
                    other => return Err(format!("unknown scheme {other}")),
                };
            }
            "--scenario" => {
                out.scenario = match need(&mut it, "--scenario")?.as_str() {
                    "fig1" => Scenario::Fig1,
                    "fig7" => Scenario::Fig7,
                    "t6x2" => Scenario::T6x2,
                    other => return Err(format!("unknown scenario {other}")),
                };
            }
            "--seed" => {
                out.seed = need(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--duration-s" => {
                out.duration_s = parse_f64(&need(&mut it, "--duration-s")?, "--duration-s")?;
            }
            "--udp" => {
                let v = need(&mut it, "--udp")?;
                let (down, up) =
                    v.split_once(',').ok_or("--udp needs <down_bps>,<up_bps>")?;
                out.udp = (parse_f64(down, "--udp")?, parse_f64(up, "--udp")?);
            }
            "--chaos" => out.chaos = parse_f64(&need(&mut it, "--chaos")?, "--chaos")?,
            "--standby" => out.standby = true,
            "--ctrl-crash" => {
                out.ctrl_crash = parse_f64(&need(&mut it, "--ctrl-crash")?, "--ctrl-crash")?;
            }
            "--checkpoint-every-us" => {
                out.checkpoint_every_us =
                    Some(parse_f64(&need(&mut it, "--checkpoint-every-us")?, "--checkpoint-every-us")?);
            }
            "--checkpoint-at-us" => {
                out.checkpoint_at_us
                    .push(parse_f64(&need(&mut it, "--checkpoint-at-us")?, "--checkpoint-at-us")?);
            }
            "--state-dir" => out.state_dir = need(&mut it, "--state-dir")?.into(),
            "--restore" => out.restore = Some(need(&mut it, "--restore")?.into()),
            "--help" | "-h" => return Err(String::new()),
            flag => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn parse_f64(v: &str, flag: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite() && *x >= 0.0)
        .ok_or_else(|| format!("{flag} needs a non-negative number"))
}

/// The run's outcome: the deterministic stats block, plus the sealed
/// checkpoint files for the caller to write (the library never prints).
#[derive(Debug)]
pub struct SimOutcome {
    /// Rendered stats block (byte-identical for interrupted-then-resumed
    /// and uninterrupted runs of the same configuration).
    pub text: String,
    /// `(path, sealed bytes)` of every checkpoint taken, ascending in t.
    pub checkpoints: Vec<(PathBuf, Vec<u8>)>,
}

/// Ascending checkpoint boundaries from `--checkpoint-every-us` and
/// `--checkpoint-at-us`, capped at the horizon.
fn boundaries(args: &SimArgs) -> Vec<SimTime> {
    let horizon_ns = (args.duration_s * 1e9).round() as u64;
    let mut ns: Vec<u64> = args
        .checkpoint_at_us
        .iter()
        .map(|us| (us * 1e3).round() as u64)
        .collect();
    if let Some(every_us) = args.checkpoint_every_us {
        let step = (every_us * 1e3).round() as u64;
        if step > 0 {
            let mut t = step;
            while t < horizon_ns {
                ns.push(t);
                t += step;
            }
        }
    }
    ns.sort_unstable();
    ns.dedup();
    ns.retain(|&t| t > 0 && t < horizon_ns);
    ns.into_iter().map(SimTime::from_nanos).collect()
}

fn builder(args: &SimArgs) -> SimulationBuilder {
    let net = match args.scenario {
        Scenario::Fig1 => scenarios::fig1(),
        Scenario::Fig7 => scenarios::fig7(),
        Scenario::T6x2 => scenarios::standard_t(6, 2, args.seed),
    };
    let mut faults = if args.chaos > 0.0 {
        FaultConfig::chaos(args.chaos)
    } else {
        FaultConfig::off()
    };
    faults.ctrl_crash = args.ctrl_crash;
    faults.standby = args.standby;
    SimulationBuilder::new(net)
        .udp(args.udp.0, args.udp.1)
        .duration_s(args.duration_s)
        .seed(args.seed)
        .faults(faults)
}

/// Execute the parsed invocation: restore-and-finish when `--restore` is
/// given, otherwise run from t=0, sealing a checkpoint at each boundary.
pub fn run(args: &SimArgs) -> Result<SimOutcome, String> {
    let b = builder(args);
    let mut checkpoints = Vec::new();
    let sealed = match &args.restore {
        Some(path) => Some(
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let state_dir = args.state_dir.clone();
    let mut sink = |t: SimTime, sealed: Vec<u8>| {
        let file = state_dir.join(format!("ckpt_{:012}.dsnp", t.as_nanos()));
        checkpoints.push((file, sealed));
    };
    let at = boundaries(args);
    let mut opts = RunOptions { restore: sealed.as_deref(), ..RunOptions::default() };
    if sealed.is_none() {
        opts.checkpoints = Some(Checkpoints { at: &at, sink: &mut sink });
    }
    let report = b.run_with(args.scheme, &mut opts).map_err(|e| match &args.restore {
        Some(path) => format!("cannot resume from {}: {e:?}", path.display()),
        None => format!("run failed: {e:?}"),
    })?;
    Ok(SimOutcome { text: render_stats(args, &report), checkpoints })
}

/// Render the deterministic stats block. Integer counters are printed
/// exactly; throughput/delay/fairness use fixed precision. Identical
/// `RunStats` render to identical bytes, which is what makes the
/// snapshot CI gate a byte-diff.
pub fn render_stats(args: &SimArgs, r: &RunReport) -> String {
    let s = &r.stats;
    let mut out = String::new();
    let _ = writeln!(out, "scheme: {}", r.scheme.label());
    let _ = writeln!(out, "scenario: {}", args.scenario.name());
    let _ = writeln!(out, "seed: {}", args.seed);
    let _ = writeln!(out, "duration_s: {:.6}", args.duration_s);
    let _ = writeln!(out, "events: {}", s.events);
    let delivered: Vec<String> = s.delivered_bits.iter().map(u64::to_string).collect();
    let _ = writeln!(out, "delivered_bits: [{}]", delivered.join(", "));
    let _ = writeln!(out, "drops: {}", s.drops);
    let _ = writeln!(out, "retries: {}", s.retries);
    let _ = writeln!(out, "ack_timeouts: {}", s.ack_timeouts);
    let _ = writeln!(out, "tcp_retransmissions: {}", s.tcp_retransmissions);
    let _ = writeln!(out, "aggregate_mbps: {:.6}", r.aggregate_mbps());
    let _ = writeln!(out, "mean_delay_us: {:.6}", r.mean_delay_us());
    let _ = writeln!(out, "fairness: {:.6}", r.fairness());
    for (name, count) in s.faults.classes() {
        let _ = writeln!(out, "fault.{name}: {count}");
    }
    for (name, count) in s.faults.recovery_classes() {
        let _ = writeln!(out, "recovery.{name}: {count}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_rejects_bad_input_and_accepts_good() {
        assert!(parse(&argv(&["--scheme", "nope"])).is_err());
        assert!(parse(&argv(&["--seed"])).is_err());
        assert!(parse(&argv(&["--udp", "8e6"])).is_err());
        assert!(parse(&argv(&["--bogus"])).is_err());
        let a = parse(&argv(&[
            "--scheme", "dcf", "--scenario", "fig7", "--seed", "9", "--duration-s", "0.5",
            "--checkpoint-every-us", "100000", "--checkpoint-at-us", "250000",
        ]))
        .unwrap();
        assert_eq!(a.scheme, Scheme::Dcf);
        assert_eq!(a.scenario, Scenario::Fig7);
        assert_eq!(a.seed, 9);
        let b = boundaries(&a);
        assert!(!b.is_empty());
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!(b.iter().all(|t| t.as_nanos() < 500_000_000));
    }

    #[test]
    fn checkpointed_run_emits_sealed_states_and_matches_plain_run() {
        let mut a = parse(&argv(&[
            "--scheme", "domino", "--scenario", "fig7", "--seed", "11", "--duration-s", "0.4",
            "--checkpoint-every-us", "100000",
        ]))
        .unwrap();
        let ckpt = run(&a).unwrap();
        assert_eq!(ckpt.checkpoints.len(), 3); // 100, 200, 300 ms
        a.checkpoint_every_us = None;
        let plain = run(&a).unwrap();
        assert_eq!(ckpt.text, plain.text);
    }

    #[test]
    fn restored_run_byte_matches_uninterrupted_stats() {
        let dir = std::env::temp_dir().join("domino_simcmd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = parse(&argv(&[
            "--scheme", "centaur", "--scenario", "t6x2", "--seed", "7", "--duration-s", "0.4",
            "--chaos", "0.5", "--checkpoint-at-us", "200000",
        ]))
        .unwrap();
        a.state_dir = dir.clone();
        let ckpt = run(&a).unwrap();
        assert_eq!(ckpt.checkpoints.len(), 1);
        let (path, bytes) = &ckpt.checkpoints[0];
        std::fs::write(path, bytes).unwrap();

        let mut resumed = a.clone();
        resumed.checkpoint_at_us.clear();
        resumed.restore = Some(path.clone());
        let restored = run(&resumed).unwrap();
        assert_eq!(restored.text, ckpt.text);
        assert!(restored.checkpoints.is_empty());
        let _ = std::fs::remove_file(path);
    }
}
