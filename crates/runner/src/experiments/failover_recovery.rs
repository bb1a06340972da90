//! Failover recovery: controller crash-recovery latency and throughput
//! dip vs checkpoint interval × crash intensity on T(6,2) under DOMINO.
//!
//! Each row is a recovery configuration: `cold` restarts the controller
//! from scratch after a fixed dark window (PR 4's degradation path), the
//! remaining rows enable the warm standby with progressively tighter
//! state-checkpoint intervals. Columns sweep the per-compute controller
//! crash probability. The gates: warm recovery is bounded by detection
//! plus replay of the since-last-checkpoint delta (so mean recovery
//! latency falls as checkpoints tighten), and every injected crash is
//! matched by a promotion — at most the final in-flight failover may be
//! cut off by the horizon, and no crash may strand the cell beyond it.

use super::util::{mbps, push_block};
use crate::plan::{Plan, RunDigest};
use crate::scale::Scale;
use domino_core::{scenarios, FaultConfig, FaultStats, Scheme, SimulationBuilder};
use domino_obs::jsonl::{self, TraceMeta};
use domino_obs::{ProfHandle, TraceHandle};
use domino_stats::Table;

/// Registry key.
pub const NAME: &str = "failover_recovery";
/// Output file under `results/`.
pub const OUTPUT: &str = "failover_recovery.txt";

/// Cold-restart dark window (µs): the controller loses all state and
/// stays dark this long, as in the chaos-degradation experiment.
const COLD_DOWNTIME_US: f64 = 20_000.0;

/// One recovery configuration (a table row).
#[derive(Clone, Copy)]
enum Recovery {
    /// No standby: fixed dark window, scheduler state lost.
    Cold,
    /// Warm standby checkpointed every `us` microseconds.
    Warm { ckpt_us: f64 },
}

impl Recovery {
    fn label(self) -> String {
        match self {
            Recovery::Cold => "cold restart".to_string(),
            Recovery::Warm { ckpt_us } => format!("warm ckpt={}ms", ckpt_us / 1000.0),
        }
    }

    fn faults(self, crash_p: f64) -> FaultConfig {
        let base = FaultConfig {
            ctrl_crash: crash_p,
            ctrl_downtime_us: COLD_DOWNTIME_US,
            ..FaultConfig::off()
        };
        match self {
            Recovery::Cold => base,
            // A tight heartbeat keeps the detection term (and its
            // crash-phase jitter) small, so the replay of the
            // since-last-checkpoint delta dominates mean recovery.
            Recovery::Warm { ckpt_us } => FaultConfig {
                standby: true,
                standby_checkpoint_us: ckpt_us,
                standby_heartbeat_us: 250.0,
                ..base
            },
        }
    }
}

struct Cell {
    tput: f64,
    faults: FaultStats,
}

fn grid(scale: Scale) -> (Vec<Recovery>, Vec<f64>) {
    let warm = |ckpt_us| Recovery::Warm { ckpt_us };
    match scale {
        Scale::Full => (
            vec![
                Recovery::Cold,
                warm(50_000.0),
                warm(20_000.0),
                warm(5_000.0),
                warm(2_000.0),
                warm(1_000.0),
            ],
            vec![0.01, 0.03, 0.10],
        ),
        Scale::Quick => (
            vec![Recovery::Cold, warm(50_000.0), warm(5_000.0), warm(1_000.0)],
            vec![0.02, 0.10],
        ),
    }
}

/// Mean recovery latency per controller crash, in milliseconds.
fn recovery_ms(f: &FaultStats) -> f64 {
    if f.ctrl_crashes == 0 {
        0.0
    } else {
        f.recovery_ns as f64 / f.ctrl_crashes as f64 / 1e6
    }
}

/// Build the plan: one shard per (recovery config, crash intensity) cell.
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let (rows, crash_ps) = grid(scale);
    let duration = scale.duration(3.0);

    let mut shards: Vec<Box<dyn FnOnce() -> Cell + Send>> = Vec::new();
    for &row in &rows {
        for &p in &crash_ps {
            shards.push(Box::new(move || {
                let net = scenarios::standard_t(6, 2, seed);
                let r = SimulationBuilder::new(net)
                    .udp(8e6, 2e6)
                    .duration_s(duration)
                    .seed(seed)
                    .faults(row.faults(p))
                    .run(Scheme::Domino);
                Cell { tput: r.aggregate_mbps(), faults: r.stats.faults }
            }));
        }
    }

    Plan::new_digested(shards, move |outs: Vec<Cell>| {
        // Cells arrive row-major: recovery config outer, intensity inner.
        let cells: Vec<&[Cell]> = outs.chunks(crash_ps.len()).collect();
        let p_labels: Vec<String> = crash_ps.iter().map(|p| format!("p={p:.2}")).collect();
        let headers: Vec<&str> = std::iter::once("recovery")
            .chain(p_labels.iter().map(String::as_str))
            .collect();

        let mut latency = Table::new(
            "Failover on T(6,2) — mean recovery latency per controller crash (ms)",
            &headers,
        );
        let mut tput = Table::new(
            "Failover — DOMINO aggregate throughput under controller crashes (Mb/s)",
            &headers,
        );
        let mut ledger = Table::new(
            &format!(
                "Failover ledger at p={:.2} (crashes, promotions, replayed delta)",
                crash_ps[crash_ps.len() - 1]
            ),
            &["recovery", "crashes", "promotions", "replayed", "total recovery ms"],
        );
        for (row, rcells) in rows.iter().zip(&cells) {
            let label = row.label();
            let metric = |f: &dyn Fn(&Cell) -> f64, fmt: fn(f64) -> String| -> Vec<String> {
                std::iter::once(label.clone())
                    .chain(rcells.iter().map(|c| fmt(f(c))))
                    .collect()
            };
            latency.row(&metric(&|c| recovery_ms(&c.faults), |v| format!("{v:.3}")));
            tput.row(&metric(&|c| c.tput, mbps));
            let hot = &rcells[rcells.len() - 1];
            ledger.row(&[
                label,
                hot.faults.ctrl_crashes.to_string(),
                hot.faults.standby_promotions.to_string(),
                hot.faults.replayed_reports.to_string(),
                format!("{:.2}", hot.faults.recovery_ns as f64 / 1e6),
            ]);
        }

        let mut digest = RunDigest::default();
        for c in &outs {
            digest.merge(&RunDigest {
                livelocks: c.faults.livelocks,
                watchdog_storms: 0,
                fault_classes: c.faults.classes().to_vec(),
            });
        }

        let mut out = String::new();
        push_block(&mut out, &latency.render());
        push_block(&mut out, &tput.render());
        push_block(&mut out, &ledger.render());
        // Rows after the first (cold) one run with the standby enabled:
        // every crash must be matched by a promotion, except at most the
        // one failover still in flight when the horizon cuts the run.
        let stranded: u64 = outs[crash_ps.len()..]
            .iter()
            .map(|c| (c.faults.ctrl_crashes - c.faults.standby_promotions).saturating_sub(1))
            .sum();
        out.push_str(&format!(
            "warm cells: {stranded} crash(es) stranded without promotion (gate: 0)\n"
        ));
        (out, digest)
    })
}

/// Render the designated trace (`domino-run --trace`): one DOMINO run with
/// the warm standby enabled under aggressive controller crashes, so the
/// JSONL stream exhibits `ctrl_checkpoint`, `fault_inject(ctrl_crash)` and
/// `standby_promote` events for the EXPERIMENTS.md walkthrough.
pub fn trace(scale: Scale, seed: u64) -> String {
    let (handle, sink) = TraceHandle::mem();
    let net = scenarios::standard_t(6, 2, seed);
    let faults = Recovery::Warm { ckpt_us: 5_000.0 }.faults(0.10);
    let _ = SimulationBuilder::new(net)
        .udp(8e6, 2e6)
        .duration_s(scale.duration(2.0))
        .seed(seed)
        .faults(faults)
        .run_profiled(Scheme::Domino, handle, ProfHandle::off());
    let meta = TraceMeta {
        experiment: NAME.to_string(),
        scheme: "domino".to_string(),
        seed,
        scale: scale.name().to_string(),
    };
    jsonl::write_trace(&meta, &sink.take())
}
