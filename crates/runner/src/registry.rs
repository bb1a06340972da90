//! The single authoritative list of experiments. The `domino-run` CLI
//! and the `--check` gate both iterate this table, so adding an
//! experiment here is the only registration step.

use crate::experiments as exp;
use crate::plan::Plan;
use crate::scale::Scale;

/// Master seed used when the caller does not override it.
pub const DEFAULT_SEED: u64 = 1;

/// One registered experiment: a stable name, its output file under
/// `results/`, and a plan constructor.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Registry key; also the name of the thin binary in `crates/bench`.
    pub name: &'static str,
    /// File written under the results directory.
    pub output: &'static str,
    /// Builds the sharded execution plan for a given scale and seed.
    pub plan: fn(Scale, u64) -> Plan,
    /// One-line description shown by `domino-run --list`.
    pub title: &'static str,
    /// Renders a JSONL event trace of the experiment's representative run
    /// (`domino-run --trace <dir>` writes it to `<dir>/<name>.jsonl`).
    /// `None` for experiments without a designated trace run.
    pub trace: Option<fn(Scale, u64) -> String>,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("name", &self.name)
            .field("output", &self.output)
            .field("title", &self.title)
            .finish_non_exhaustive()
    }
}

/// Every experiment, in the canonical regeneration order (the slowest
/// sweep runs last, matching the retired `run_all` sequence).
pub const REGISTRY: [Experiment; 16] = [
    Experiment {
        name: exp::table1_params::NAME,
        output: exp::table1_params::OUTPUT,
        plan: exp::table1_params::plan,
        title: "Table 1 — ROP symbol parameters",
        trace: None,
    },
    Experiment {
        name: exp::fig05_rop_samples::NAME,
        output: exp::fig05_rop_samples::OUTPUT,
        plan: exp::fig05_rop_samples::plan,
        title: "Fig 5 — ROP sample spectra for three occupancy scenarios",
        trace: None,
    },
    Experiment {
        name: exp::fig06_guard_sweep::NAME,
        output: exp::fig06_guard_sweep::OUTPUT,
        plan: exp::fig06_guard_sweep::plan,
        title: "Fig 6 — ROP decoding error vs guard band width",
        trace: None,
    },
    Experiment {
        name: exp::fig09_signature_detection::NAME,
        output: exp::fig09_signature_detection::OUTPUT,
        plan: exp::fig09_signature_detection::plan,
        title: "Fig 9 — signature detection vs concurrent transmitters",
        trace: None,
    },
    Experiment {
        name: exp::fig02_motivation::NAME,
        output: exp::fig02_motivation::OUTPUT,
        plan: exp::fig02_motivation::plan,
        title: "Fig 2 — motivating 3-link scenario across schemes",
        trace: None,
    },
    Experiment {
        name: exp::table2_usrp::NAME,
        output: exp::table2_usrp::OUTPUT,
        plan: exp::table2_usrp::plan,
        title: "Table 2 — USRP-scale testbed scenarios",
        trace: None,
    },
    Experiment {
        name: exp::fig10_timeline::NAME,
        output: exp::fig10_timeline::OUTPUT,
        plan: exp::fig10_timeline::plan,
        title: "Fig 10 — slot timeline and misalignment trace",
        trace: Some(exp::fig10_timeline::trace),
    },
    Experiment {
        name: exp::fig11_misalignment::NAME,
        output: exp::fig11_misalignment::OUTPUT,
        plan: exp::fig11_misalignment::plan,
        title: "Fig 11 — slot misalignment vs wired jitter",
        trace: None,
    },
    Experiment {
        name: exp::fig12_tput_delay_fairness::NAME,
        output: exp::fig12_tput_delay_fairness::OUTPUT,
        plan: exp::fig12_tput_delay_fairness::plan,
        title: "Fig 12 — throughput/delay/fairness vs offered load",
        trace: None,
    },
    Experiment {
        name: exp::table3_exposed::NAME,
        output: exp::table3_exposed::OUTPUT,
        plan: exp::table3_exposed::plan,
        title: "Table 3 — exposed-terminal topologies",
        trace: None,
    },
    Experiment {
        name: exp::fig14_gain_cdf::NAME,
        output: exp::fig14_gain_cdf::OUTPUT,
        plan: exp::fig14_gain_cdf::plan,
        title: "Fig 14 — CDF of DOMINO/DCF gain over random topologies",
        trace: None,
    },
    Experiment {
        name: exp::sec5_light_traffic::NAME,
        output: exp::sec5_light_traffic::OUTPUT,
        plan: exp::sec5_light_traffic::plan,
        title: "§5 — delay under light traffic",
        trace: None,
    },
    Experiment {
        name: exp::ablations::NAME,
        output: exp::ablations::OUTPUT,
        plan: exp::ablations::plan,
        title: "Ablations — converter mechanisms, batching, signatures",
        trace: None,
    },
    Experiment {
        name: exp::sec5_polling_sweep::NAME,
        output: exp::sec5_polling_sweep::OUTPUT,
        plan: exp::sec5_polling_sweep::plan,
        title: "§5 — polling-frequency sweep",
        trace: None,
    },
    Experiment {
        name: exp::chaos_degradation::NAME,
        output: exp::chaos_degradation::OUTPUT,
        plan: exp::chaos_degradation::plan,
        title: "Chaos — degradation under injected faults vs intensity",
        trace: Some(exp::chaos_degradation::trace),
    },
    Experiment {
        name: exp::failover_recovery::NAME,
        output: exp::failover_recovery::OUTPUT,
        plan: exp::failover_recovery::plan,
        title: "Failover — recovery latency vs checkpoint interval × crash rate",
        trace: Some(exp::failover_recovery::trace),
    },
];

/// Look up an experiment by registry key.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_outputs_are_unique_and_consistent() {
        let mut names = std::collections::BTreeSet::new();
        let mut outputs = std::collections::BTreeSet::new();
        for e in &REGISTRY {
            assert!(names.insert(e.name), "duplicate name {}", e.name);
            assert!(outputs.insert(e.output), "duplicate output {}", e.output);
            assert_eq!(e.output, format!("{}.txt", e.name));
        }
    }

    #[test]
    fn find_hits_and_misses() {
        assert_eq!(find("ablations").map(|e| e.output), Some("ablations.txt"));
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn every_plan_reports_shards() {
        for e in &REGISTRY {
            let plan = (e.plan)(Scale::Quick, DEFAULT_SEED);
            assert!(plan.num_shards() >= 1, "{} has no shards", e.name);
        }
    }
}
