//! The high-level simulation API.
//!
//! ```
//! use domino_core::{Scheme, SimulationBuilder};
//! use domino_core::scenarios;
//!
//! let net = scenarios::fig1();
//! let report = SimulationBuilder::new(net.clone())
//!     .saturated_downlinks()
//!     .duration_s(0.5)
//!     .seed(7)
//!     .run(Scheme::Domino);
//! assert!(report.aggregate_mbps() > 0.0);
//! ```

use crate::report::RunReport;
use domino_faults::FaultConfig;
use domino_mac::centaur::CentaurConfig;
use domino_mac::domino::DominoConfig;
use domino_mac::{
    run, Checkpoints, CentaurWorld, DcfWorld, DominoWorld, OmniWorld, RunOptions, Setup, Workload,
};
use domino_obs::{ProfHandle, TraceHandle};
use domino_sim::snapshot::{self, SnapError};
use domino_sim::SimTime;
use domino_topology::{Direction, Network};

/// The four channel-access schemes of the evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scheme {
    /// 802.11 DCF (distributed baseline).
    Dcf,
    /// CENTAUR-style hybrid (scheduled downlink epochs, DCF uplink).
    Centaur,
    /// DOMINO relative scheduling (the paper's contribution).
    Domino,
    /// Idealized perfectly-synchronized centralized scheduler.
    Omniscient,
}

impl Scheme {
    /// All schemes, in the order the paper's figures list them.
    pub const ALL: [Scheme; 4] = [Scheme::Dcf, Scheme::Centaur, Scheme::Domino, Scheme::Omniscient];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Dcf => "DCF",
            Scheme::Centaur => "CENTAUR",
            Scheme::Domino => "DOMINO",
            Scheme::Omniscient => "Omniscient",
        }
    }
}

/// Configures and runs one simulation.
#[derive(Clone, Debug)]
pub struct SimulationBuilder {
    network: Network,
    workload: Option<Workload>,
    duration_s: f64,
    seed: u64,
    domino: DominoConfig,
    faults: FaultConfig,
}

impl SimulationBuilder {
    /// Start building a run over `network`.
    pub fn new(network: Network) -> SimulationBuilder {
        SimulationBuilder {
            network,
            workload: None,
            duration_s: 10.0,
            seed: 1,
            domino: DominoConfig::default(),
            faults: FaultConfig::off(),
        }
    }

    /// Use an explicit workload.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// UDP at `down_bps` on every downlink and `up_bps` on every uplink
    /// (the Fig 12 workload).
    pub fn udp(mut self, down_bps: f64, up_bps: f64) -> Self {
        self.workload = Some(Workload::udp_updown(&self.network, down_bps, up_bps));
        self
    }

    /// TCP at the given offered rates per direction.
    pub fn tcp(mut self, down_bps: f64, up_bps: f64) -> Self {
        self.workload = Some(Workload::tcp_updown(&self.network, down_bps, up_bps));
        self
    }

    /// Saturated UDP on every downlink.
    pub fn saturated_downlinks(mut self) -> Self {
        let links: Vec<_> = self
            .network
            .links()
            .iter()
            .filter(|l| l.direction == Direction::Downlink)
            .map(|l| l.id)
            .collect();
        self.workload = Some(Workload::udp_saturated(&links));
        self
    }

    /// Simulated duration in seconds (the paper uses 50 s runs; tests use
    /// shorter ones).
    pub fn duration_s(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0);
        self.duration_s = seconds;
        self
    }

    /// Master random seed (runs are pure functions of config + seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override DOMINO engine parameters (batch size, wired jitter,
    /// converter knobs).
    pub fn domino_config(mut self, cfg: DominoConfig) -> Self {
        self.domino = cfg;
        self
    }

    /// Inject faults from a [`FaultConfig`]. The default is all off,
    /// which is byte-identical to a build without the fault plane.
    pub fn faults(mut self, cfg: FaultConfig) -> Self {
        self.faults = cfg;
        self
    }

    /// The network under simulation.
    pub fn network_ref(&self) -> &Network {
        &self.network
    }

    /// Run under the given scheme.
    pub fn run(&self, scheme: Scheme) -> RunReport {
        self.run_profiled(scheme, TraceHandle::off(), ProfHandle::off())
    }

    /// [`SimulationBuilder::run`] with a trace sink and a cost profiler
    /// attached (either may be off).
    pub fn run_profiled(&self, scheme: Scheme, tracer: TraceHandle, prof: ProfHandle) -> RunReport {
        let mut opts = RunOptions { tracer, profiler: prof, ..RunOptions::default() };
        // lint: allow(D005) without a restore payload a run cannot fail
        self.run_with(scheme, &mut opts).expect("a run without restore cannot fail")
    }

    /// The one run entry point: run under `scheme` with any combination
    /// of options. Tracing, profiling and checkpointing are observation
    /// only — they draw no randomness and schedule no events — so the
    /// report is byte-identical to [`SimulationBuilder::run`]'s.
    ///
    /// At this level snapshots are sealed: each checkpoint payload handed
    /// to `opts.checkpoints` is wrapped in the versioned, digest-verified
    /// container bound to [`SimulationBuilder::binding`], and
    /// `opts.restore` must be such a container from a run of the *same*
    /// configuration; any other is rejected with an error, never run.
    ///
    /// The trace and profile handles are `Rc`-based and passed per call
    /// (rather than stored on the builder) so the builder stays `Send`.
    pub fn run_with(&self, scheme: Scheme, opts: &mut RunOptions<'_>) -> Result<RunReport, SnapError> {
        let workload = self
            .workload
            .as_ref()
            // lint: allow(D005) builder misuse: no run exists to return an Err through
            .expect("no workload configured: call udp()/tcp()/workload() first");
        let setup = Setup {
            net: &self.network,
            workload,
            duration_s: self.duration_s,
            seed: self.seed,
            faults: &self.faults,
        };
        // The binding formats the whole configuration: compute it only for
        // runs that seal or open a snapshot.
        let binding = if opts.restore.is_some() || opts.checkpoints.is_some() {
            self.binding(scheme)
        } else {
            [0; 32]
        };
        let restore = match opts.restore {
            Some(sealed) => Some(snapshot::open(sealed, &binding)?.1),
            None => None,
        };
        let (tracer, profiler) = (opts.tracer.clone(), opts.profiler.clone());
        let at = opts.checkpoints.as_ref().map(|c| c.at);
        let outer = &mut opts.checkpoints;
        let mut seal = |t: SimTime, payload: Vec<u8>| {
            if let Some(c) = outer.as_mut() {
                (c.sink)(t, snapshot::seal(&binding, t.as_nanos(), &payload));
            }
        };
        let mut opts = RunOptions {
            tracer,
            profiler,
            checkpoints: at.map(|at| Checkpoints { at, sink: &mut seal }),
            restore,
        };
        let stats = match scheme {
            Scheme::Dcf => run::<DcfWorld>(&setup, (), &mut opts),
            Scheme::Centaur => run::<CentaurWorld>(&setup, CentaurConfig::default(), &mut opts),
            Scheme::Domino => run::<DominoWorld>(&setup, self.domino.clone(), &mut opts),
            Scheme::Omniscient => run::<OmniWorld>(&setup, (), &mut opts),
        }?;
        Ok(RunReport::new(scheme, workload.flow_links(), stats))
    }

    /// SHA-256 binding of the complete run configuration under `scheme`.
    ///
    /// Snapshots sealed by [`SimulationBuilder::run_with`] carry this
    /// digest, and a restore rejects any payload whose binding differs —
    /// a world rebuilt from different static state would silently
    /// diverge instead of failing loudly.
    pub fn binding(&self, scheme: Scheme) -> [u8; 32] {
        let workload = format!("{:?}", self.workload);
        let network = format!("{:?}", self.network);
        let domino = format!("{:?}", self.domino);
        let centaur = format!("{:?}", CentaurConfig::default());
        let faults = format!("{:?}", self.faults);
        snapshot::binding_digest(&[
            scheme.label().as_bytes(),
            &self.seed.to_le_bytes(),
            &self.duration_s.to_bits().to_le_bytes(),
            network.as_bytes(),
            workload.as_bytes(),
            domino.as_bytes(),
            centaur.as_bytes(),
            faults.as_bytes(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn builder_runs_every_scheme() {
        let net = scenarios::fig1();
        let b = SimulationBuilder::new(net).udp(2e6, 1e6).duration_s(0.3).seed(3);
        for scheme in Scheme::ALL {
            let report = b.run(scheme);
            assert_eq!(report.scheme, scheme);
            assert!(
                report.aggregate_mbps() > 0.5,
                "{}: {}",
                scheme.label(),
                report.aggregate_mbps()
            );
        }
    }

    #[test]
    fn deterministic_across_builder_clones() {
        let net = scenarios::fig7();
        let b = SimulationBuilder::new(net).udp(5e6, 0.0).duration_s(0.3).seed(9);
        let a = b.clone().run(Scheme::Domino);
        let c = b.run(Scheme::Domino);
        assert_eq!(a.stats.delivered_bits, c.stats.delivered_bits);
    }

    #[test]
    #[should_panic(expected = "no workload")]
    fn missing_workload_panics() {
        let net = scenarios::fig1();
        let _ = SimulationBuilder::new(net).run(Scheme::Dcf);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::Domino.label(), "DOMINO");
        assert_eq!(Scheme::ALL.len(), 4);
    }

    #[test]
    fn all_off_fault_plane_is_byte_identical() {
        let net = scenarios::fig1();
        let b = SimulationBuilder::new(net).udp(3e6, 1e6).duration_s(0.3).seed(11);
        for scheme in Scheme::ALL {
            let plain = b.clone().run(scheme);
            let off = b.clone().faults(FaultConfig::off()).run(scheme);
            assert_eq!(plain.stats.delivered_bits, off.stats.delivered_bits, "{scheme:?}");
            assert_eq!(plain.stats.events, off.stats.events, "{scheme:?}");
            assert_eq!(off.stats.faults, Default::default(), "{scheme:?}");
        }
    }

    #[test]
    fn tracing_is_observation_only() {
        // The determinism pin for the observability plane: attaching a
        // trace sink must not perturb event order, timing, or RNG state —
        // even under an active fault plane — and a disabled handle makes
        // zero allocations (the emit closure never runs). Every scheme
        // still produces trace events (the engine's liveness roll-over
        // alone guarantees a non-empty trace).
        let net = scenarios::fig1();
        let b = SimulationBuilder::new(net)
            .udp(3e6, 1e6)
            .duration_s(0.4)
            .seed(13)
            .faults(FaultConfig::chaos(0.8));
        for scheme in Scheme::ALL {
            let plain = b.run(scheme);
            let (handle, sink) = domino_obs::TraceHandle::mem();
            let traced = b.run_profiled(scheme, handle, ProfHandle::off());
            assert_eq!(plain.stats.delivered_bits, traced.stats.delivered_bits, "{scheme:?}");
            assert_eq!(plain.stats.events, traced.stats.events, "{scheme:?}");
            assert_eq!(plain.stats.faults, traced.stats.faults, "{scheme:?}");
            assert_eq!(plain.stats.domino, traced.stats.domino, "{scheme:?}");
            assert!(!sink.is_empty(), "{scheme:?} produced no trace events");
        }
    }

    #[test]
    fn resume_rejects_foreign_and_corrupt_snapshots() {
        use domino_sim::snapshot::SnapError;
        let net = scenarios::fig1();
        let b = SimulationBuilder::new(net).udp(3e6, 1e6).duration_s(0.3).seed(5);
        let at = [SimTime::from_nanos(100_000_000)];
        let mut sealed = Vec::new();
        let mut sink = |_: SimTime, bytes: Vec<u8>| sealed.push(bytes);
        let mut opts = RunOptions {
            checkpoints: Some(Checkpoints { at: &at, sink: &mut sink }),
            ..RunOptions::default()
        };
        let plain = b.run_with(Scheme::Domino, &mut opts).unwrap();
        drop(opts);
        let snap = sealed.pop().unwrap();
        let resume = |b: &SimulationBuilder, scheme: Scheme, bytes: &[u8]| {
            b.run_with(scheme, &mut RunOptions { restore: Some(bytes), ..RunOptions::default() })
        };
        // Any configuration difference flips the binding digest.
        let other = b.clone().seed(6);
        assert_eq!(resume(&other, Scheme::Domino, &snap).err(), Some(SnapError::BindingMismatch));
        assert_eq!(resume(&b, Scheme::Dcf, &snap).err(), Some(SnapError::BindingMismatch));
        // A flipped payload byte is a digest error, never a wrong run.
        let mut torn = snap.clone();
        let mid = torn.len() / 2;
        torn[mid] ^= 0x40;
        assert_eq!(resume(&b, Scheme::Domino, &torn).err(), Some(SnapError::DigestMismatch));
        let ok = resume(&b, Scheme::Domino, &snap).expect("clean restore");
        assert_eq!(ok.stats.events, plain.stats.events);
    }

    #[test]
    fn chaos_injects_and_every_scheme_survives() {
        let net = scenarios::fig1();
        let b = SimulationBuilder::new(net)
            .udp(3e6, 1e6)
            .duration_s(0.4)
            .seed(13)
            .faults(FaultConfig::chaos(0.8));
        for scheme in Scheme::ALL {
            let report = b.clone().run(scheme);
            assert_eq!(report.stats.faults.livelocks, 0, "{scheme:?} livelocked");
            assert!(
                report.stats.faults.injections() > 0,
                "{scheme:?} saw no injections: {:?}",
                report.stats.faults
            );
            assert!(report.aggregate_mbps() > 0.0, "{scheme:?} collapsed");
        }
    }
}
