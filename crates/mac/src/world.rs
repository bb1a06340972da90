//! The one run path: a [`World`] trait every scheme implements, the
//! [`Core`] state all four worlds share, and the generic driver [`run`].
//!
//! A scheme's world owns a [`Core`] (engine, medium, fault plane, traffic
//! engine, trace and profile handles) plus its own protocol state. The
//! driver is generic over the world type, so every scheme gets its own
//! statically dispatched copy of the loop. [`RunOptions`] combines freely:
//! any run can be traced, profiled, checkpointed and restored at once.

use crate::flows::{FlowEngine, TrafficEv};
use crate::workload::{client_indices, RunStats, Workload};
use domino_faults::{FaultConfig, FaultPlane, NodeFaults};
use domino_medium::{Medium, Reception, TxId};
use domino_obs::{CostPath, ProfHandle, TraceHandle};
use domino_sim::engine::{DEFAULT_EVENT_BUDGET, DEFAULT_LIVENESS_WINDOW};
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{Engine, SimDuration, SimTime};
use domino_topology::Network;
use std::fmt;

/// The static inputs of one run, shared by every scheme.
#[derive(Clone, Copy, Debug)]
pub struct Setup<'a> {
    /// The network under simulation.
    pub net: &'a Network,
    /// Offered traffic.
    pub workload: &'a Workload,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Master random seed.
    pub seed: u64,
    /// Fault-plane knobs (all off by default).
    pub faults: &'a FaultConfig,
}

/// Snapshot boundaries and the sink that receives each payload.
pub struct Checkpoints<'a> {
    /// Boundary instants, ascending. At each one inside the run the full
    /// world state is serialized and handed to `sink`, then the run
    /// continues unperturbed. Events at exactly a boundary run after it.
    /// A restored run takes only boundaries after its snapshot's instant.
    pub at: &'a [SimTime],
    /// Receives `(boundary, payload)` for every boundary reached.
    pub sink: &'a mut dyn FnMut(SimTime, Vec<u8>),
}

impl fmt::Debug for Checkpoints<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoints").field("at", &self.at).finish_non_exhaustive()
    }
}

/// How to run: every option is observation or state transfer only, so
/// any combination yields the same stats as a plain run.
#[derive(Debug, Default)]
pub struct RunOptions<'a> {
    /// Trace sink (off by default).
    pub tracer: TraceHandle,
    /// Cost profiler (off by default). Never part of a snapshot: a
    /// restored run profiles from its restore point.
    pub profiler: ProfHandle,
    /// Snapshot boundaries and their sink.
    pub checkpoints: Option<Checkpoints<'a>>,
    /// Start from this snapshot payload instead of time zero. The world
    /// is rebuilt from the same [`Setup`] the checkpointed run used; the
    /// payload supplies only the dynamic state.
    pub restore: Option<&'a [u8]>,
}

/// The state every scheme's world shares.
#[derive(Debug)]
pub struct Core<E> {
    /// The network under simulation.
    pub net: Network,
    /// The event engine.
    pub engine: Engine<E>,
    /// The shared wireless medium.
    pub medium: Medium,
    /// Queues, flows, RTO timers and metering.
    pub fe: FlowEngine,
    /// Node-class fault source (AP crashes, compute stalls, stale
    /// reports, controller crashes). Draws nothing when its class is off.
    pub node_faults: NodeFaults,
    /// Observation-only trace sink.
    pub tracer: TraceHandle,
    /// Observation-only cost profiler.
    pub prof: ProfHandle,
    /// The run's one reception buffer (see [`Core::end_tx`]). Scratch:
    /// empty between events and never part of a snapshot.
    pub rx_buf: Vec<Reception>,
}

impl<E: SnapValue + From<TrafficEv>> Core<E> {
    /// Build the shared state at time zero: engine with the liveness
    /// monitor, medium with the fault plane's medium classes, and every
    /// flow's first traffic event scheduled. A scheme schedules its own
    /// initial events after this.
    pub fn new(s: &Setup<'_>, tracer: TraceHandle) -> Core<E> {
        let mut engine = Engine::new();
        engine.set_liveness(DEFAULT_EVENT_BUDGET, DEFAULT_LIVENESS_WINDOW);
        engine.set_tracer(tracer.clone());
        let mut medium = Medium::new(s.net.clone(), s.seed);
        let plane = FaultPlane::new(s.faults, s.seed, &client_indices(s.net), s.duration_s);
        if plane.cfg.enabled() {
            medium.set_faults(plane.medium);
        }
        medium.set_tracer(tracer.clone());
        let fe = FlowEngine::new(s.net, s.workload, s.duration_s);
        fe.seed(&mut engine);
        Core {
            net: s.net.clone(),
            engine,
            medium,
            fe,
            node_faults: plane.node,
            tracer,
            prof: ProfHandle::off(),
            rx_buf: Vec::new(),
        }
    }

    /// Take `tx` off the air and adjudicate it. The verdicts come back in
    /// [`Core::rx_buf`], moved out so the caller can use the core while it
    /// reads them; the caller hands the buffer back (`core.rx_buf =
    /// receptions`) and every transmission of the run reuses its storage.
    pub fn end_tx(&mut self, tx: TxId, now: SimTime) -> Vec<Reception> {
        let mut receptions = std::mem::take(&mut self.rx_buf);
        receptions.clear();
        self.medium.end_into(tx, now, &mut receptions);
        receptions
    }

    fn set_profiler(&mut self, prof: ProfHandle) {
        self.engine.set_profiler(prof.clone());
        self.medium.set_profiler(prof.clone());
        self.prof = prof;
    }

    /// Serialize the shared dynamic state. `&mut` because the engine
    /// drains and rebuilds its wheel in place.
    fn save(&mut self, w: &mut SnapWriter) {
        self.engine.snapshot_save(w);
        self.medium.snapshot_save(w);
        self.fe.snapshot_save(w);
        self.node_faults.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.engine.snapshot_restore(r)?;
        self.medium.snapshot_restore(r)?;
        self.fe.snapshot_restore(r)?;
        self.node_faults.restore(r)
    }

    /// End-of-run accounting: flush the wheel and RNG counters into the
    /// profile (no-ops when it is off) and fold the engine and fault
    /// counters into the stats.
    fn finalize(mut self) -> RunStats {
        self.engine.profile_wheel();
        self.prof.add(CostPath::RngPhyError, self.medium.phy_rng_draws());
        self.prof.add(
            CostPath::RngFaults,
            self.node_faults.rng_draws() + self.medium.faults().map(|f| f.rng_draws()).unwrap_or(0),
        );
        let tcp_retransmissions = self.fe.tcp_retransmissions();
        let stats = &mut self.fe.stats;
        stats.events = self.engine.events_processed();
        stats.tcp_retransmissions = tcp_retransmissions;
        stats.faults.merge_node(&self.node_faults);
        if let Some(mf) = self.medium.faults() {
            stats.faults.merge_medium(mf);
        }
        self.fe.stats
    }
}

/// One scheme's complete simulation state between events.
pub trait World: Sized {
    /// The scheme's event type; it carries the shared traffic events.
    type Ev: SnapValue + From<TrafficEv>;
    /// Scheme parameters beyond the shared [`Setup`].
    type Config;

    /// Build the world at time zero with its initial events scheduled.
    fn build(setup: &Setup<'_>, cfg: Self::Config, tracer: TraceHandle) -> Self;

    /// The shared state.
    fn core(&mut self) -> &mut Core<Self::Ev>;

    /// Cost-attribution class of one event (see `domino_obs::CostPath`).
    fn cost_class(ev: &Self::Ev) -> CostPath;

    /// Process one event popped at `now`.
    fn handle(&mut self, now: SimTime, ev: Self::Ev);

    /// Fold the scheme's own counters into the stats and profile, and
    /// hand back the shared state for final accounting.
    fn finish(self) -> Core<Self::Ev>;

    /// Serialize the scheme's dynamic state (after the core's).
    fn save(&self, w: &mut SnapWriter);

    /// Restore what [`World::save`] wrote into a freshly built world.
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Run one simulation of world `W` to its horizon under `opts`.
///
/// Fails only when `opts.restore` holds a payload that does not restore
/// cleanly into a world built from `setup` (wrong shape, corrupt bytes,
/// trailing bytes).
pub fn run<W: World>(
    setup: &Setup<'_>,
    cfg: W::Config,
    opts: &mut RunOptions<'_>,
) -> Result<RunStats, SnapError> {
    let mut world = W::build(setup, cfg, opts.tracer.clone());
    world.core().set_profiler(opts.profiler.clone());
    if let Some(payload) = opts.restore {
        let mut r = SnapReader::new(payload);
        world.core().restore(&mut r)?;
        world.restore(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapError::Corrupt("trailing snapshot bytes"));
        }
    }
    let horizon = SimTime::ZERO + SimDuration::from_secs_f64(setup.duration_s);
    if let Some(ck) = opts.checkpoints.as_mut() {
        for &b in ck.at.iter().filter(|&&b| b <= horizon) {
            // Events at exactly `b` land after the snapshot: drive through
            // b − 1 ns (the drive horizon is inclusive).
            if b > SimTime::ZERO && !drive(&mut world, b - SimDuration::from_nanos(1)) {
                return Ok(world.finish().finalize()); // livelocked mid-run
            }
            let mut w = SnapWriter::new();
            world.core().save(&mut w);
            world.save(&mut w);
            (ck.sink)(b, w.into_bytes());
        }
    }
    drive(&mut world, horizon);
    Ok(world.finish().finalize())
}

/// Process events through `horizon` (inclusive). Returns false when the
/// liveness monitor aborted the run.
fn drive<W: World>(world: &mut W, horizon: SimTime) -> bool {
    loop {
        let core = world.core();
        match core.engine.pop_until_checked(horizon) {
            Ok(Some((now, ev))) => {
                core.prof.tick(W::cost_class(&ev));
                world.handle(now, ev);
            }
            Ok(None) => return true,
            Err(_livelock) => {
                core.fe.stats.faults.livelocks += 1;
                return false;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dcf::DcfWorld;
    use domino_phy::units::Dbm;
    use domino_topology::network::{make_node, PhyParams};
    use domino_topology::node::{NodeRole, Position};
    use domino_topology::rss::RssMatrix;
    use domino_topology::NodeId;

    /// Run `W` with its default parameters and no options.
    pub(crate) fn run_plain<W: World>(
        net: &Network,
        workload: &Workload,
        duration_s: f64,
        seed: u64,
    ) -> RunStats
    where
        W::Config: Default,
    {
        run_faulted::<W>(net, workload, duration_s, seed, &FaultConfig::off(), W::Config::default())
    }

    /// Run `W` with explicit parameters under a fault plane.
    pub(crate) fn run_faulted<W: World>(
        net: &Network,
        workload: &Workload,
        duration_s: f64,
        seed: u64,
        faults: &FaultConfig,
        cfg: W::Config,
    ) -> RunStats {
        let setup = Setup { net, workload, duration_s, seed, faults };
        run::<W>(&setup, cfg, &mut RunOptions::default()).unwrap()
    }

    fn one_pair() -> Network {
        let nodes = vec![
            make_node(0, NodeRole::Ap, None, Position::default()),
            make_node(1, NodeRole::Client, Some(0), Position::default()),
        ];
        let mut rss = RssMatrix::disconnected(2);
        rss.set_symmetric(NodeId(0), NodeId(1), Dbm(-55.0));
        Network::new(nodes, rss, PhyParams::default())
    }

    /// A checkpoint payload taken at `at_ns` of a 1 s DCF run.
    fn payload(net: &Network, workload: &Workload, at_ns: u64) -> Vec<u8> {
        let faults = FaultConfig::off();
        let setup = Setup { net, workload, duration_s: 1.0, seed: 7, faults: &faults };
        let mut snaps = Vec::new();
        let mut sink = |_: SimTime, bytes: Vec<u8>| snaps.push(bytes);
        let at = [SimTime::from_nanos(at_ns)];
        let mut opts = RunOptions {
            checkpoints: Some(Checkpoints { at: &at, sink: &mut sink }),
            ..RunOptions::default()
        };
        run::<DcfWorld>(&setup, (), &mut opts).unwrap();
        assert_eq!(snaps.len(), 1);
        snaps.pop().unwrap()
    }

    fn restore_into(net: &Network, workload: &Workload, payload: &[u8]) -> Result<RunStats, SnapError> {
        let faults = FaultConfig::off();
        let setup = Setup { net, workload, duration_s: 1.0, seed: 7, faults: &faults };
        let mut opts = RunOptions { restore: Some(payload), ..RunOptions::default() };
        run::<DcfWorld>(&setup, (), &mut opts)
    }

    #[test]
    fn restore_rejects_trailing_bytes_and_foreign_worlds() {
        let net = one_pair();
        let w = Workload::tcp_updown(&net, 3e6, 1e6);
        let snap = payload(&net, &w, 500_000_000);
        assert!(restore_into(&net, &w, &snap).is_ok());
        let mut long = snap.clone();
        long.push(0);
        assert_eq!(
            restore_into(&net, &w, &long).err(),
            Some(SnapError::Corrupt("trailing snapshot bytes"))
        );
        assert!(restore_into(&net, &w, &snap[..snap.len() - 1]).is_err());
        // A payload for a different configuration is rejected, not
        // silently mis-restored (the flow tables differ in shape).
        let other = Workload::udp_updown(&net, 3e6, 0.0);
        assert!(restore_into(&net, &other, &snap).is_err());
    }

    #[test]
    fn boundaries_past_the_horizon_are_skipped() {
        let net = one_pair();
        let w = Workload::udp_updown(&net, 3e6, 1e6);
        let faults = FaultConfig::off();
        let setup = Setup { net: &net, workload: &w, duration_s: 0.1, seed: 3, faults: &faults };
        let mut count = 0;
        let mut sink = |_: SimTime, _: Vec<u8>| count += 1;
        let at = [SimTime::ZERO, SimTime::from_millis(50), SimTime::from_millis(500)];
        let mut opts = RunOptions {
            checkpoints: Some(Checkpoints { at: &at, sink: &mut sink }),
            ..RunOptions::default()
        };
        let stats = run::<DcfWorld>(&setup, (), &mut opts).unwrap();
        assert_eq!(count, 2);
        assert_eq!(stats.events, run_plain::<DcfWorld>(&net, &w, 0.1, 3).events);
    }
}
