//! DOMINO: relative scheduling executed through signature triggers.
//!
//! The paper's contribution. The central controller computes strict
//! schedules with the RAND greedy policy, converts them to relative
//! schedules (`domino-scheduler`), and distributes per-AP programs over
//! the jittery wired backbone. On the air, *nothing is clocked*: each
//! slot's transmitters start when they detect their own Gold-code
//! signature followed by the START (or ROP) marker in the previous slot's
//! end-of-exchange bursts (Fig 8). Re-anchoring to the *last* received
//! trigger is what heals the initial wired-jitter misalignment within a
//! few slots (Fig 11 / §3.4).
//!
//! Faithfully modeled details:
//! * trigger instructions ride in-band: the client's burst assignment is
//!   embedded in the AP's data frame (downlink) or ACK (uplink), so a
//!   corrupted exchange silences both bursts — the paper's ..2 failure;
//! * fake links transmit header-only keep-alives and carry triggers;
//! * ROP slots: poll → one WiFi slot → the shared 16 µs answer symbol,
//!   with decode success from the Fig 5/6-calibrated model; reports are
//!   relayed to the controller over the wire;
//! * missed-ACK retransmission per §3.5 (client: retransmit on next
//!   trigger; AP: retransmit when the schedule head targets the same
//!   receiver);
//! * watchdog self-start: the very first batch (and any fully broken
//!   chain) starts by the APs individually, then heals.

use crate::flows::{Fired, TrafficEv};
use crate::timing::{
    fake_airtime, poll_airtime, rop_slot_duration, slot_geometry, SlotGeometry, ACK_BYTES,
    MAC_OVERHEAD_BYTES, POLL_BYTES, ROP_SYMBOL, SIFS, SLOT_TIME,
};
use crate::workload::{DominoCounters, WATCHDOG_STORM_THRESHOLD};
use crate::world::{Core, Setup, World};
use domino_medium::{Burst, BurstMarker, Frame, FrameBody, InlineVec, TxId};
use domino_obs::{CostPath, FaultKind, TraceEvent, TraceHandle};
use domino_scheduler::{
    BacklogView, BurstAssignment, ConversionOutcome, Converter, ConverterConfig, RandScheduler,
    RelativeBatch,
};
use domino_sim::rng::streams;
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{EventHandle, SimDuration, SimTime};
use domino_topology::{ConflictGraph, Direction, LinkId, NodeId};
use domino_traffic::{Packet, PacketKind};
use domino_wired::{Backbone, WiredLatency};
use std::collections::VecDeque;

/// Replay cost per buffered report when the warm standby promotes: the
/// bounded delta it ingests before taking over as the acting controller.
const REPLAY_COST: SimDuration = SimDuration::from_micros(50);

/// Bounded delta: queue-report copies the standby retains between two
/// state checkpoints. Older reports are superseded by the checkpoint
/// itself, so the cap only sheds load under checkpoint starvation.
const STANDBY_BUF_CAP: usize = 256;

/// DOMINO engine parameters.
#[derive(Clone, Debug)]
pub struct DominoConfig {
    /// Strict-schedule slots per batch (the §5 polling-frequency knob:
    /// ROP runs once per batch).
    pub batch_slots: usize,
    /// Wired backbone latency model.
    pub wired: WiredLatency,
    /// Converter settings (trigger caps, fake links, ROP insertion).
    pub converter: ConverterConfig,
    /// Self-start watchdog: how long an AP with pending work waits for a
    /// trigger before starting on its own.
    pub watchdog: SimDuration,
}

impl Default for DominoConfig {
    fn default() -> DominoConfig {
        DominoConfig {
            batch_slots: 5,
            wired: WiredLatency::default(),
            converter: ConverterConfig::default(),
            watchdog: SimDuration::from_micros(1500),
        }
    }
}

/// What an AP does in one scheduled slot.
#[derive(Clone, Debug, PartialEq)]
enum ApActionKind {
    /// Transmit (downlink): the AP is the slot's sender on `link`.
    TxData {
        /// The downlink.
        link: LinkId,
    },
    /// Receive (uplink): the client transmits on `link`; the AP ACKs.
    RxData {
        /// The uplink.
        link: LinkId,
    },
    /// Run the ROP poll.
    Poll,
}

/// One per-AP program entry.
#[derive(Clone, Debug)]
struct ApAction {
    slot: u64,
    kind: ApActionKind,
    /// An ROP slot sits immediately before this action's slot (the
    /// self-trigger path must wait it out, like the ROP marker does).
    rop_before: bool,
    /// No over-the-air trigger reaches this entry: the AP starts it
    /// individually at its estimated slot time (§3.3's first-batch rule,
    /// applied per entry — isolated AP cells live on this).
    kick_off: bool,
    /// Burst the AP broadcasts at the slot's burst offset.
    own_burst: Option<Burst>,
    /// Burst instruction for the client (embedded in data or ACK).
    client_burst: Option<Burst>,
}

/// Replacement burst info for one already-delivered retained-slot
/// action: `(slot, own burst, client burst)`.
type RetainedUpdate = (u64, Option<Burst>, Option<Burst>);

/// Wired message to one AP: its slice of a converted batch.
#[derive(Debug)]
pub struct ApMessage {
    first_slot: u64,
    actions: Vec<ApAction>,
    /// Replacement burst info for already-delivered retained-slot
    /// actions, keyed by slot id (batch connection, §3.3).
    retained_updates: Vec<RetainedUpdate>,
}

/// DOMINO scheme events.
#[derive(Debug)]
pub enum DEv {
    /// A shared traffic event.
    Traffic(TrafficEv),
    /// A transmission leaves the air.
    TxEnd {
        /// Medium handle.
        tx: TxId,
    },
    /// Wired delivery of a batch program to an AP.
    BatchArrive {
        /// Destination AP.
        ap: u32,
        /// The AP's program.
        msg: ApMessage,
    },
    /// Wired delivery of a queue report to the controller.
    ReportArrive {
        /// Reported uplink.
        link: u32,
        /// Reported queue length.
        queue: u32,
    },
    /// Controller computes and dispatches the next batch.
    ControllerCompute,
    /// A triggered node's slot begins.
    SlotStart {
        /// Triggered node.
        node: u32,
        /// Slot id.
        slot: u64,
    },
    /// A node's scheduled burst goes on the air.
    SendBurst {
        /// Broadcasting node.
        node: u32,
        /// The signature burst.
        burst: Burst,
    },
    /// A receiver's ACK is due.
    SendAck {
        /// Acknowledging node.
        rx: u32,
        /// The packet being acknowledged.
        packet: Packet,
        /// Burst instruction embedded in the ACK.
        client_burst: Option<Burst>,
    },
    /// A sender checks whether its data was ACKed.
    AckCheck {
        /// Sending node.
        node: u32,
    },
    /// A client answers a poll with its share of the ROP symbol.
    RopAnswer {
        /// Answering client.
        client: u32,
        /// Polling AP.
        ap: u32,
    },
    /// An AP with pending work got no trigger for too long.
    Watchdog {
        /// Waiting AP.
        ap: u32,
    },
    /// An untriggerable entry's estimated slot time arrived.
    KickOff {
        /// Starting AP.
        ap: u32,
        /// Slot id.
        slot: u64,
    },
    /// The acting controller's heartbeat timer (warm-standby plane; the
    /// timer always reschedules itself, a dead controller just emits
    /// nothing).
    CtrlHeartbeat,
    /// The acting controller ships its scheduler+backlog+converter image
    /// to the standby.
    CtrlCheckpoint,
    /// A heartbeat reaches the standby.
    HeartbeatArrive,
    /// A state checkpoint reaches the standby.
    CkptArrive {
        /// The serialized controller image.
        state: Vec<u8>,
    },
    /// The ROP relay's copy of a queue report reaches the standby.
    StandbyReport {
        /// Reported uplink.
        link: u32,
        /// Reported queue length.
        queue: u32,
    },
    /// The standby's deterministic failure detector ticks.
    StandbyProbe,
}

/// Per-node runtime state.
#[derive(Debug)]
struct NodeRt {
    /// AP program (empty for clients).
    program: VecDeque<ApAction>,
    /// The pending SlotStart, if any: a later trigger cancels and
    /// re-anchors it (last trigger wins).
    start: Option<EventHandle>,
    /// The pending self-start watchdog, re-armed at every progress point.
    watchdog: Option<EventHandle>,
    /// End of this node's current exchange: its correlator is not armed
    /// while it is mid-slot, so triggers arriving before this instant are
    /// ignored (this is also what absorbs the second of the two assigned
    /// redundant triggers).
    busy_until: SimTime,
    /// Sender-side: packet on the air awaiting its ACK (kept for the
    /// §3.5 retransmission rules).
    unacked: Option<Packet>,
    /// The pending packet's ACK arrived.
    acked: bool,
}

// ------------------------------------------------- snapshot encodings
//
// `LinkId` and `SnapValue` are both foreign here, so links are encoded
// inline as their raw u32 instead of through a blanket impl.

impl SnapValue for ApActionKind {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            ApActionKind::TxData { link } => {
                w.put_u8(0);
                w.put_u32(link.0);
            }
            ApActionKind::RxData { link } => {
                w.put_u8(1);
                w.put_u32(link.0);
            }
            ApActionKind::Poll => w.put_u8(2),
        }
    }

    fn thaw(r: &mut SnapReader<'_>) -> Result<ApActionKind, SnapError> {
        Ok(match r.get_u8()? {
            0 => ApActionKind::TxData { link: LinkId(r.get_u32()?) },
            1 => ApActionKind::RxData { link: LinkId(r.get_u32()?) },
            2 => ApActionKind::Poll,
            _ => return Err(SnapError::Corrupt("ap action kind tag")),
        })
    }
}

impl SnapValue for ApAction {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.slot);
        self.kind.put(w);
        self.rop_before.put(w);
        self.kick_off.put(w);
        self.own_burst.put(w);
        self.client_burst.put(w);
    }

    fn thaw(r: &mut SnapReader<'_>) -> Result<ApAction, SnapError> {
        Ok(ApAction {
            slot: r.get_u64()?,
            kind: SnapValue::thaw(r)?,
            rop_before: SnapValue::thaw(r)?,
            kick_off: SnapValue::thaw(r)?,
            own_burst: SnapValue::thaw(r)?,
            client_burst: SnapValue::thaw(r)?,
        })
    }
}

impl SnapValue for ApMessage {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.first_slot);
        self.actions.put(w);
        self.retained_updates.put(w);
    }

    fn thaw(r: &mut SnapReader<'_>) -> Result<ApMessage, SnapError> {
        Ok(ApMessage {
            first_slot: r.get_u64()?,
            actions: SnapValue::thaw(r)?,
            retained_updates: SnapValue::thaw(r)?,
        })
    }
}

impl SnapValue for NodeRt {
    fn put(&self, w: &mut SnapWriter) {
        self.program.put(w);
        self.start.put(w);
        self.watchdog.put(w);
        self.busy_until.put(w);
        self.unacked.put(w);
        self.acked.put(w);
    }

    fn thaw(r: &mut SnapReader<'_>) -> Result<NodeRt, SnapError> {
        Ok(NodeRt {
            program: SnapValue::thaw(r)?,
            start: SnapValue::thaw(r)?,
            watchdog: SnapValue::thaw(r)?,
            busy_until: SnapValue::thaw(r)?,
            unacked: SnapValue::thaw(r)?,
            acked: SnapValue::thaw(r)?,
        })
    }
}

impl From<TrafficEv> for DEv {
    fn from(ev: TrafficEv) -> Self {
        DEv::Traffic(ev)
    }
}

impl SnapValue for DEv {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            DEv::Traffic(ev) => {
                w.put_u8(0);
                ev.put(w);
            }
            DEv::TxEnd { tx } => {
                w.put_u8(3);
                tx.put(w);
            }
            DEv::BatchArrive { ap, msg } => {
                w.put_u8(4);
                w.put_u32(*ap);
                msg.put(w);
            }
            DEv::ReportArrive { link, queue } => {
                w.put_u8(5);
                w.put_u32(*link);
                w.put_u32(*queue);
            }
            DEv::ControllerCompute => w.put_u8(6),
            DEv::SlotStart { node, slot } => {
                w.put_u8(7);
                w.put_u32(*node);
                w.put_u64(*slot);
            }
            DEv::SendBurst { node, burst } => {
                w.put_u8(8);
                w.put_u32(*node);
                burst.put(w);
            }
            DEv::SendAck { rx, packet, client_burst } => {
                w.put_u8(9);
                w.put_u32(*rx);
                packet.put(w);
                client_burst.put(w);
            }
            DEv::AckCheck { node } => {
                w.put_u8(10);
                w.put_u32(*node);
            }
            DEv::RopAnswer { client, ap } => {
                w.put_u8(11);
                w.put_u32(*client);
                w.put_u32(*ap);
            }
            DEv::Watchdog { ap } => {
                w.put_u8(12);
                w.put_u32(*ap);
            }
            DEv::KickOff { ap, slot } => {
                w.put_u8(13);
                w.put_u32(*ap);
                w.put_u64(*slot);
            }
            DEv::CtrlHeartbeat => w.put_u8(14),
            DEv::CtrlCheckpoint => w.put_u8(15),
            DEv::HeartbeatArrive => w.put_u8(16),
            DEv::CkptArrive { state } => {
                w.put_u8(17);
                state.put(w);
            }
            DEv::StandbyReport { link, queue } => {
                w.put_u8(18);
                w.put_u32(*link);
                w.put_u32(*queue);
            }
            DEv::StandbyProbe => w.put_u8(19),
        }
    }

    fn thaw(r: &mut SnapReader<'_>) -> Result<DEv, SnapError> {
        Ok(match r.get_u8()? {
            0 => DEv::Traffic(SnapValue::thaw(r)?),
            3 => DEv::TxEnd { tx: SnapValue::thaw(r)? },
            4 => DEv::BatchArrive { ap: r.get_u32()?, msg: SnapValue::thaw(r)? },
            5 => DEv::ReportArrive { link: r.get_u32()?, queue: r.get_u32()? },
            6 => DEv::ControllerCompute,
            7 => DEv::SlotStart { node: r.get_u32()?, slot: r.get_u64()? },
            8 => DEv::SendBurst { node: r.get_u32()?, burst: SnapValue::thaw(r)? },
            9 => DEv::SendAck {
                rx: r.get_u32()?,
                packet: SnapValue::thaw(r)?,
                client_burst: SnapValue::thaw(r)?,
            },
            10 => DEv::AckCheck { node: r.get_u32()? },
            11 => DEv::RopAnswer { client: r.get_u32()?, ap: r.get_u32()? },
            12 => DEv::Watchdog { ap: r.get_u32()? },
            13 => DEv::KickOff { ap: r.get_u32()?, slot: r.get_u64()? },
            14 => DEv::CtrlHeartbeat,
            15 => DEv::CtrlCheckpoint,
            16 => DEv::HeartbeatArrive,
            17 => DEv::CkptArrive { state: SnapValue::thaw(r)? },
            18 => DEv::StandbyReport { link: r.get_u32()?, queue: r.get_u32()? },
            19 => DEv::StandbyProbe,
            _ => return Err(SnapError::Corrupt("domino event tag")),
        })
    }
}

/// The complete state of a DOMINO run between events. Under a fault
/// plane: backbone loss/spikes under the batch programs and ROP relays,
/// AP crashes with state loss, controller compute stalls that overrun the
/// batch fallback timer, stale ROP reports, controller crashes (warm
/// standby or cold restart), plus the medium-resident fade and churn
/// classes.
#[derive(Debug)]
pub struct DominoWorld {
    core: Core<DEv>,
    cfg: DominoConfig,
    backbone: Backbone,
    graph: ConflictGraph,
    scheduler: RandScheduler,
    converter: Converter,
    backlog: BacklogView,
    nodes: Vec<NodeRt>,
    geo: SlotGeometry,
    rop_dur: SimDuration,
    next_slot_id: u64,
    signature_of: Vec<u32>,
    /// Trigger-chain diagnostics, reported on the run's `RunStats`.
    counters: DominoCounters,
    /// Controller pacing: the pending compute event, re-armed by every
    /// pacing decision.
    compute: Option<EventHandle>,
    /// The controller waits for the first ROP report of the current
    /// batch before computing the next one (with a time fallback).
    awaiting_report: bool,
    /// When the current batch was dispatched and how long it should run.
    dispatch_time: SimTime,
    exec_estimate: SimDuration,
    /// Execution time remaining after the batch's first ROP slot — the
    /// report wave is the execution-anchored clock that paces the next
    /// compute.
    post_poll_exec: SimDuration,
    /// Until when each crashed AP stays dark (ignores batch programs and
    /// triggers).
    ap_dark_until: Vec<SimTime>,
    /// Crash flag per AP: the first batch accepted after the downtime
    /// counts as the recovery.
    ap_crashed: Vec<bool>,
    /// Per-link last truthful ROP value — what a stale report replays.
    last_rop: Vec<u32>,
    /// Consecutive watchdog restarts with zero deliveries in between
    /// (storm detection, see `DominoCounters::watchdog_storms`).
    wd_streak: u64,
    /// Monotone batch id for BatchBegin/BatchEnd trace pairing.
    batch_seq: u64,
    // ---- warm-standby control plane (inert unless `faults.standby`) ----
    /// The warm standby is armed for this run.
    standby_on: bool,
    /// Dedicated backbone for heartbeat / checkpoint / report-copy
    /// traffic. It draws from its own jitter stream (`STANDBY_WIRED`) so
    /// the primary backbone's sequence — and every standby-off golden —
    /// is untouched.
    standby_bb: Backbone,
    /// Heartbeat (and failure-detector probe) period.
    hb_every: SimDuration,
    /// Full-state checkpoint period.
    ckpt_every: SimDuration,
    /// Consecutive missed heartbeats before the standby promotes.
    missed_k: u32,
    /// The acting controller crashed and nobody has taken over yet.
    ctrl_down: bool,
    /// A (re)starting controller is rebuilding until this instant;
    /// compute events and report ingestion are dead before it.
    ctrl_dark_until: SimTime,
    /// When the last controller crash struck (recovery accounting).
    last_crash_at: SimTime,
    /// Last scheduler+backlog+converter image the standby ingested.
    standby_ckpt: Vec<u8>,
    /// Queue-report copies received since that image — the bounded delta
    /// replayed at promotion.
    standby_buf: Vec<(u32, u32)>,
    /// A heartbeat arrived since the standby's last probe.
    hb_seen: bool,
    /// Consecutive probes without a heartbeat.
    hb_missed: u32,
    /// Static topology tables cached at construction: the per-batch
    /// controller loops would otherwise rebuild these Vecs on every
    /// compute (hundreds per run).
    ap_list: Vec<NodeId>,
    clients: Vec<Vec<NodeId>>,
    /// Controller scratch, recycled across computes.
    backlog_buf: Vec<u32>,
    before_buf: Vec<u32>,
    committed_buf: Vec<u32>,
    slot_senders: Vec<Vec<NodeId>>,
    /// Converted-batch storage, recycled through `Converter::convert_into`.
    outcome_buf: ConversionOutcome,
    /// Recycled `ApMessage` payload storage: messages that complete
    /// delivery hand their buffers back via `on_batch_arrive`.
    action_pool: Vec<Vec<ApAction>>,
    retained_pool: Vec<Vec<RetainedUpdate>>,
}

impl World for DominoWorld {
    type Ev = DEv;
    type Config = DominoConfig;

    fn build(setup: &Setup<'_>, cfg: DominoConfig, tracer: TraceHandle) -> DominoWorld {
        let mut core = Core::new(setup, tracer);
        let (net, faults, seed) = (setup.net, setup.faults, setup.seed);
        let geo = slot_geometry(net.phy().data_rate, setup.workload.packet_bytes);
        let rop_dur = rop_slot_duration(net.phy().data_rate);
        let mut backbone = Backbone::new(cfg.wired.clone(), seed);
        backbone.set_loss(faults.wired_loss);
        backbone.set_spikes(faults.wired_spike, faults.wired_spike_us);
        backbone.set_tracer(core.tracer.clone());
        let mut standby_bb = Backbone::on_streams(
            cfg.wired.clone(),
            seed,
            streams::STANDBY_WIRED,
            streams::FAULT_WIRED,
        );
        standby_bb.set_loss(faults.wired_loss);
        standby_bb.set_spikes(faults.wired_spike, faults.wired_spike_us);
        let engine = &mut core.engine;
        let compute = Some(engine.schedule_at(SimTime::ZERO, DEv::ControllerCompute));
        let hb_every = SimDuration::from_secs_f64(faults.standby_heartbeat_us * 1e-6);
        let ckpt_every = SimDuration::from_secs_f64(faults.standby_checkpoint_us * 1e-6);
        if faults.standby {
            engine.schedule_at(SimTime::ZERO + hb_every, DEv::CtrlHeartbeat);
            engine.schedule_at(SimTime::ZERO + ckpt_every, DEv::CtrlCheckpoint);
            // The probe runs half a period out of phase so an in-flight
            // heartbeat lands before it is judged missing.
            engine.schedule_at(
                SimTime::ZERO
                    + SimDuration::from_secs_f64(faults.standby_heartbeat_us * 1.5e-6),
                DEv::StandbyProbe,
            );
        }
        let nodes = (0..net.num_nodes())
            .map(|_| NodeRt {
                program: VecDeque::new(),
                start: None,
                watchdog: None,
                busy_until: SimTime::ZERO,
                unacked: None,
                acked: false,
            })
            .collect();
        let signature_of = net.nodes().iter().map(|n| n.signature as u32).collect();
        let ap_list = net.aps();
        let clients = (0..net.num_nodes())
            .map(|n| net.clients_of(NodeId(n as u32)))
            .collect();
        DominoWorld {
            core,
            backbone,
            graph: ConflictGraph::build(net),
            scheduler: RandScheduler::new(net.links().len()),
            converter: Converter::new(cfg.converter.clone()),
            backlog: BacklogView::new(net.links().len()),
            nodes,
            geo,
            rop_dur,
            next_slot_id: 0,
            signature_of,
            counters: DominoCounters::default(),
            compute,
            awaiting_report: false,
            dispatch_time: SimTime::ZERO,
            exec_estimate: SimDuration::ZERO,
            post_poll_exec: SimDuration::ZERO,
            ap_dark_until: vec![SimTime::ZERO; net.num_nodes()],
            ap_crashed: vec![false; net.num_nodes()],
            last_rop: vec![0; net.links().len()],
            wd_streak: 0,
            batch_seq: 0,
            standby_on: faults.standby,
            standby_bb,
            hb_every,
            ckpt_every,
            missed_k: faults.standby_missed_k,
            ctrl_down: false,
            ctrl_dark_until: SimTime::ZERO,
            last_crash_at: SimTime::ZERO,
            standby_ckpt: Vec::new(),
            standby_buf: Vec::new(),
            hb_seen: false,
            hb_missed: 0,
            ap_list,
            clients,
            backlog_buf: Vec::new(),
            before_buf: Vec::new(),
            committed_buf: Vec::new(),
            slot_senders: Vec::new(),
            outcome_buf: ConversionOutcome::default(),
            action_pool: Vec::new(),
            retained_pool: Vec::new(),
            cfg,
        }
    }

    fn core(&mut self) -> &mut Core<DEv> {
        &mut self.core
    }

    /// Exhaustive on purpose: a new `DEv` variant must pick its bucket,
    /// which keeps the profiler's event attribution at 100%.
    fn cost_class(ev: &DEv) -> CostPath {
        match ev {
            DEv::Traffic(_) => CostPath::EvTraffic,
            DEv::TxEnd { .. } => CostPath::EvMedium,
            DEv::BatchArrive { .. }
            | DEv::ReportArrive { .. }
            | DEv::ControllerCompute => CostPath::EvController,
            DEv::SlotStart { .. }
            | DEv::SendBurst { .. }
            | DEv::SendAck { .. }
            | DEv::AckCheck { .. }
            | DEv::Watchdog { .. }
            | DEv::KickOff { .. } => CostPath::EvSlot,
            DEv::RopAnswer { .. } => CostPath::EvRop,
            DEv::CtrlHeartbeat
            | DEv::CtrlCheckpoint
            | DEv::HeartbeatArrive
            | DEv::CkptArrive { .. }
            | DEv::StandbyReport { .. }
            | DEv::StandbyProbe => CostPath::EvStandby,
        }
    }

    fn handle(&mut self, now: SimTime, ev: DEv) {
        self.on_event(now, ev);
    }

    fn finish(self) -> Core<DEv> {
        let mut core = self.core;
        core.prof.add(
            CostPath::RngWired,
            self.backbone.rng_draws() + self.standby_bb.rng_draws(),
        );
        let stats = &mut core.fe.stats;
        stats.domino = self.counters;
        stats
            .faults
            .merge_backbone(self.backbone.messages_lost(), self.backbone.spikes_injected());
        stats
            .faults
            .merge_backbone(self.standby_bb.messages_lost(), self.standby_bb.spikes_injected());
        core
    }

    /// Serialize everything the run's future depends on beyond the core.
    /// Scratch storage (the controller's compute buffers, the
    /// dispatch pools) is empty between events and rebuilt on demand, so
    /// it is deliberately not part of the image.
    fn save(&self, w: &mut SnapWriter) {
        self.backbone.save(w);
        self.standby_bb.save(w);
        self.scheduler.save(w);
        self.converter.save(w);
        self.backlog.save(w);
        self.nodes.put(w);
        w.put_u64(self.next_slot_id);
        self.counters.put(w);
        self.compute.put(w);
        self.awaiting_report.put(w);
        self.dispatch_time.put(w);
        self.exec_estimate.put(w);
        self.post_poll_exec.put(w);
        self.ap_dark_until.put(w);
        self.ap_crashed.put(w);
        self.last_rop.put(w);
        w.put_u64(self.wd_streak);
        w.put_u64(self.batch_seq);
        self.ctrl_down.put(w);
        self.ctrl_dark_until.put(w);
        self.last_crash_at.put(w);
        self.standby_ckpt.put(w);
        self.standby_buf.put(w);
        self.hb_seen.put(w);
        w.put_u32(self.hb_missed);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.backbone.restore(r)?;
        self.standby_bb.restore(r)?;
        self.scheduler.restore(r)?;
        self.converter.restore(r)?;
        self.backlog.restore(r)?;
        let nodes: Vec<NodeRt> = SnapValue::thaw(r)?;
        if nodes.len() != self.nodes.len() {
            return Err(SnapError::Corrupt("node table length"));
        }
        self.nodes = nodes;
        self.next_slot_id = r.get_u64()?;
        self.counters = SnapValue::thaw(r)?;
        self.compute = SnapValue::thaw(r)?;
        self.awaiting_report = SnapValue::thaw(r)?;
        self.dispatch_time = SnapValue::thaw(r)?;
        self.exec_estimate = SnapValue::thaw(r)?;
        self.post_poll_exec = SnapValue::thaw(r)?;
        let dark: Vec<SimTime> = SnapValue::thaw(r)?;
        if dark.len() != self.ap_dark_until.len() {
            return Err(SnapError::Corrupt("ap dark table length"));
        }
        self.ap_dark_until = dark;
        let crashed: Vec<bool> = SnapValue::thaw(r)?;
        if crashed.len() != self.ap_crashed.len() {
            return Err(SnapError::Corrupt("ap crash table length"));
        }
        self.ap_crashed = crashed;
        let last_rop: Vec<u32> = SnapValue::thaw(r)?;
        if last_rop.len() != self.last_rop.len() {
            return Err(SnapError::Corrupt("rop table length"));
        }
        self.last_rop = last_rop;
        self.wd_streak = r.get_u64()?;
        self.batch_seq = r.get_u64()?;
        self.ctrl_down = SnapValue::thaw(r)?;
        self.ctrl_dark_until = SnapValue::thaw(r)?;
        self.last_crash_at = SnapValue::thaw(r)?;
        self.standby_ckpt = SnapValue::thaw(r)?;
        self.standby_buf = SnapValue::thaw(r)?;
        self.hb_seen = SnapValue::thaw(r)?;
        self.hb_missed = r.get_u32()?;
        Ok(())
    }
}

impl DominoWorld {
    // ---------------------------------------------------- warm standby

    /// The acting controller exists and is not mid-restart.
    fn ctrl_alive(&self, now: SimTime) -> bool {
        !self.ctrl_down && now >= self.ctrl_dark_until
    }

    /// The acting controller crashes at a compute instant. With the warm
    /// standby armed, the deterministic detector (k missed heartbeats)
    /// promotes it; without it, a cold restart loses the scheduler,
    /// backlog and converter state and sits out the full downtime.
    fn on_ctrl_crash(&mut self, now: SimTime, downtime: SimDuration) {
        self.core.tracer.emit(now.as_nanos(), || TraceEvent::FaultInject {
            kind: FaultKind::CtrlCrash,
            node: u32::MAX, // the controller is not a radio node
        });
        self.awaiting_report = false;
        self.last_crash_at = now;
        // The dead incarnation's pending compute timer dies with it.
        self.core.engine.disarm(&mut self.compute);
        if self.standby_on {
            self.ctrl_down = true;
            return;
        }
        self.scheduler = RandScheduler::new(self.core.net.links().len());
        self.backlog = BacklogView::new(self.core.net.links().len());
        self.converter = Converter::new(self.cfg.converter.clone());
        self.core.fe.stats.faults.recovery_ns += downtime.as_nanos();
        self.ctrl_dark_until = now + downtime;
        self.core.engine.rearm(&mut self.compute, self.ctrl_dark_until, DEv::ControllerCompute);
    }

    /// The standby's failure detector fired: take over. Rebuild the
    /// controller from the last shipped state image, replay the buffered
    /// report delta on top, and resume computing once the replay cost has
    /// been paid.
    fn promote_standby(&mut self, now: SimTime) {
        let replayed = self.standby_buf.len() as u64;
        self.scheduler = RandScheduler::new(self.core.net.links().len());
        self.backlog = BacklogView::new(self.core.net.links().len());
        self.converter = Converter::new(self.cfg.converter.clone());
        if !self.standby_ckpt.is_empty() {
            let mut r = SnapReader::new(&self.standby_ckpt);
            // lint: allow(D005) the image was produced by these components' own save
            self.scheduler.restore(&mut r).expect("standby scheduler image");
            // lint: allow(D005) same standby image, written by BacklogView's own save
            self.backlog.restore(&mut r).expect("standby backlog image");
            // lint: allow(D005) same standby image, written by Converter's own save
            self.converter.restore(&mut r).expect("standby converter image");
        }
        for &(link, queue) in &self.standby_buf {
            self.backlog.report(LinkId(link), queue);
        }
        self.standby_buf.clear();
        let promotion_end = now + REPLAY_COST * replayed;
        let recovery = promotion_end.saturating_since(self.last_crash_at);
        self.core.fe.stats.faults.standby_promotions += 1;
        self.core.fe.stats.faults.replayed_reports += replayed;
        self.core.fe.stats.faults.recovery_ns += recovery.as_nanos();
        self.core.tracer
            .emit(now.as_nanos(), move || TraceEvent::StandbyPromote { replayed });
        self.ctrl_down = false;
        self.ctrl_dark_until = promotion_end;
        self.hb_missed = 0;
        self.hb_seen = false;
        self.core.engine.rearm(&mut self.compute, promotion_end, DEv::ControllerCompute);
    }

    // ------------------------------------------------------- controller

    fn controller_compute(&mut self, now: SimTime) {
        self.core.prof.tick(CostPath::CtrlCompute);
        // Downlink queues are known instantly over the wire; uplinks only
        // through ROP reports. All three working buffers are World scratch
        // recycled across computes.
        let mut backlog = std::mem::take(&mut self.backlog_buf);
        backlog.clear();
        backlog.extend(self.core.net.links().iter().map(|l| match l.direction {
            Direction::Downlink => self.core.fe.queue(l.id).len() as u32,
            Direction::Uplink => self.backlog.estimate(l.id),
        }));
        let mut before = std::mem::take(&mut self.before_buf);
        before.clear();
        before.extend_from_slice(&backlog);
        let mut strict = self
            .scheduler
            .schedule_batch(&self.graph, &mut backlog, self.cfg.batch_slots);
        self.core.prof.tick(CostPath::CtrlSchedule);
        if strict.is_empty() {
            // Idle heartbeat: fake-only slots keep the trigger chains and
            // the ROP polling alive so new uplink backlog is discovered
            // (fake-link insertion turns an empty slot into a maximal
            // cover). The very first batch needs two slots to create a
            // boundary for the ROP insertion.
            let n = if self.converter.has_retained_slot() { 1 } else { 2 };
            strict.slots = vec![Vec::new(); n];
        }
        // Commit uplink consumption to the stale-report tracker.
        let mut committed = std::mem::take(&mut self.committed_buf);
        committed.clear();
        committed.extend_from_slice(self.backlog.estimates());
        for l in self.core.net.links() {
            if l.direction == Direction::Uplink {
                let used = before[l.id.index()] - backlog[l.id.index()];
                committed[l.id.index()] = committed[l.id.index()].saturating_sub(used);
            }
        }
        self.backlog.commit_schedule(&committed);
        self.backlog_buf = backlog;
        self.before_buf = before;
        self.committed_buf = committed;

        let polling: &[NodeId] = if self.cfg.converter.insert_rop {
            &self.ap_list
        } else {
            &[]
        };
        let mut outcome = std::mem::take(&mut self.outcome_buf);
        self.converter
            .convert_into(&self.core.net, &self.graph, &strict, polling, &mut outcome);
        self.core.prof.tick(CostPath::CtrlConvert);
        self.core.prof.add_with(CostPath::CtrlSlots, || outcome.batch.slots.len() as u64);
        self.core.prof.add_with(CostPath::CtrlActions, || {
            outcome.batch.slots.iter().map(|s| s.entries.len() as u64).sum()
        });
        self.scheduler.recycle(strict);
        for l in &outcome.rescheduled {
            if self.core.net.link(*l).direction == Direction::Uplink {
                self.backlog.refund(*l);
            }
            // Downlink refunds are implicit: those packets never left
            // their queues.
        }

        let n_slots = outcome.batch.slots.len();
        if n_slots == 0 && outcome.batch.connecting_rop.is_none() {
            self.outcome_buf = outcome;
            let at = now + SimDuration::from_millis(1);
            self.core.engine.rearm(&mut self.compute, at, DEv::ControllerCompute);
            return;
        }

        let n_rops = outcome
            .batch
            .slots
            .iter()
            .filter(|s| s.rop_after.is_some())
            .count()
            + usize::from(outcome.batch.connecting_rop.is_some());
        // Slots that run after the batch's first poll (whose report wave
        // paces the next compute).
        let after_first_poll = if outcome.batch.connecting_rop.is_some() {
            n_slots
        } else {
            outcome
                .batch
                .slots
                .iter()
                .position(|s| s.rop_after.is_some())
                .map(|i| n_slots - (i + 1))
                .unwrap_or(0)
        };
        self.post_poll_exec = self.geo.total * after_first_poll as u64;
        // A stalled controller ships the batch late. The fallback timer
        // below is deliberately NOT extended: overrunning it — the next
        // compute firing while the late batch is still in flight — is the
        // injected failure mode.
        let stall = match self.core.node_faults.compute_stall() {
            Some(d) => {
                // The controller is not a radio node; u32::MAX marks it.
                self.core.tracer.emit(now.as_nanos(), || TraceEvent::FaultInject {
                    kind: FaultKind::ComputeStall,
                    node: u32::MAX,
                });
                d
            }
            None => SimDuration::ZERO,
        };
        self.dispatch_batch(now, &outcome.batch, stall);

        // Pacing: the next batch is computed when this batch's first ROP
        // report comes back (proof the batch is executing), with a
        // fallback timer sized to the batch's nominal execution time.
        // Without ROP there are no reports, so the timer alone paces
        // dispatch — slightly ahead of the batch's drain so the
        // connecting bursts arrive in time.
        let exec = self.geo.total * n_slots as u64 + self.rop_dur * n_rops as u64;
        let wired = SimDuration::from_micros_f64(self.cfg.wired.mean_us);
        let fallback = if self.cfg.converter.insert_rop {
            exec + wired * 2 + self.cfg.watchdog
        } else {
            exec.checked_sub(wired)
                .unwrap_or(SimDuration::from_micros(200))
                .max(SimDuration::from_micros(200))
        };
        self.awaiting_report = true;
        self.dispatch_time = now;
        self.exec_estimate = exec;
        self.core.engine.rearm(&mut self.compute, now + fallback, DEv::ControllerCompute);
        self.outcome_buf = outcome;
    }

    /// Turn a converted batch into per-AP wired messages, each delayed by
    /// `stall` (the controller's injected compute stall; zero normally).
    fn dispatch_batch(&mut self, now: SimTime, batch: &RelativeBatch, stall: SimDuration) {
        self.core.prof.tick(CostPath::CtrlDispatch);
        let first_slot = self.next_slot_id;
        let retained_slot = first_slot.wrapping_sub(1);
        self.next_slot_id += batch.slots.len() as u64;
        self.batch_seq += 1;
        let batch_id = self.batch_seq;
        self.core.tracer.emit(now.as_nanos(), || TraceEvent::BatchBegin {
            batch: batch_id,
            first_slot,
            slots: batch.slots.len() as u32,
        });
        let sigs = &self.signature_of;

        let burst_of = |assignments: &[BurstAssignment],
                        node: NodeId,
                        marker: BurstMarker,
                        slot: u64,
                        next_senders: &[NodeId]|
         -> Option<Burst> {
            assignments.iter().find(|b| b.broadcaster == node).map(|b| Burst {
                // lint: allow(D007) collect into array-backed InlineVec<_, BURST_CAP>; no heap
                codes: b.targets.iter().map(|t| sigs[t.index()]).collect(),
                // lint: allow(D007) collect into array-backed InlineVec<_, BURST_CAP>; no heap
                targets: b.targets.iter().copied().collect(),
                marker,
                slot,
                continues: next_senders.contains(&node),
            })
        };
        // Senders of each batch slot (for the `continues` self-trigger
        // flag: a broadcaster is deaf during the simultaneous burst
        // phase, so the controller tells it in-band that it transmits
        // again). Inner Vecs are World scratch recycled across batches.
        let mut sender_bufs = std::mem::take(&mut self.slot_senders);
        for (i, s) in batch.slots.iter().enumerate() {
            if sender_bufs.len() <= i {
                // lint: allow(D007) one-time pool growth; buffers recycled across batches via World::slot_senders
                sender_bufs.push(Vec::new());
            }
            let buf = &mut sender_bufs[i];
            buf.clear();
            buf.extend(s.entries.iter().map(|e| self.core.net.link(e.link).sender));
        }
        let slot_senders = &sender_bufs[..batch.slots.len()];

        for &ap in &self.ap_list {
            let mut actions: Vec<ApAction> = self.action_pool.pop().unwrap_or_default();
            let mut retained_updates = self.retained_pool.pop().unwrap_or_default();
            debug_assert!(actions.is_empty() && retained_updates.is_empty());

            // Batch connection: bursts for the retained slot trigger our
            // first slot (and the connecting ROP slot).
            let conn_marker = if batch.connecting_rop.is_some() {
                BurstMarker::Rop
            } else {
                BurstMarker::Start
            };
            if let Some(rop) = &batch.connecting_rop {
                if rop.aps.contains(&ap) {
                    actions.push(ApAction {
                        slot: first_slot,
                        kind: ApActionKind::Poll,
                        rop_before: false,
                        kick_off: false,
                        own_burst: None,
                        client_burst: None,
                    });
                }
            }
            if !batch.connecting_bursts.is_empty() {
                let first_senders: &[NodeId] =
                    slot_senders.first().map(|v| v.as_slice()).unwrap_or(&[]);
                let own =
                    burst_of(&batch.connecting_bursts, ap, conn_marker, first_slot, first_senders);
                let client = self.clients[ap.index()].iter().copied().find_map(|c| {
                    burst_of(&batch.connecting_bursts, c, conn_marker, first_slot, first_senders)
                        .or_else(|| {
                            first_senders.contains(&c).then(|| Burst {
                                codes: InlineVec::new(),
                                targets: InlineVec::new(),
                                marker: conn_marker,
                                slot: first_slot,
                                continues: true,
                            })
                        })
                });
                if own.is_some() || client.is_some() {
                    retained_updates.push((retained_slot, own, client));
                }
            }

            for (i, slot) in batch.slots.iter().enumerate() {
                let slot_id = first_slot + i as u64;
                let next_slot_id = slot_id + 1;
                let marker = if slot.rop_after.is_some() {
                    BurstMarker::Rop
                } else {
                    BurstMarker::Start
                };
                for entry in &slot.entries {
                    let link = *self.core.net.link(entry.link);
                    if link.ap != ap {
                        continue;
                    }
                    let next_senders: &[NodeId] = slot_senders
                        .get(i + 1)
                        .map(|v| v.as_slice())
                        .unwrap_or(&[]);
                    let own = burst_of(&slot.bursts, ap, marker, next_slot_id, next_senders);
                    // The client's instruction is sent even when it has
                    // no trigger targets of its own: a client that
                    // transmits again in the next slot is deaf during the
                    // burst phase and must learn its continuation
                    // in-band.
                    let client = burst_of(&slot.bursts, link.client(), marker, next_slot_id, next_senders)
                        .or_else(|| {
                            next_senders.contains(&link.client()).then(|| Burst {
                                codes: InlineVec::new(),
                                targets: InlineVec::new(),
                                marker,
                                slot: next_slot_id,
                                continues: true,
                            })
                        });
                    let kind = if link.is_downlink() {
                        ApActionKind::TxData { link: entry.link }
                    } else {
                        ApActionKind::RxData { link: entry.link }
                    };
                    let rop_before = if i == 0 {
                        batch.connecting_rop.is_some()
                    } else {
                        // lint: allow(D010) i >= 1 in this branch: the i == 0 arm is above
                        batch.slots[i - 1].rop_after.is_some()
                    };
                    actions.push(ApAction {
                        slot: slot_id,
                        kind,
                        rop_before,
                        kick_off: entry.kick_off,
                        own_burst: own,
                        client_burst: client,
                    });
                }
                if let Some(rop) = &slot.rop_after {
                    if rop.aps.contains(&ap) {
                        actions.push(ApAction {
                            slot: next_slot_id,
                            kind: ApActionKind::Poll,
                            rop_before: false,
                            kick_off: false,
                            own_burst: None,
                            client_burst: None,
                        });
                    }
                }
            }

            if actions.is_empty() && retained_updates.is_empty() {
                self.action_pool.push(actions);
                self.retained_pool.push(retained_updates);
                continue;
            }
            if let Some(m) = self.backbone.try_send(now, ()) {
                self.core.prof.tick(CostPath::CtrlDispatchMsgs);
                let msg = ApMessage { first_slot, actions, retained_updates };
                self.core.engine
                    .schedule_at(m.deliver_at + stall, DEv::BatchArrive { ap: ap.0, msg });
            } else {
                // A lost program is not re-sent: the controller's
                // fallback timer paces the next compute regardless, and
                // the AP's retained entries are shed when the next batch
                // lands.
                actions.clear();
                retained_updates.clear();
                self.action_pool.push(actions);
                self.retained_pool.push(retained_updates);
            }
        }
        self.slot_senders = sender_bufs;
    }

    // --------------------------------------------------------- AP logic

    fn on_batch_arrive(&mut self, now: SimTime, ap: usize, msg: ApMessage) {
        if now < self.ap_dark_until[ap] {
            return; // crashed AP: the program dies with it
        }
        if let Some(downtime) = self.core.node_faults.crash() {
            // Crash with state loss: the program, pending starts, and the
            // unacked frame are gone; the old incarnation's slot-start and
            // watchdog timers are cancelled. The AP rejoins lazily — the
            // first batch delivered after the downtime restarts it.
            self.core.tracer.emit(now.as_nanos(), || TraceEvent::FaultInject {
                kind: FaultKind::ApCrash,
                node: ap as u32,
            });
            let rt = &mut self.nodes[ap];
            rt.program.clear();
            rt.unacked = None;
            rt.acked = false;
            self.core.engine.disarm(&mut rt.start);
            self.core.engine.disarm(&mut rt.watchdog);
            self.ap_dark_until[ap] = now + downtime;
            self.ap_crashed[ap] = true;
            return;
        }
        if self.ap_crashed[ap] {
            self.ap_crashed[ap] = false;
            self.core.node_faults.recovered();
            self.core.tracer.emit(now.as_nanos(), || TraceEvent::FaultRecover {
                kind: FaultKind::ApCrash,
                node: ap as u32,
            });
        }
        let ApMessage { first_slot, mut actions, mut retained_updates } = msg;
        // Apply retained-slot burst updates to still-pending actions.
        for (slot, own, client) in retained_updates.drain(..) {
            if let Some(action) =
                self.nodes[ap].program.iter_mut().find(|a| a.slot == slot)
            {
                if own.is_some() {
                    action.own_burst = own;
                }
                if client.is_some() {
                    action.client_burst = client;
                }
            }
            // If the retained action already executed, these triggers are
            // lost; the watchdog restarts the chain.
        }
        let was_idle = self.nodes[ap].program.is_empty();
        let head_is_first = actions.first().is_some_and(|a| a.slot == first_slot);
        // Untriggerable entries start on their own, paced by the nominal
        // slot length from the batch's arrival; once an island's chain is
        // running, its later slots chain relatively as usual.
        for a in &actions {
            if a.kick_off {
                let offset = self.geo.total * a.slot.saturating_sub(first_slot);
                self.core.engine
                    .schedule_at(now + offset, DEv::KickOff { ap: ap as u32, slot: a.slot });
            }
        }
        self.counters.actions_dispatched += actions.len() as u64;
        self.nodes[ap].program.extend(actions.drain(..));
        // Hand the message's buffers back to the dispatch pools.
        self.action_pool.push(actions);
        self.retained_pool.push(retained_updates);

        if was_idle && head_is_first && self.nodes[ap].start.is_none() {
            // Chain (re)start: APs begin individually (paper §3.3);
            // relative scheduling heals the misalignment (§4.2.2).
            self.self_start(now, ap);
        }
        self.arm_watchdog(now, ap);
    }

    /// Restart a chain at this AP: transmit/poll heads start directly;
    /// for a receive head "the AP will send a signature to the sender of
    /// that link" (paper §3.3).
    fn self_start(&mut self, now: SimTime, ap: usize) {
        let Some(head) = self.nodes[ap].program.front().cloned() else {
            return;
        };
        match head.kind {
            ApActionKind::RxData { link } => {
                let client = self.core.net.link(link).client();
                let burst = Burst {
                    codes: InlineVec::of(self.signature_of[client.index()]),
                    targets: InlineVec::of(client),
                    marker: BurstMarker::Start,
                    slot: head.slot,
                    continues: false,
                };
                self.on_send_burst(now, ap, burst);
            }
            _ => {
                self.schedule_start(now, ap, head.slot);
            }
        }
    }

    /// (Re-)arm the self-start watchdog; every call marks progress and
    /// retires previously armed timers.
    fn arm_watchdog(&mut self, now: SimTime, ap: usize) {
        if self.nodes[ap].program.is_empty() {
            return;
        }
        let at = now + self.cfg.watchdog;
        self.core.engine.rearm(&mut self.nodes[ap].watchdog, at, DEv::Watchdog { ap: ap as u32 });
    }

    /// A node detected its own signature in a burst: (re-)anchor its slot
    /// start to this (the last) trigger (§3.4).
    fn on_trigger(&mut self, now: SimTime, node: usize, marker: BurstMarker, slot: u64) {
        if self.core.medium.is_transmitting(NodeId(node as u32)) {
            return; // a transmitting radio cannot run its correlator
        }
        if now < self.ap_dark_until[node] {
            return; // crashed: the radio is down
        }
        if now < self.nodes[node].busy_until {
            self.counters.stale_triggers += 1;
            return; // mid-exchange: the correlator is not armed
        }
        let is_poll_next = self.nodes[node]
            .program
            .front()
            .is_some_and(|a| a.kind == ApActionKind::Poll);
        let delay = match (marker, is_poll_next) {
            (BurstMarker::Rop, true) => SLOT_TIME, // the polling AP starts the ROP slot
            (BurstMarker::Rop, false) => self.rop_dur + SLOT_TIME,
            (BurstMarker::Start, _) => SLOT_TIME,
        };
        self.core.tracer.emit(now.as_nanos(), || TraceEvent::TriggerFire {
            node: node as u32,
            slot,
        });
        self.schedule_start(now + delay, node, slot);
    }

    /// Commit a (re-)anchored slot start for `node` at `at`, superseding
    /// any earlier pending start (last trigger wins, §3.4).
    fn schedule_start(&mut self, at: SimTime, node: usize, slot: u64) {
        let ev = DEv::SlotStart { node: node as u32, slot };
        self.core.engine.rearm(&mut self.nodes[node].start, at, ev);
    }

    /// Self-trigger: the node finishing slot `s` (which started at
    /// `slot_start`) transmits again in slot `s+1`; it cannot hear any
    /// trigger during the simultaneous burst phase, so it continues from
    /// its own slot timing.
    fn self_trigger_after_slot(&mut self, slot_start: SimTime, node: usize, next_slot: u64, rop_before: bool) {
        let mut at = slot_start
            + self.geo.burst_start
            + crate::timing::BURST_DURATION
            + SLOT_TIME;
        if rop_before {
            at += self.rop_dur;
        }
        self.schedule_start(at, node, next_slot);
    }

    fn on_slot_start(&mut self, now: SimTime, node: usize, slot: u64) {
        self.nodes[node].start = None;
        if self.core.medium.is_transmitting(NodeId(node as u32)) {
            return;
        }
        // The node is now committed to this slot's exchange; its
        // correlator re-arms at the burst phase.
        self.nodes[node].busy_until = now + self.geo.burst_start;
        if self.core.net.node(NodeId(node as u32)).is_ap() {
            self.ap_execute(now, node, slot);
        } else {
            self.client_transmit(now, node, slot);
        }
    }

    /// The AP acts on a trigger. The trigger's slot index is advisory
    /// (the real protocol carries none): entries for clearly-passed slots
    /// are shed so a lagging AP rejoins the live grid — their packets
    /// never left the queues — but the trigger always starts the next
    /// pending entry.
    fn ap_execute(&mut self, now: SimTime, ap: usize, slot: u64) {
        while let Some(head) = self.nodes[ap].program.front() {
            if head.slot < slot {
                self.counters.actions_shed += 1;
                self.nodes[ap].program.pop_front();
            } else {
                break;
            }
        }
        let Some(action) = self.nodes[ap].program.front().cloned() else {
            return;
        };
        match action.kind {
            ApActionKind::TxData { link } => {
                self.nodes[ap].program.pop_front();
                self.start_data_slot(
                    now,
                    NodeId(ap as u32),
                    link,
                    action.own_burst,
                    action.client_burst,
                    action.slot,
                );
                self.maybe_self_trigger(now, ap, action.slot);
                self.arm_watchdog(now, ap);
            }
            ApActionKind::Poll => {
                self.nodes[ap].program.pop_front();
                self.start_poll(now, NodeId(ap as u32));
                // The polling AP may itself transmit in the slot that
                // follows the ROP slot.
                if self.nodes[ap]
                    .program
                    .front()
                    .is_some_and(|a| a.slot == action.slot)
                {
                    // The guard above ensures the head slot equals action.slot.
                    self.schedule_start(now + self.rop_dur + SLOT_TIME, ap, action.slot);
                }
                self.arm_watchdog(now, ap);
            }
            ApActionKind::RxData { link } => {
                // Our trigger fired for a slot whose entry is a receive:
                // relay the trigger to the client with a direct burst
                // (kick-off path; ordinary uplink slots trigger the
                // client over the air instead).
                let client = self.core.net.link(link).client();
                if now >= self.nodes[client.index()].busy_until {
                    let burst = Burst {
                        codes: InlineVec::of(self.signature_of[client.index()]),
                        targets: InlineVec::of(client),
                        marker: BurstMarker::Start,
                        slot: action.slot,
                        continues: false,
                    };
                    self.on_send_burst(now, ap, burst);
                }
            }
        }
    }

    /// If the AP's (new) program head is the very next slot, arrange its
    /// self-trigger relative to the slot that starts at `slot_start`.
    fn maybe_self_trigger(&mut self, slot_start: SimTime, ap: usize, current_slot: u64) {
        let Some(head) = self.nodes[ap].program.front() else {
            return;
        };
        // RxData heads are passive (the client drives that slot); only
        // TxData/Poll continuations need a self-trigger.
        if head.slot == current_slot + 1 && !matches!(head.kind, ApActionKind::RxData { .. }) {
            let rop = head.rop_before;
            let next = head.slot;
            self.self_trigger_after_slot(slot_start, ap, next, rop);
        }
    }

    /// A triggered client transmits its uplink head (or a fake header).
    fn client_transmit(&mut self, now: SimTime, client: usize, slot: u64) {
        self.counters.client_transmissions += 1;
        let uplink = match self.core
            .net
            .links()
            .iter()
            .find(|l| l.sender == NodeId(client as u32))
        {
            Some(l) => l.id,
            None => return,
        };
        // §3.5 missed ACK: the client retransmits the unacked packet when
        // its next trigger arrives.
        let packet = match self.nodes[client].unacked.take() {
            Some(p) => Some(p),
            None => self.core.fe.queue_mut(uplink).pop(),
        };
        self.transmit_exchange(now, NodeId(client as u32), uplink, packet, None, slot);
    }

    /// Shared data-slot start for AP transmitters.
    fn start_data_slot(
        &mut self,
        now: SimTime,
        sender: NodeId,
        link: LinkId,
        own_burst: Option<Burst>,
        client_burst: Option<Burst>,
        slot: u64,
    ) {
        // §3.5 missed ACK (AP side): retransmit if the schedule head has
        // the same destination — here, the same link.
        let packet = match self.nodes[sender.index()].unacked.take() {
            Some(p) if p.link == link => Some(p),
            Some(p) => {
                // Different destination: back to its queue for the
                // scheduler.
                let _ = self.core.fe.queue_mut(p.link).push_front(p);
                self.core.fe.queue_mut(link).pop()
            }
            None => self.core.fe.queue_mut(link).pop(),
        };
        // The AP's burst goes out at the fixed offset regardless of the
        // exchange outcome (its job is to trigger the next slot).
        if let Some(b) = own_burst {
            self.core.engine.schedule_at(
                now + self.geo.burst_start,
                DEv::SendBurst { node: sender.0, burst: b },
            );
        }
        self.transmit_exchange(now, sender, link, packet, client_burst, slot);
    }

    /// Put the data (or fake-header) frame of a slot on the air.
    fn transmit_exchange(
        &mut self,
        now: SimTime,
        sender: NodeId,
        link: LinkId,
        packet: Option<Packet>,
        client_burst: Option<Burst>,
        slot: u64,
    ) {
        if self.core.medium.is_transmitting(sender) {
            if let Some(p) = packet {
                let _ = self.core.fe.queue_mut(link).push_front(p);
            }
            return;
        }
        self.core.fe.stats.slot_starts.push(crate::workload::SlotStartRecord {
            slot,
            start_ns: now.as_nanos(),
            link,
            fake: packet.is_none(),
        });
        self.core.tracer.emit(now.as_nanos(), || TraceEvent::SlotStart {
            slot,
            link: link.0,
            fake: packet.is_none(),
        });
        let (frame, airtime) = match packet {
            Some(p) => {
                self.nodes[sender.index()].unacked = Some(p);
                self.nodes[sender.index()].acked = false;
                self.core.engine.schedule_at(
                    now + self.geo.ack_start + self.geo.ack_airtime + SLOT_TIME,
                    DEv::AckCheck { node: sender.0 },
                );
                (
                    Frame {
                        src: sender,
                        body: FrameBody::Data { packet: p, fake: false, client_burst },
                        bits: (p.payload_bytes + MAC_OVERHEAD_BYTES) * 8,
                    },
                    self.geo.data_airtime,
                )
            }
            None => (
                Frame {
                    src: sender,
                    body: FrameBody::Data {
                        packet: Packet {
                            id: domino_traffic::PacketId(u64::MAX),
                            flow: domino_traffic::FlowId(u32::MAX),
                            link,
                            payload_bytes: 0,
                            created_at: now,
                            kind: PacketKind::Udp,
                            seq: u64::MAX,
                        },
                        fake: true,
                        client_burst,
                    },
                    bits: crate::timing::FAKE_HEADER_BYTES * 8,
                },
                fake_airtime(self.core.net.phy().data_rate) + crate::timing::INSTRUCTION_APPENDIX,
            ),
        };
        let tx = self.core.medium.begin(now, frame);
        self.core.engine.schedule_at(now + airtime, DEv::TxEnd { tx });
    }

    fn start_poll(&mut self, now: SimTime, ap: NodeId) {
        if self.core.medium.is_transmitting(ap) {
            return;
        }
        self.core.prof.tick(CostPath::RopPoll);
        self.core.tracer.emit(now.as_nanos(), || TraceEvent::RopPoll { ap: ap.0 });
        let frame = Frame { src: ap, body: FrameBody::Poll { ap }, bits: POLL_BYTES * 8 };
        let tx = self.core.medium.begin(now, frame);
        self.core.engine
            .schedule_at(now + poll_airtime(self.core.net.phy().data_rate), DEv::TxEnd { tx });
    }

    // ------------------------------------------------------- receptions

    fn on_tx_end(&mut self, now: SimTime, tx: TxId) {
        let receptions = self.core.end_tx(tx, now);
        for r in &receptions {
            let rx = r.rx.index();
            match &r.frame.body {
                FrameBody::Data { packet, fake, client_burst } => {
                    let l = *self.core.net.link(packet.link);
                    let intended = if l.is_downlink() { l.client() } else { l.ap };
                    if r.rx == intended {
                        self.core.tracer.emit(now.as_nanos(), || TraceEvent::SlotEnd {
                            link: packet.link.0,
                            delivered: r.success && !*fake,
                        });
                    }
                    if !r.success {
                        continue;
                    }
                    if !*fake {
                        self.core.fe.deliver(packet, now);
                        self.core.fe.sync_all_rto(now, &mut self.core.engine);
                        self.wd_streak = 0; // progress: the storm streak ends
                    }
                    let ap_is_receiver = self.core.net.node(r.rx).is_ap();
                    // How far into the fixed slot the data phase actually
                    // ran (fake headers are short, but the burst offset
                    // never moves).
                    let elapsed = if *fake {
                        fake_airtime(self.core.net.phy().data_rate)
                            + crate::timing::INSTRUCTION_APPENDIX
                    } else {
                        self.geo.data_airtime
                    };
                    // Downlink: the client schedules its instructed burst
                    // at the slot's fixed burst offset.
                    if !ap_is_receiver {
                        if let Some(b) = client_burst {
                            let at = now + (self.geo.burst_start - elapsed);
                            self.core.engine
                                .schedule_at(at, DEv::SendBurst { node: r.rx.0, burst: *b });
                            if b.continues {
                                let rop = b.marker == BurstMarker::Rop;
                                self.self_trigger_after_slot(now - elapsed, rx, b.slot, rop);
                            }
                        }
                    }
                    // Uplink: the AP advances its program, schedules its
                    // own burst and embeds the client's instruction in
                    // the ACK.
                    let reply_burst = if ap_is_receiver {
                        self.ap_uplink_reception(now, rx, packet.link, elapsed)
                    } else {
                        None
                    };
                    // Real frames are ACKed; a fake uplink still gets a
                    // header-ACK when it must carry the client's burst
                    // instruction (Fig 8b's S1 has no other ride). The
                    // ACK always sits at the slot's fixed ACK offset — a
                    // fake exchange's header ends early, and an early ACK
                    // would land inside concurrent links' data phases.
                    let must_ack = !*fake || (ap_is_receiver && reply_burst.is_some());
                    if must_ack && !self.core.medium.is_transmitting(r.rx) {
                        let ack_at = now + (self.geo.ack_start - elapsed);
                        self.core.engine.schedule_at(
                            ack_at,
                            DEv::SendAck { rx: r.rx.0, packet: *packet, client_burst: reply_burst },
                        );
                    }
                }
                FrameBody::MacAck { packet, link, client_burst } => {
                    if !r.success {
                        continue;
                    }
                    let sender = self.core.net.link(*link).sender.index();
                    if rx == sender
                        && self.nodes[sender].unacked.is_some_and(|p| p.id == *packet)
                    {
                        self.nodes[sender].unacked = None;
                        self.nodes[sender].acked = true;
                    }
                    // Uplink case: the client's instruction rides the
                    // ACK; it bursts one slot later.
                    if let Some(b) = client_burst {
                        if !self.core.net.node(r.rx).is_ap() {
                            self.core.engine.schedule_at(
                                now + SLOT_TIME,
                                DEv::SendBurst { node: r.rx.0, burst: *b },
                            );
                            if b.continues {
                                let rop = b.marker == BurstMarker::Rop;
                                // The ACK ends at slot_start + data phase +
                                // SIFS + ack airtime; fake exchanges (the
                                // acked id is the fake sentinel) had a
                                // short data phase.
                                let data_elapsed = if *packet == domino_traffic::PacketId(u64::MAX)
                                {
                                    fake_airtime(self.core.net.phy().data_rate)
                                        + crate::timing::INSTRUCTION_APPENDIX
                                } else {
                                    self.geo.data_airtime
                                };
                                let offset = data_elapsed + SIFS + self.geo.ack_airtime;
                                if now.as_nanos() >= offset.as_nanos() {
                                    let slot_start = now - offset;
                                    self.self_trigger_after_slot(slot_start, rx, b.slot, rop);
                                }
                            }
                        }
                    }
                }
                FrameBody::Poll { ap } => {
                    if !r.success {
                        continue;
                    }
                    self.core.engine
                        .schedule_at(now + SLOT_TIME, DEv::RopAnswer { client: r.rx.0, ap: ap.0 });
                }
                FrameBody::RopReport { client, ap, queue } => {
                    if !r.success {
                        continue;
                    }
                    self.core.prof.tick(CostPath::RopReport);
                    self.core.tracer.emit(now.as_nanos(), || TraceEvent::RopReport {
                        client: client.0,
                        ap: ap.0,
                        queue: *queue,
                    });
                    let uplink = self.core
                        .net
                        .links()
                        .iter()
                        .find(|l| l.sender == *client)
                        .map(|l| l.id);
                    if let Some(link) = uplink {
                        if let Some(m) = self.backbone.try_send(now, ()) {
                            self.core.engine.schedule_at(
                                m.deliver_at,
                                DEv::ReportArrive { link: link.0, queue: *queue },
                            );
                        }
                        // The relay mirrors every report to the standby
                        // so its post-checkpoint delta stays current.
                        if self.standby_on {
                            if let Some(m) = self.standby_bb.try_send(now, ()) {
                                self.core.engine.schedule_at(
                                    m.deliver_at,
                                    DEv::StandbyReport { link: link.0, queue: *queue },
                                );
                            }
                        }
                    }
                }
                FrameBody::SignatureBurst(b) => {
                    if !r.success {
                        self.counters.triggers_failed += 1;
                        self.core.prof.tick(CostPath::SigMiss);
                        self.core.tracer.emit(now.as_nanos(), || TraceEvent::SigMiss {
                            node: r.rx.0,
                            slot: b.slot,
                        });
                        continue;
                    }
                    self.counters.triggers_detected += 1;
                    self.core.prof.tick(CostPath::SigDetect);
                    self.core.tracer.emit(now.as_nanos(), || TraceEvent::SigDetect {
                        node: r.rx.0,
                        slot: b.slot,
                    });
                    self.on_trigger(now, rx, b.marker, b.slot);
                }
            }
        }
        self.core.rx_buf = receptions;
    }

    /// The AP received an uplink frame: advance its program past the
    /// matching RxData head and schedule its own burst for this slot.
    /// Returns the client's burst instruction to embed in the ACK.
    fn ap_uplink_reception(
        &mut self,
        now: SimTime,
        ap: usize,
        link: LinkId,
        elapsed: SimDuration,
    ) -> Option<Burst> {
        let matches = self.nodes[ap]
            .program
            .front()
            .is_some_and(|a| a.kind == (ApActionKind::RxData { link }));
        if !matches {
            return None;
        }
        let action = self.nodes[ap].program.pop_front()?;
        self.arm_watchdog(now, ap);
        if let Some(b) = action.own_burst {
            // The data phase consumed `elapsed`; the burst sits at the
            // slot's fixed offset.
            let at = now + (self.geo.burst_start - elapsed);
            self.core.engine.schedule_at(at, DEv::SendBurst { node: ap as u32, burst: b });
        }
        self.maybe_self_trigger(now - elapsed, ap, action.slot);
        action.client_burst
    }

    // ------------------------------------------------------- mid-slot

    fn on_send_ack(
        &mut self,
        now: SimTime,
        rx: usize,
        packet: Packet,
        client_burst: Option<Burst>,
    ) {
        if self.core.medium.is_transmitting(NodeId(rx as u32)) {
            return;
        }
        let frame = Frame {
            src: NodeId(rx as u32),
            body: FrameBody::MacAck { packet: packet.id, link: packet.link, client_burst },
            bits: ACK_BYTES * 8,
        };
        let tx = self.core.medium.begin(now, frame);
        self.core.engine.schedule_at(now + self.geo.ack_airtime, DEv::TxEnd { tx });
    }

    fn on_send_burst(&mut self, now: SimTime, node: usize, burst: Burst) {
        if burst.targets.is_empty() || self.core.medium.is_transmitting(NodeId(node as u32)) {
            return;
        }
        let frame = Frame {
            src: NodeId(node as u32),
            body: FrameBody::SignatureBurst(burst),
            bits: 0,
        };
        self.counters.bursts_sent += 1;
        self.core.prof.tick(CostPath::SigEmit);
        self.core.prof.add_with(CostPath::SigTargets, || {
            if let FrameBody::SignatureBurst(b) = &frame.body {
                b.targets.len() as u64
            } else {
                0
            }
        });
        if let FrameBody::SignatureBurst(b) = &frame.body {
            self.core.tracer.emit(now.as_nanos(), || TraceEvent::SigEmit {
                node: node as u32,
                slot: b.slot,
                targets: b.targets.iter().map(|t| t.0).collect(),
            });
        }
        let tx = self.core.medium.begin(now, frame);
        self.core.engine
            .schedule_at(now + crate::timing::BURST_DURATION, DEv::TxEnd { tx });
    }

    fn on_ack_check(&mut self, node: usize) {
        if self.nodes[node].acked {
            self.nodes[node].acked = false;
            return;
        }
        if self.nodes[node].unacked.is_some() {
            // Kept for the §3.5 retransmission paths; count the miss.
            self.core.fe.stats.ack_timeouts += 1;
            self.core.fe.stats.retries += 1;
        }
    }

    fn on_rop_answer(&mut self, now: SimTime, client: usize, ap: usize) {
        if self.core.medium.is_transmitting(NodeId(client as u32)) {
            return;
        }
        let uplink = self.core
            .net
            .links()
            .iter()
            .find(|l| l.sender == NodeId(client as u32))
            .map(|l| l.id);
        let Some(link) = uplink else { return };
        let fresh =
            self.core.fe.queue(link).rop_report() + u32::from(self.nodes[client].unacked.is_some());
        // Stale-report fault: the client replays the previous round's
        // value instead of the live queue state.
        let stale = self.core.node_faults.report_stale();
        if stale {
            self.core.tracer.emit(now.as_nanos(), || TraceEvent::FaultInject {
                kind: FaultKind::StaleRop,
                node: client as u32,
            });
        }
        let queue = if stale { self.last_rop[link.index()] } else { fresh };
        self.last_rop[link.index()] = fresh;
        let frame = Frame {
            src: NodeId(client as u32),
            body: FrameBody::RopReport {
                client: NodeId(client as u32),
                ap: NodeId(ap as u32),
                queue: queue.min(63),
            },
            bits: 0,
        };
        let tx = self.core.medium.begin(now, frame);
        self.core.engine.schedule_at(now + ROP_SYMBOL, DEv::TxEnd { tx });
    }

    fn on_watchdog(&mut self, now: SimTime, ap: usize) {
        if self.nodes[ap].program.is_empty() {
            return;
        }
        if self.nodes[ap].start.is_some() {
            self.arm_watchdog(now, ap);
            return;
        }
        // Never restart into an active channel: the "stall" may be an
        // exchange we are part of (e.g. the uplink data we are waiting
        // for is in flight right now — a burst would deafen us to it).
        if self.core.medium.is_busy(NodeId(ap as u32)) {
            let at = now + SimDuration::from_micros(200);
            self.core.engine.rearm(&mut self.nodes[ap].watchdog, at, DEv::Watchdog { ap: ap as u32 });
            return;
        }
        // A receive head that has been stalled for a whole watchdog
        // period is dead (its client either missed the trigger or its
        // data keeps failing): discard the opportunity — the scheduler
        // still sees the backlog and reschedules the link — and restart
        // from the next entry.
        if matches!(
            self.nodes[ap].program.front().map(|a| &a.kind),
            Some(ApActionKind::RxData { .. })
        ) {
            self.nodes[ap].program.pop_front();
            if self.nodes[ap].program.is_empty() {
                return;
            }
        }
        self.counters.watchdog_restarts += 1;
        // Storm detection: restarts with zero deliveries in between mean
        // the fallback timer, not the trigger chain, is pacing the
        // schedule. Counting is observation-only (no events, no RNG).
        self.wd_streak += 1;
        if self.wd_streak == WATCHDOG_STORM_THRESHOLD {
            self.counters.watchdog_storms += 1;
        }
        // Chain broken: restart individually (§3.3's first-batch rule
        // doubles as the self-healing restart).
        self.self_start(now, ap);
        self.arm_watchdog(now, ap);
    }

    /// An untriggerable entry's estimated time arrived: start it unless a
    /// real trigger already did (or the channel is mid-exchange).
    fn on_kick_off(&mut self, now: SimTime, ap: usize, slot: u64) {
        if self.nodes[ap].start.is_some() || now < self.nodes[ap].busy_until {
            return; // a trigger beat us to it
        }
        let Some(head) = self.nodes[ap].program.front().cloned() else {
            return;
        };
        if head.slot > slot {
            return; // already past it
        }
        if self.core.medium.is_busy(NodeId(ap as u32)) {
            self.core.engine.schedule_at(
                now + SimDuration::from_micros(100),
                DEv::KickOff { ap: ap as u32, slot },
            );
            return;
        }
        self.counters.kick_offs += 1;
        match head.kind {
            ApActionKind::RxData { link } if head.slot == slot => {
                let client = self.core.net.link(link).client();
                let burst = Burst {
                    codes: InlineVec::of(self.signature_of[client.index()]),
                    targets: InlineVec::of(client),
                    marker: BurstMarker::Start,
                    slot,
                    continues: false,
                };
                self.on_send_burst(now, ap, burst);
            }
            _ => self.schedule_start(now, ap, slot),
        }
    }

    fn on_event(&mut self, now: SimTime, ev: DEv) {
        match ev {
            DEv::Traffic(ev) => {
                // DOMINO re-arms every flow's RTO on any TCP progress.
                let c = &mut self.core;
                if let Some(Fired::Tcp(_)) = c.fe.on_event(ev, now, &mut c.engine) {
                    c.fe.sync_all_rto(now, &mut c.engine);
                }
            }
            DEv::TxEnd { tx } => self.on_tx_end(now, tx),
            DEv::BatchArrive { ap, msg } => self.on_batch_arrive(now, ap as usize, msg),
            DEv::ReportArrive { link, queue } => {
                if !self.ctrl_alive(now) {
                    return; // a dead controller loses the report
                }
                self.backlog.report(LinkId(link), queue);
                // The report wave is execution-anchored: schedule the
                // next compute so it lands one wired delay before this
                // batch drains. Stragglers of the previous wave arriving
                // right after a dispatch must not consume the new batch's
                // wave slot.
                let batch_age = now.saturating_since(self.dispatch_time);
                if self.awaiting_report && batch_age >= SimDuration::from_micros(400) {
                    self.awaiting_report = false;
                    let batch_id = self.batch_seq;
                    self.core.tracer
                        .emit(now.as_nanos(), move || TraceEvent::BatchEnd { batch: batch_id });
                    let lead = SimDuration::from_micros_f64(self.cfg.wired.mean_us)
                        + self.geo.total;
                    let at = (now + self.post_poll_exec.saturating_sub(lead))
                        .max(now + SimDuration::from_micros(150));
                    self.core.engine.rearm(&mut self.compute, at, DEv::ControllerCompute);
                }
            }
            DEv::ControllerCompute => {
                if self.ctrl_alive(now) {
                    // The crash draw sits at the accept site so the class
                    // costs zero RNG draws when it is off.
                    if let Some(downtime) = self.core.node_faults.ctrl_crash() {
                        self.on_ctrl_crash(now, downtime);
                    } else {
                        self.controller_compute(now);
                    }
                }
            }
            DEv::SlotStart { node, slot } => self.on_slot_start(now, node as usize, slot),
            DEv::SendBurst { node, burst } => self.on_send_burst(now, node as usize, burst),
            DEv::SendAck { rx, packet, client_burst } => {
                self.on_send_ack(now, rx as usize, packet, client_burst)
            }
            DEv::AckCheck { node } => self.on_ack_check(node as usize),
            DEv::RopAnswer { client, ap } => {
                self.on_rop_answer(now, client as usize, ap as usize)
            }
            DEv::Watchdog { ap } => self.on_watchdog(now, ap as usize),
            DEv::KickOff { ap, slot } => self.on_kick_off(now, ap as usize, slot),
            DEv::CtrlHeartbeat => {
                // The timer survives crashes; a dead controller just
                // emits nothing until its successor takes over.
                if self.ctrl_alive(now) {
                    if let Some(m) = self.standby_bb.try_send(now, ()) {
                        self.core.engine.schedule_at(m.deliver_at, DEv::HeartbeatArrive);
                    }
                }
                self.core.engine.schedule_at(now + self.hb_every, DEv::CtrlHeartbeat);
            }
            DEv::CtrlCheckpoint => {
                if self.ctrl_alive(now) {
                    let mut w = SnapWriter::new();
                    self.scheduler.save(&mut w);
                    self.backlog.save(&mut w);
                    self.converter.save(&mut w);
                    let state = w.into_bytes();
                    let len = state.len() as u32;
                    self.core.tracer
                        .emit(now.as_nanos(), move || TraceEvent::CtrlCheckpoint { bytes: len });
                    if let Some(m) = self.standby_bb.try_send(now, ()) {
                        self.core.engine.schedule_at(m.deliver_at, DEv::CkptArrive { state });
                    }
                    // A lost checkpoint is not re-sent: the next period's
                    // image supersedes it anyway.
                }
                self.core.engine.schedule_at(now + self.ckpt_every, DEv::CtrlCheckpoint);
            }
            DEv::HeartbeatArrive => self.hb_seen = true,
            DEv::CkptArrive { state } => {
                self.standby_ckpt = state;
                // The delta restarts relative to this image.
                self.standby_buf.clear();
            }
            DEv::StandbyReport { link, queue } => {
                if self.standby_buf.len() < STANDBY_BUF_CAP {
                    self.standby_buf.push((link, queue));
                }
            }
            DEv::StandbyProbe => {
                if self.hb_seen {
                    self.hb_seen = false;
                    self.hb_missed = 0;
                } else {
                    self.hb_missed += 1;
                }
                if self.ctrl_down && self.hb_missed >= self.missed_k {
                    self.promote_standby(now);
                }
                self.core.engine.schedule_at(now + self.hb_every, DEv::StandbyProbe);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcf::DcfWorld;
    use crate::omniscient::OmniWorld;
    use crate::world::tests::{run_faulted, run_plain};
    use crate::Workload;
    use domino_faults::FaultConfig;
    use domino_topology::Network;
    use domino_topology::presets::{fig1, fig7};
    use domino_topology::{NodeId, PhyParams};

    fn fig1_links(net: &Network) -> (LinkId, LinkId, LinkId) {
        let dl = |ap: u32| {
            net.links()
                .iter()
                .find(|l| l.is_downlink() && l.sender == NodeId(ap))
                .unwrap()
                .id
        };
        let ul = |ap: u32| {
            net.links()
                .iter()
                .find(|l| !l.is_downlink() && l.ap == NodeId(ap))
                .unwrap()
                .id
        };
        (dl(0), ul(2), dl(4))
    }

    #[test]
    fn single_pair_downlink_flows() {
        let net = fig1(PhyParams::default());
        let (l1, _, _) = fig1_links(&net);
        let w = Workload::udp_saturated(&[l1]);
        let stats = run_plain::<DominoWorld>(&net, &w, 2.0, 1);
        let mbps = stats.link_mbps(l1);
        // One link per slot: 4096 bits / ~492 us slot ≈ 8.3 Mb/s (minus
        // ROP overhead).
        assert!(mbps > 6.0, "DOMINO single link: {mbps} Mb/s");
        // The trigger-chain diagnostics ride on the run report: a healthy
        // run is paced by detected triggers, not by fallback timers.
        let d = stats.domino;
        assert!(d.bursts_sent > 0, "no signature bursts recorded: {d:?}");
        assert!(d.triggers_detected > 0, "no triggers recorded: {d:?}");
        assert!(d.actions_dispatched > 0, "no dispatches recorded: {d:?}");
        assert!(
            d.triggers_detected > d.watchdog_restarts,
            "chain paced by watchdogs, not triggers: {d:?}"
        );
    }

    #[test]
    fn fig2_shape_domino_matches_omniscient() {
        let net = fig1(PhyParams::default());
        let (l1, l2, l3) = fig1_links(&net);
        let w = Workload::udp_saturated(&[l1, l2, l3]);
        let domino = run_plain::<DominoWorld>(&net, &w, 3.0, 1);
        let dcf = run_plain::<DcfWorld>(&net, &w, 3.0, 1);
        let omni = run_plain::<OmniWorld>(&net, &w, 3.0, 1);
        let (d, c, o) =
            (domino.aggregate_mbps(), dcf.aggregate_mbps(), omni.aggregate_mbps());
        // Fig 2: DOMINO performs close to the omniscient scheme and far
        // above DCF.
        assert!(d > c * 1.4, "DOMINO {d} vs DCF {c}");
        assert!(d > o * 0.75, "DOMINO {d} should be close to omniscient {o}");
        // The exposed uplink is scheduled every slot; the hidden victim
        // is not starved.
        assert!(domino.link_mbps(l2) > 5.0, "C2->AP2: {}", domino.link_mbps(l2));
        assert!(domino.link_mbps(l3) > 2.0, "AP3->C3: {}", domino.link_mbps(l3));
    }

    #[test]
    fn uplink_traffic_is_scheduled_via_rop() {
        let net = fig7(PhyParams::default());
        let ups: Vec<LinkId> = net
            .links()
            .iter()
            .filter(|l| !l.is_downlink())
            .map(|l| l.id)
            .collect();
        let w = Workload::udp_saturated(&ups);
        let stats = run_plain::<DominoWorld>(&net, &w, 3.0, 2);
        let total = stats.aggregate_mbps();
        // Client-driven slots lean on relayed triggers and carry more
        // per-slot control overhead than downlinks; the healthy signal is
        // meaningful aggregate progress with no starved link.
        assert!(total > 4.0, "uplink-only DOMINO: {total} Mb/s");
        for &u in &ups {
            assert!(
                stats.link_mbps(u) > 1.0,
                "uplink {u} starved: {}",
                stats.link_mbps(u)
            );
        }
    }

    #[test]
    fn misalignment_heals_within_a_few_slots() {
        let net = fig7(PhyParams::default());
        let w = Workload::udp_updown(&net, 10e6, 10e6);
        let cfg = DominoConfig {
            wired: WiredLatency::with_std(60.0),
            ..DominoConfig::default()
        };
        let stats = run_faulted::<DominoWorld>(&net, &w, 1.0, 3, &FaultConfig::off(), cfg);
        let mis = stats.misalignment_by_slot();
        assert!(mis.len() > 10, "not enough slots recorded: {}", mis.len());
        // Steady state must be tightly aligned even though slot 0 starts
        // with wired jitter.
        let mut late: Vec<f64> = mis.iter().skip(8).map(|&(_, m)| m).collect();
        late.sort_by(|a, b| a.total_cmp(b));
        let late_median = late[late.len() / 2];
        assert!(late_median < 15.0, "steady-state misalignment {late_median} us");
    }

    #[test]
    fn deterministic() {
        let net = fig7(PhyParams::default());
        let w = Workload::udp_updown(&net, 5e6, 5e6);
        let a = run_plain::<DominoWorld>(&net, &w, 1.0, 9);
        let b = run_plain::<DominoWorld>(&net, &w, 1.0, 9);
        assert_eq!(a.delivered_bits, b.delivered_bits);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn tcp_over_domino_progresses() {
        let net = fig1(PhyParams::default());
        let w = Workload::tcp_updown(&net, 10e6, 0.0);
        let stats = run_plain::<DominoWorld>(&net, &w, 3.0, 4);
        // Modest by design: the paper treats the TCP ACK as a regular
        // packet occupying a whole slot (§4.2.3), which halves the slot
        // budget of a single flow; the healthy signal is progress with
        // few transport-level losses.
        assert!(
            stats.aggregate_mbps() > 1.0,
            "TCP over DOMINO: {} Mb/s",
            stats.aggregate_mbps()
        );
        assert!(
            stats.tcp_retransmissions < 100,
            "TCP losses: {}",
            stats.tcp_retransmissions
        );
    }

    #[test]
    fn fake_links_can_be_disabled_for_ablation() {
        let net = fig7(PhyParams::default());
        let w = Workload::udp_updown(&net, 10e6, 0.0);
        let cfg = DominoConfig {
            converter: ConverterConfig {
                insert_fake_links: false,
                ..ConverterConfig::default()
            },
            ..DominoConfig::default()
        };
        let without = run_faulted::<DominoWorld>(&net, &w, 2.0, 5, &FaultConfig::off(), cfg);
        let with = run_plain::<DominoWorld>(&net, &w, 2.0, 5);
        assert!(without.aggregate_mbps() > 0.0);
        assert!(with.aggregate_mbps() > 0.0);
    }

    #[test]
    fn warm_standby_beats_cold_restart() {
        let net = fig7(PhyParams::default());
        let w = Workload::udp_updown(&net, 8e6, 8e6);
        let cold_cfg = FaultConfig {
            ctrl_crash: 0.02,
            ctrl_downtime_us: 50_000.0,
            ..FaultConfig::off()
        };
        let warm_cfg = FaultConfig { standby: true, ..cold_cfg.clone() };
        let cold =
            run_faulted::<DominoWorld>(&net, &w, 3.0, 17, &cold_cfg, DominoConfig::default());
        let warm =
            run_faulted::<DominoWorld>(&net, &w, 3.0, 17, &warm_cfg, DominoConfig::default());
        assert!(cold.faults.ctrl_crashes > 0, "no cold crashes: {:?}", cold.faults);
        assert!(warm.faults.ctrl_crashes > 0, "no warm crashes: {:?}", warm.faults);
        assert_eq!(cold.faults.standby_promotions, 0);
        // Every warm crash ends in a promotion, and the cold run pays the
        // full configured downtime per crash.
        assert_eq!(warm.faults.standby_promotions, warm.faults.ctrl_crashes);
        assert_eq!(cold.faults.recovery_ns, cold.faults.ctrl_crashes * 50_000_000);
        // The deterministic detector needs k heartbeat periods plus the
        // replay cost — far below the cold downtime per crash.
        let warm_avg = warm.faults.recovery_ns / warm.faults.standby_promotions;
        assert!(
            warm_avg < 10_000_000,
            "warm recovery should be a few heartbeats, got {warm_avg} ns"
        );
        assert!(
            warm.faults.recovery_ns / warm.faults.ctrl_crashes
                < cold.faults.recovery_ns / cold.faults.ctrl_crashes,
            "warm {:?} vs cold {:?}",
            warm.faults,
            cold.faults
        );
        // The replayed delta is what the promotion rebuilds from.
        assert!(
            warm.faults.replayed_reports > 0,
            "no reports replayed at promotion: {:?}",
            warm.faults
        );
        assert!(warm.aggregate_mbps() > 0.0 && cold.aggregate_mbps() > 0.0);
    }
}

