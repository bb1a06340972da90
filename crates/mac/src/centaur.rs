//! CENTAUR-style hybrid data path (the paper's second baseline).
//!
//! Following the paper's description of CENTAUR (§1, §4.2.3): the central
//! controller schedules *downlink* packets in epochs of conflict-free
//! rounds; APs execute their assignments using carrier sensing plus a
//! *fixed* backoff to align exposed transmissions; the next epoch is
//! released only when every AP reports its batch complete. Uplink traffic
//! is unscheduled DCF and disturbs the downlink schedule at will.
//!
//! Two structural behaviours matter for the reproduction:
//! * **Alignment by shared idle events** — APs that hear each other
//!   observe the same busy→idle transition, wait the same fixed backoff,
//!   and fire simultaneously (exposed-set concurrency, Fig 13a /
//!   Table 3 row 1).
//! * **The batch barrier** — APs that cannot hear each other desynchronize,
//!   the common neighbour keeps deferring, and the whole epoch waits for
//!   the slowest AP while the others idle (Fig 13b / Table 3 row 2,
//!   where CENTAUR drops below DCF).
//!
//! The failover fault class adds a primary-controller crash at compute
//! time. CENTAUR's controller state is lean — the scheduler's fairness
//! order — so the warm standby ships exactly that: periodic order
//! checkpoints, a deterministic missed-heartbeat detector, and promotion
//! that restores the last shipped order. With the standby off, a crash
//! cold-restarts the controller after its downtime with the order lost.

use crate::dcf::{CsmaCore, Ev};
use crate::flows::FlowEngine;
use crate::timing::{ack_timeout, data_airtime, DIFS, MAC_OVERHEAD_BYTES, RETRY_LIMIT};
use crate::world::{Core, Setup, World};
use domino_medium::{Frame, FrameBody, Medium, Reception};
use domino_obs::{CostPath, FaultKind, TraceEvent, TraceHandle};
use domino_scheduler::RandScheduler;
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{Engine, EventHandle, SimDuration, SimTime};
use domino_topology::{ConflictGraph, Direction, LinkId, Network, NodeId};
use domino_traffic::Packet;
use domino_wired::{Backbone, WiredLatency};
use std::collections::VecDeque;

/// CENTAUR engine parameters.
#[derive(Clone, Debug)]
pub struct CentaurConfig {
    /// Packet quota per scheduled link per round (rounds amortize the
    /// wired round-trip of the release barrier).
    pub packets_per_round: usize,
    /// The fixed alignment backoff after a sensed idle transition.
    pub fixed_backoff: SimDuration,
    /// Wired backbone latency model.
    pub wired: WiredLatency,
}

impl Default for CentaurConfig {
    fn default() -> CentaurConfig {
        CentaurConfig {
            packets_per_round: 8,
            fixed_backoff: DIFS,
            wired: WiredLatency::default(),
        }
    }
}

/// CENTAUR scheme events.
#[derive(Debug)]
pub enum CentaurEv {
    /// An epoch assignment reaches an AP over the wire.
    EpochArrive {
        /// Destination AP node index.
        ap: u32,
        /// Epoch number.
        epoch: u64,
        /// Link ids to serve, in round order.
        assignments: Vec<LinkId>,
    },
    /// An AP's fixed alignment backoff expires.
    ApArm {
        /// AP node index.
        ap: u32,
    },
    /// An AP's ACK wait expires.
    ApAckTimeout {
        /// AP node index.
        ap: u32,
    },
    /// An AP's completion report reaches the controller.
    DoneArrive {
        /// Reporting AP node index.
        ap: u32,
        /// Epoch number.
        epoch: u64,
    },
    /// Idle controller re-checks the queues.
    ControllerCheck,
    /// Fault-plane fallback: the batch barrier has waited too long — a
    /// lost epoch assignment or completion report would otherwise hang
    /// the controller forever. Scheduled only when faults are enabled.
    EpochTimeout {
        /// The epoch this timeout guards.
        epoch: u64,
    },
}

impl SnapValue for CentaurEv {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            CentaurEv::EpochArrive { ap, epoch, assignments } => {
                w.put_u8(0);
                w.put_u32(*ap);
                w.put_u64(*epoch);
                // `LinkId` and the snapshot traits are both foreign here,
                // so the orphan rule forces an inline raw-id encoding.
                w.put_u64(assignments.len() as u64);
                for l in assignments {
                    w.put_u32(l.0);
                }
            }
            CentaurEv::ApArm { ap } => {
                w.put_u8(1);
                w.put_u32(*ap);
            }
            CentaurEv::ApAckTimeout { ap } => {
                w.put_u8(2);
                w.put_u32(*ap);
            }
            CentaurEv::DoneArrive { ap, epoch } => {
                w.put_u8(3);
                w.put_u32(*ap);
                w.put_u64(*epoch);
            }
            CentaurEv::ControllerCheck => w.put_u8(4),
            CentaurEv::EpochTimeout { epoch } => {
                w.put_u8(5);
                w.put_u64(*epoch);
            }
        }
    }

    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => {
                let ap = r.get_u32()?;
                let epoch = r.get_u64()?;
                let n = r.get_len()?;
                let mut assignments = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    assignments.push(LinkId(r.get_u32()?));
                }
                CentaurEv::EpochArrive { ap, epoch, assignments }
            }
            1 => CentaurEv::ApArm { ap: r.get_u32()? },
            2 => CentaurEv::ApAckTimeout { ap: r.get_u32()? },
            3 => CentaurEv::DoneArrive { ap: r.get_u32()?, epoch: r.get_u64()? },
            4 => CentaurEv::ControllerCheck,
            5 => CentaurEv::EpochTimeout { epoch: r.get_u64()? },
            _ => return Err(SnapError::Corrupt("centaur event tag")),
        })
    }
}

/// How long the controller waits on the batch barrier before abandoning
/// an epoch (fault-plane recovery; never scheduled in fault-free runs).
const EPOCH_TIMEOUT: SimDuration = SimDuration::from_millis(15);

#[derive(Clone, Copy, PartialEq, Debug)]
enum ApPhase {
    /// No assignments (between epochs).
    Idle,
    /// Waiting for the channel to go idle.
    WaitIdle,
    /// Fixed backoff running.
    Armed,
    /// Our data frame is on the air.
    Transmitting,
    /// Waiting for the client's ACK.
    AwaitAck,
}

impl SnapValue for ApPhase {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u8(match self {
            ApPhase::Idle => 0,
            ApPhase::WaitIdle => 1,
            ApPhase::Armed => 2,
            ApPhase::Transmitting => 3,
            ApPhase::AwaitAck => 4,
        });
    }

    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => ApPhase::Idle,
            1 => ApPhase::WaitIdle,
            2 => ApPhase::Armed,
            3 => ApPhase::Transmitting,
            4 => ApPhase::AwaitAck,
            _ => return Err(SnapError::Corrupt("ap phase tag")),
        })
    }
}

#[derive(Debug)]
struct ApState {
    assignments: VecDeque<LinkId>,
    epoch: u64,
    phase: ApPhase,
    current: Option<Packet>,
    current_link: Option<LinkId>,
    retries: u32,
    /// The pending arm or ACK timer (at most one is armed).
    timer: Option<EventHandle>,
    arm_expiry: SimTime,
    last_busy: bool,
    /// NAV-adjusted time reference shared by aligned APs: the last sensed
    /// busy→idle transition, pushed past the ACK window when the frame
    /// that ended was a data frame (whose duration field reserves the
    /// channel through its ACK).
    nav_anchor: SimTime,
}

impl SnapValue for ApState {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.assignments.len() as u64);
        for l in &self.assignments {
            w.put_u32(l.0);
        }
        w.put_u64(self.epoch);
        self.phase.put(w);
        self.current.put(w);
        self.current_link.map(|l| l.0).put(w);
        w.put_u32(self.retries);
        self.timer.put(w);
        self.arm_expiry.put(w);
        self.last_busy.put(w);
        self.nav_anchor.put(w);
    }

    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let mut assignments = VecDeque::with_capacity(n.min(4096));
        for _ in 0..n {
            assignments.push_back(LinkId(r.get_u32()?));
        }
        Ok(ApState {
            assignments,
            epoch: r.get_u64()?,
            phase: SnapValue::thaw(r)?,
            current: SnapValue::thaw(r)?,
            current_link: Option::<u32>::thaw(r)?.map(LinkId),
            retries: r.get_u32()?,
            timer: SnapValue::thaw(r)?,
            arm_expiry: SnapValue::thaw(r)?,
            last_busy: SnapValue::thaw(r)?,
            nav_anchor: SnapValue::thaw(r)?,
        })
    }
}

/// The complete state of a CENTAUR run between events. Under a fault
/// plane: backbone loss/spikes on the epoch wire, AP crashes at epoch
/// delivery, controller compute stalls, primary-controller crashes (warm
/// standby or cold restart), and the medium-resident churn class. Lost
/// epoch or Done messages are recovered by a fallback [`EPOCH_TIMEOUT`]
/// on the batch barrier (scheduled only when faults are enabled, so
/// fault-free runs stay byte-identical).
#[derive(Debug)]
pub struct CentaurWorld {
    core: Core<Ev<CentaurEv>>,
    backbone: Backbone,
    sched: RandScheduler,
    csma: CsmaCore,
    ap_states: Vec<Option<ApState>>,
    epoch_counter: u64,
    pending_done: usize,
    /// Crash bookkeeping: a dark AP ignores epoch traffic until its
    /// downtime elapses; the first epoch it accepts afterwards counts
    /// as the recovery.
    ap_dark_until: Vec<SimTime>,
    ap_crashed: Vec<bool>,
    /// Controller failover: while dark, the controller ignores its own
    /// check events until the promotion (or cold restart) scheduled at
    /// the dark end.
    ctrl_dark_until: SimTime,
    /// The fairness-order bytes last shipped to the warm standby.
    standby_ckpt: Vec<u8>,
    next_ckpt_at: SimTime,
    // Immutable run parameters.
    standby: bool,
    ckpt_every: SimDuration,
    detect_delay: SimDuration,
    graph: ConflictGraph,
    aps: Vec<NodeId>,
    nav_window: SimDuration,
    fixed: SimDuration,
    faults_on: bool,
    rate: domino_phy::error_model::DataRate,
    packets_per_round: usize,
}

impl World for CentaurWorld {
    type Ev = Ev<CentaurEv>;
    type Config = CentaurConfig;

    fn build(setup: &Setup<'_>, cfg: CentaurConfig, tracer: TraceHandle) -> CentaurWorld {
        let mut core = Core::new(setup, tracer);
        let (net, faults) = (setup.net, setup.faults);
        let mut backbone = Backbone::new(cfg.wired.clone(), setup.seed);
        backbone.set_loss(faults.wired_loss);
        backbone.set_spikes(faults.wired_spike, faults.wired_spike_us);
        backbone.set_tracer(core.tracer.clone());
        let rate = net.phy().data_rate;

        // Clients contend with DCF; APs follow the schedule.
        let clients: Vec<NodeId> = net
            .nodes()
            .iter()
            .filter(|n| !n.is_ap())
            .map(|n| n.id)
            .collect();
        let csma = CsmaCore::new(net, &clients, setup.seed);

        let aps = net.aps();
        let mut ap_states: Vec<Option<ApState>> = (0..net.num_nodes()).map(|_| None).collect();
        for &ap in &aps {
            ap_states[ap.index()] = Some(ApState {
                assignments: VecDeque::new(),
                epoch: 0,
                phase: ApPhase::Idle,
                current: None,
                current_link: None,
                retries: 0,
                timer: None,
                arm_expiry: SimTime::ZERO,
                last_busy: false,
                nav_anchor: SimTime::ZERO,
            });
        }
        // NAV window of a data frame: SIFS + ACK. An AP that hears a data
        // frame end (but maybe not the ACK) and an AP that hears the ACK
        // end must compute the same aligned fire time.
        let nav_window = crate::timing::SIFS + crate::timing::ack_airtime(rate);

        core.engine.schedule_at(SimTime::ZERO, Ev::Scheme(CentaurEv::ControllerCheck));
        CentaurWorld {
            core,
            backbone,
            sched: RandScheduler::new(net.links().len()),
            csma,
            ap_states,
            epoch_counter: 0,
            pending_done: 0,
            ap_dark_until: vec![SimTime::ZERO; net.num_nodes()],
            ap_crashed: vec![false; net.num_nodes()],
            ctrl_dark_until: SimTime::ZERO,
            standby_ckpt: Vec::new(),
            next_ckpt_at: SimTime::ZERO,
            standby: faults.standby,
            ckpt_every: SimDuration::from_secs_f64(faults.standby_checkpoint_us * 1e-6),
            detect_delay: SimDuration::from_secs_f64(
                faults.standby_heartbeat_us * f64::from(faults.standby_missed_k) * 1e-6,
            ),
            graph: ConflictGraph::build_for_scheduling(net),
            aps,
            nav_window,
            fixed: cfg.fixed_backoff,
            faults_on: faults.enabled(),
            rate,
            packets_per_round: cfg.packets_per_round,
        }
    }

    fn core(&mut self) -> &mut Core<Ev<CentaurEv>> {
        &mut self.core
    }

    fn cost_class(ev: &Ev<CentaurEv>) -> CostPath {
        ev.cost_class()
    }

    fn handle(&mut self, now: SimTime, ev: Ev<CentaurEv>) {
        match ev {
            Ev::Traffic(ev) => self.csma.on_traffic(ev, now, &mut self.core),
            Ev::BackoffExpire { node } => {
                self.csma.on_backoff_expire(
                    node as usize,
                    now,
                    &mut self.core.engine,
                    &mut self.core.medium,
                    &mut self.core.fe,
                );
                scan_aps(
                    &mut self.ap_states,
                    &self.aps,
                    now,
                    &mut self.core.engine,
                    &self.core.medium,
                    self.fixed,
                    SimDuration::ZERO,
                );
            }
            Ev::SendAck { rx, packet } => {
                self.csma.send_ack(rx as usize, &packet, now, &mut self.core.engine, &mut self.core.medium);
                scan_aps(
                    &mut self.ap_states,
                    &self.aps,
                    now,
                    &mut self.core.engine,
                    &self.core.medium,
                    self.fixed,
                    SimDuration::ZERO,
                );
            }
            Ev::AckTimeout { node } => {
                self.csma.on_ack_timeout(
                    node as usize,
                    now,
                    &mut self.core.engine,
                    &self.core.medium,
                    &mut self.core.fe,
                );
            }
            Ev::TxEnd { tx } => self.on_tx_end(tx, now),
            Ev::Scheme(CentaurEv::EpochArrive { ap, epoch, assignments }) => {
                self.on_epoch_arrive(ap, epoch, assignments, now);
            }
            Ev::Scheme(CentaurEv::ApArm { ap }) => {
                ap_arm_fired(
                    &self.core.net,
                    ap as usize,
                    now,
                    &mut self.core.engine,
                    &mut self.core.medium,
                    &mut self.core.fe,
                    &mut self.ap_states,
                    &mut self.backbone,
                    self.rate,
                    self.fixed,
                );
                self.csma.scan(now, &mut self.core.engine, &self.core.medium);
                scan_aps(
                    &mut self.ap_states,
                    &self.aps,
                    now,
                    &mut self.core.engine,
                    &self.core.medium,
                    self.fixed,
                    SimDuration::ZERO,
                );
            }
            Ev::Scheme(CentaurEv::ApAckTimeout { ap }) => {
                let needs = {
                    // lint: allow(D005) ack timeouts are armed only for AP indices
                    let st = self.ap_states[ap as usize].as_mut().unwrap();
                    if st.phase != ApPhase::AwaitAck {
                        false
                    } else {
                        self.core.fe.stats.ack_timeouts += 1;
                        st.retries += 1;
                        if st.retries > RETRY_LIMIT {
                            self.core.fe.stats.drops += 1;
                            st.current = None;
                            st.current_link = None;
                            st.retries = 0;
                        } else {
                            self.core.fe.stats.retries += 1;
                        }
                        st.phase = ApPhase::WaitIdle;
                        true
                    }
                };
                if needs {
                    advance_ap(
                        &self.core.net,
                        ap as usize,
                        now,
                        &mut self.core.engine,
                        &self.core.medium,
                        &mut self.ap_states,
                        &mut self.backbone,
                        self.fixed,
                    );
                }
            }
            Ev::Scheme(CentaurEv::DoneArrive { ap: _, epoch }) => {
                if epoch == self.epoch_counter && self.pending_done > 0 {
                    self.pending_done -= 1;
                    if self.pending_done == 0 {
                        let epoch = self.epoch_counter;
                        self.core.tracer.emit(now.as_nanos(), move || TraceEvent::EpochBarrier {
                            epoch,
                            pending: 0,
                        });
                        self.core.engine.schedule_now(Ev::Scheme(CentaurEv::ControllerCheck));
                    }
                }
            }
            Ev::Scheme(CentaurEv::ControllerCheck) => self.on_controller_check(now),
            Ev::Scheme(CentaurEv::EpochTimeout { epoch }) => {
                if epoch == self.epoch_counter && self.pending_done > 0 {
                    // Barrier released by the timeout, not by Done
                    // reports: `pending` records how many were missing.
                    let pending = self.pending_done as u32;
                    self.core.tracer.emit(now.as_nanos(), move || TraceEvent::EpochBarrier {
                        epoch,
                        pending,
                    });
                    self.pending_done = 0;
                    self.core.engine.schedule_now(Ev::Scheme(CentaurEv::ControllerCheck));
                }
            }
        }
    }

    fn finish(self) -> Core<Ev<CentaurEv>> {
        let prof = &self.core.prof;
        prof.add(CostPath::RngDcfBackoff, self.csma.rng_draws());
        prof.add(CostPath::RngWired, self.backbone.rng_draws());
        let mut core = self.core;
        core.fe
            .stats
            .faults
            .merge_backbone(self.backbone.messages_lost(), self.backbone.spikes_injected());
        core
    }

    fn save(&self, w: &mut SnapWriter) {
        self.backbone.save(w);
        self.csma.save(w);
        self.sched.save(w);
        self.ap_states.put(w);
        w.put_u64(self.epoch_counter);
        w.put_u64(self.pending_done as u64);
        self.ap_dark_until.put(w);
        self.ap_crashed.put(w);
        self.ctrl_dark_until.put(w);
        self.standby_ckpt.put(w);
        self.next_ckpt_at.put(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.backbone.restore(r)?;
        self.csma.restore(r)?;
        self.sched.restore(r)?;
        let ap_states: Vec<Option<ApState>> = SnapValue::thaw(r)?;
        if ap_states.len() != self.ap_states.len() {
            return Err(SnapError::Corrupt("ap state table length"));
        }
        for (restored, built) in ap_states.iter().zip(&self.ap_states) {
            if restored.is_some() != built.is_some() {
                return Err(SnapError::Corrupt("ap state table shape"));
            }
        }
        self.ap_states = ap_states;
        self.epoch_counter = r.get_u64()?;
        self.pending_done = r.get_u64()? as usize;
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
        self.ctrl_dark_until = SnapValue::thaw(r)?;
        self.standby_ckpt = SnapValue::thaw(r)?;
        self.next_ckpt_at = SnapValue::thaw(r)?;
        Ok(())
    }
}

impl CentaurWorld {
    fn on_tx_end(&mut self, tx: domino_medium::TxId, now: SimTime) {
        let receptions = self.core.end_tx(tx, now);
        self.csma.scan(now, &mut self.core.engine, &self.core.medium);
        // A data frame's NAV reserves the channel through its ACK; an
        // idle transition it causes is anchored past that window.
        let nav = match receptions.first().map(|r| &r.frame.body) {
            Some(FrameBody::Data { .. }) => self.nav_window,
            _ => SimDuration::ZERO,
        };
        scan_aps(
            &mut self.ap_states,
            &self.aps,
            now,
            &mut self.core.engine,
            &self.core.medium,
            self.fixed,
            nav,
        );
        if let Some(first) = receptions.first() {
            let src = first.frame.src;
            match &first.frame.body {
                FrameBody::Data { .. } => {
                    let scheduled_ap = self.ap_states[src.index()]
                        .as_mut()
                        .filter(|s| s.phase == ApPhase::Transmitting);
                    if let Some(st) = scheduled_ap {
                        st.phase = ApPhase::AwaitAck;
                        self.core.engine.rearm(
                            &mut st.timer,
                            now + ack_timeout(self.rate),
                            Ev::Scheme(CentaurEv::ApAckTimeout { ap: src.0 }),
                        );
                    } else if self.ap_states[src.index()].is_none() {
                        self.csma.after_data_tx(src.index(), now, &mut self.core.engine);
                    }
                    // An AP whose state was torn down mid-air
                    // (fault-plane crash) gets neither path: its frame
                    // still delivers, nobody waits for the ACK.
                    CsmaCore::handle_data_receptions(
                        &receptions,
                        now,
                        &mut self.core.engine,
                        &self.core.medium,
                        &mut self.core.fe,
                    );
                    self.core.fe.sync_all_rto(now, &mut self.core.engine);
                }
                FrameBody::MacAck { .. } => {
                    for r in &receptions {
                        if !self.csma.on_ack_reception(
                            r,
                            now,
                            &mut self.core.engine,
                            &self.core.medium,
                            &mut self.core.fe,
                        ) || self.ap_states[r.rx.index()].is_some()
                        {
                            handle_ap_ack(
                                &self.core.net,
                                r,
                                now,
                                &mut self.core.engine,
                                &self.core.medium,
                                &mut self.core.fe,
                                &mut self.ap_states,
                                &mut self.backbone,
                                self.fixed,
                            );
                        }
                    }
                }
                _ => {}
            }
        }
        self.core.rx_buf = receptions;
        self.csma.try_start_all(now, &mut self.core.engine, &self.core.medium, &self.core.fe);
    }

    fn on_epoch_arrive(&mut self, ap: u32, epoch: u64, assignments: Vec<LinkId>, now: SimTime) {
        let apx = ap as usize;
        if now < self.ap_dark_until[apx] {
            // The AP is crashed: the assignment dies with it; the epoch
            // timeout will release the barrier.
            return;
        }
        if let Some(downtime) = self.core.node_faults.crash() {
            // Crash with state loss: forget everything, go dark for the
            // downtime.
            self.core.tracer.emit(now.as_nanos(), || TraceEvent::FaultInject {
                kind: FaultKind::ApCrash,
                node: ap,
            });
            // lint: allow(D005) controller addresses epochs to APs only; a miss is a wiring bug worth a crash
            let st = self.ap_states[apx].as_mut().expect("epoch for non-AP");
            st.assignments.clear();
            st.current = None;
            st.current_link = None;
            st.retries = 0;
            st.phase = ApPhase::Idle;
            self.core.engine.disarm(&mut st.timer);
            self.ap_dark_until[apx] = now + downtime;
            self.ap_crashed[apx] = true;
            return;
        }
        if self.ap_crashed[apx] {
            self.ap_crashed[apx] = false;
            self.core.node_faults.recovered();
            self.core.tracer.emit(now.as_nanos(), || TraceEvent::FaultRecover {
                kind: FaultKind::ApCrash,
                node: ap,
            });
        }
        // lint: allow(D005) controller addresses epochs to APs only; a miss is a wiring bug worth a crash
        let st = self.ap_states[apx].as_mut().expect("epoch for non-AP");
        st.assignments = assignments.into();
        st.epoch = epoch;
        match st.phase {
            // Mid-flight (only reachable when the epoch timeout released
            // the barrier early): keep the current exchange; the
            // completion path advances into the new assignments.
            ApPhase::Transmitting | ApPhase::AwaitAck => {}
            _ if st.assignments.is_empty() => {
                // Nothing to do: report done immediately.
                if let Some(m) = self.backbone.try_send(now, ()) {
                    self.core.engine.schedule_at(
                        m.deliver_at,
                        Ev::Scheme(CentaurEv::DoneArrive { ap, epoch }),
                    );
                }
            }
            _ => {
                st.phase = ApPhase::WaitIdle;
                arm_if_idle(st, apx, now, &mut self.core.engine, &self.core.medium, self.fixed);
            }
        }
    }

    fn on_controller_check(&mut self, now: SimTime) {
        if now < self.ctrl_dark_until || self.pending_done > 0 {
            // Crashed controller, or round still running.
            return;
        }
        if self.standby && now >= self.next_ckpt_at {
            // Ship the scheduler's fairness order to the warm standby.
            // The copy is instantaneous but *stale by design*: a crash
            // restores the order as of the last interval boundary.
            let mut cw = SnapWriter::new();
            self.sched.save(&mut cw);
            let bytes = cw.into_bytes();
            let len = bytes.len() as u32;
            self.core.tracer
                .emit(now.as_nanos(), move || TraceEvent::CtrlCheckpoint { bytes: len });
            self.standby_ckpt = bytes;
            self.next_ckpt_at = now + self.ckpt_every;
        }
        if let Some(downtime) = self.core.node_faults.ctrl_crash() {
            self.crash_controller(now, downtime);
            return;
        }
        // Snapshot downlink queues (instant AP→controller knowledge over
        // the wire) and pick one maximal non-conflicting set for this
        // round.
        let mut backlog: Vec<u32> = self.core
            .net
            .links()
            .iter()
            .map(|l| {
                if l.direction == Direction::Downlink {
                    self.core.fe.queue(l.id).len() as u32
                } else {
                    0
                }
            })
            .collect();
        let queue_lens = backlog.clone();
        let batch = self.sched.schedule_batch(&self.graph, &mut backlog, 1);
        let Some(round) = batch.slots.first() else {
            self.core.engine
                .schedule_in(SimDuration::from_millis(1), Ev::Scheme(CentaurEv::ControllerCheck));
            return;
        };
        self.epoch_counter += 1;
        self.pending_done = self.aps.len();
        // A stalled controller computes the round late; every assignment
        // ships after the stall.
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
        // Each scheduled link gets a quota of up to `packets_per_round`
        // back-to-back packets; the next round is released only when
        // every AP reports done (the CENTAUR batch barrier).
        for &ap in &self.aps {
            let assignments: Vec<LinkId> = round
                .iter()
                .copied()
                .filter(|&l| self.core.net.link(l).ap == ap)
                .flat_map(|l| {
                    let quota =
                        (queue_lens[l.index()] as usize).min(self.packets_per_round);
                    std::iter::repeat_n(l, quota)
                })
                .collect();
            if let Some(m) = self.backbone.try_send(now, ()) {
                self.core.engine.schedule_at(
                    m.deliver_at + stall,
                    Ev::Scheme(CentaurEv::EpochArrive {
                        ap: ap.0,
                        epoch: self.epoch_counter,
                        assignments,
                    }),
                );
            }
        }
        if self.faults_on {
            // Fallback: a lost assignment or Done would hang the barrier
            // forever without this.
            let epoch = self.epoch_counter;
            self.core.engine.schedule_at(
                now + stall + EPOCH_TIMEOUT,
                Ev::Scheme(CentaurEv::EpochTimeout { epoch }),
            );
        }
    }

    /// The primary controller crashes mid-compute. With a warm standby
    /// the deterministic failure detector fires after
    /// `standby_missed_k` silent heartbeat intervals and the standby
    /// promotes itself, restoring the last shipped fairness-order
    /// checkpoint (bounded staleness, no wall clocks). Without one, the
    /// controller cold-restarts after its configured downtime with the
    /// order lost.
    fn crash_controller(&mut self, now: SimTime, downtime: SimDuration) {
        self.core.tracer.emit(now.as_nanos(), || TraceEvent::FaultInject {
            kind: FaultKind::CtrlCrash,
            node: u32::MAX,
        });
        self.sched = RandScheduler::new(self.core.net.links().len());
        let recovery = if self.standby {
            if !self.standby_ckpt.is_empty() {
                let mut r = SnapReader::new(&self.standby_ckpt);
                // lint: allow(D005) the checkpoint bytes were produced by this very scheduler's save
                self.sched.restore(&mut r).expect("standby checkpoint bytes");
            }
            self.core.fe.stats.faults.standby_promotions += 1;
            self.core.tracer
                .emit(now.as_nanos(), || TraceEvent::StandbyPromote { replayed: 0 });
            self.detect_delay
        } else {
            downtime
        };
        self.core.fe.stats.faults.recovery_ns += recovery.as_nanos();
        self.ctrl_dark_until = now + recovery;
        self.core.engine
            .schedule_at(self.ctrl_dark_until, Ev::Scheme(CentaurEv::ControllerCheck));
    }
}

/// Arm an AP's fixed backoff if its channel is idle.
fn arm_if_idle(
    st: &mut ApState,
    ap: usize,
    now: SimTime,
    engine: &mut Engine<Ev<CentaurEv>>,
    medium: &Medium,
    fixed_wait: SimDuration,
) {
    if st.phase != ApPhase::WaitIdle {
        return;
    }
    if medium.is_busy(NodeId(ap as u32)) {
        st.last_busy = true;
        return;
    }
    st.phase = ApPhase::Armed;
    // Anchor the fixed wait to the shared NAV reference, not to this AP's
    // private ready time; that is what lets every AP of an exposed set
    // fire at the same instant regardless of which frames each could
    // hear.
    st.arm_expiry = (st.nav_anchor + fixed_wait).max(now);
    engine.rearm(&mut st.timer, st.arm_expiry, Ev::Scheme(CentaurEv::ApArm { ap: ap as u32 }));
}

/// Busy/idle scan for all scheduled APs. `nav_extension` is added to the
/// idle-transition anchor when the frame that just left the air was a
/// data frame (its NAV reserves the ACK window); pass zero for scans
/// triggered by transmission starts.
fn scan_aps(
    ap_states: &mut [Option<ApState>],
    aps: &[NodeId],
    now: SimTime,
    engine: &mut Engine<Ev<CentaurEv>>,
    medium: &Medium,
    fixed_wait: SimDuration,
    nav_extension: SimDuration,
) {
    for &ap in aps {
        let busy = medium.is_busy(ap);
        let st = match ap_states[ap.index()].as_mut() {
            Some(s) => s,
            None => continue,
        };
        if busy == st.last_busy {
            continue;
        }
        st.last_busy = busy;
        if !busy {
            st.nav_anchor = now + nav_extension;
        }
        if busy {
            // Cancel a pending arm — unless the busy-makers started at
            // this very instant and our arm fires now too (simultaneous
            // aligned starts must not suppress each other).
            let simultaneous_start =
                st.arm_expiry == now && !medium.is_busy_before_instant(ap, now);
            if st.phase == ApPhase::Armed && !simultaneous_start {
                st.phase = ApPhase::WaitIdle;
                engine.disarm(&mut st.timer);
            }
        } else if st.phase == ApPhase::WaitIdle {
            arm_if_idle(st, ap.index(), now, engine, medium, fixed_wait);
        }
    }
}

/// The fixed backoff expired: transmit the next assignment.
#[allow(clippy::too_many_arguments)]
fn ap_arm_fired(
    _net: &Network,
    ap: usize,
    now: SimTime,
    engine: &mut Engine<Ev<CentaurEv>>,
    medium: &mut Medium,
    fe: &mut FlowEngine,
    ap_states: &mut [Option<ApState>],
    backbone: &mut Backbone,
    rate: domino_phy::error_model::DataRate,
    fixed_wait: SimDuration,
) {
    let packet = {
        // lint: allow(D005) ApArm events are scheduled for AP indices only
        let st = ap_states[ap].as_mut().unwrap();
        if st.phase != ApPhase::Armed {
            return;
        }
        if medium.is_busy_before_instant(NodeId(ap as u32), now) {
            st.phase = ApPhase::WaitIdle;
            return;
        }
        // Claim a packet: retry the current one, or pop the next
        // assignment with data.
        if st.current.is_none() {
            while let Some(link) = st.assignments.pop_front() {
                if let Some(p) = fe.queue_mut(link).pop() {
                    st.current = Some(p);
                    st.current_link = Some(link);
                    break;
                }
                // Stale backlog estimate: skip the empty assignment.
            }
        }
        let Some(packet) = st.current else {
            st.phase = ApPhase::Idle;
            if let Some(m) = backbone.try_send(now, ()) {
                engine.schedule_at(
                    m.deliver_at,
                    Ev::Scheme(CentaurEv::DoneArrive { ap: ap as u32, epoch: st.epoch }),
                );
            }
            return;
        };
        st.phase = ApPhase::Transmitting;
        packet
    };
    let frame = Frame {
        src: NodeId(ap as u32),
        body: FrameBody::Data { packet, fake: false, client_burst: None },
        bits: (packet.payload_bytes + MAC_OVERHEAD_BYTES) * 8,
    };
    let tx = medium.begin(now, frame);
    engine.schedule_at(now + data_airtime(rate, packet.payload_bytes), Ev::TxEnd { tx });
    let _ = fixed_wait;
}

/// An ACK reached an AP in `AwaitAck`: advance to its next assignment.
#[allow(clippy::too_many_arguments)]
fn handle_ap_ack(
    net: &Network,
    r: &Reception,
    now: SimTime,
    engine: &mut Engine<Ev<CentaurEv>>,
    medium: &Medium,
    _fe: &mut FlowEngine,
    ap_states: &mut [Option<ApState>],
    backbone: &mut Backbone,
    fixed_wait: SimDuration,
) {
    let FrameBody::MacAck { packet, .. } = &r.frame.body else {
        return;
    };
    if !r.success {
        return;
    }
    let ap = r.rx.index();
    let needs_advance = match ap_states[ap].as_mut() {
        Some(st)
            if st.phase == ApPhase::AwaitAck
                && st.current.is_some_and(|p| p.id == *packet) =>
        {
            st.current = None;
            st.current_link = None;
            st.retries = 0;
            st.phase = ApPhase::WaitIdle;
            engine.disarm(&mut st.timer);
            true
        }
        _ => false,
    };
    if needs_advance {
        advance_ap(net, ap, now, engine, medium, ap_states, backbone, fixed_wait);
    }
}

/// Move an AP to its next assignment or report epoch completion.
#[allow(clippy::too_many_arguments)]
fn advance_ap(
    _net: &Network,
    ap: usize,
    now: SimTime,
    engine: &mut Engine<Ev<CentaurEv>>,
    medium: &Medium,
    ap_states: &mut [Option<ApState>],
    backbone: &mut Backbone,
    fixed_wait: SimDuration,
) {
    // lint: allow(D005) callers index this helper with AP node ids only
    let st = ap_states[ap].as_mut().unwrap();
    if st.current.is_none() && st.assignments.is_empty() {
        st.phase = ApPhase::Idle;
        if let Some(m) = backbone.try_send(now, ()) {
            engine.schedule_at(
                m.deliver_at,
                Ev::Scheme(CentaurEv::DoneArrive { ap: ap as u32, epoch: st.epoch }),
            );
        }
    } else {
        st.phase = ApPhase::WaitIdle;
        arm_if_idle(st, ap, now, engine, medium, fixed_wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcf::DcfWorld;
    use crate::world::tests::{run_faulted, run_plain};
    use crate::Workload;
    use domino_faults::FaultConfig;
    use domino_topology::presets::{fig13a, fig13b, fig1};
    use domino_topology::PhyParams;

    fn downlinks(net: &Network) -> Vec<LinkId> {
        net.links().iter().filter(|l| l.is_downlink()).map(|l| l.id).collect()
    }

    #[test]
    fn exposed_set_runs_concurrently_fig13a() {
        let net = fig13a(PhyParams::default());
        let w = Workload::udp_saturated(&downlinks(&net));
        let centaur = run_plain::<CentaurWorld>(&net, &w, 3.0, 1).aggregate_mbps();
        let dcf = run_plain::<DcfWorld>(&net, &w, 3.0, 1).aggregate_mbps();
        // Table 3 row 1: CENTAUR ≈ 3x DCF on mutually exposed links.
        assert!(
            centaur > dcf * 2.0,
            "CENTAUR {centaur} should crush DCF {dcf} on fig13a"
        );
        assert!(centaur > 20.0, "four concurrent links: {centaur}");
    }

    #[test]
    fn common_exposed_neighbour_breaks_alignment_fig13b() {
        let net = fig13b(PhyParams::default());
        let w = Workload::udp_saturated(&downlinks(&net));
        let centaur = run_plain::<CentaurWorld>(&net, &w, 3.0, 1);
        let dcf = run_plain::<DcfWorld>(&net, &w, 3.0, 1);
        // Table 3 row 2: CENTAUR falls below DCF.
        assert!(
            centaur.aggregate_mbps() < dcf.aggregate_mbps(),
            "CENTAUR {} should underperform DCF {} on fig13b",
            centaur.aggregate_mbps(),
            dcf.aggregate_mbps()
        );
    }

    #[test]
    fn downlink_only_fig1_avoids_hidden_collisions() {
        let net = fig1(PhyParams::default());
        // Only the two hidden downlinks (AP1->C1 and AP3->C3).
        let d = downlinks(&net);
        let w = Workload::udp_saturated(&[d[0], d[2]]);
        let centaur = run_plain::<CentaurWorld>(&net, &w, 3.0, 2);
        let dcf = run_plain::<DcfWorld>(&net, &w, 3.0, 2);
        // The scheduler never puts the conflicting pair in one round, so
        // CENTAUR rescues the hidden-terminal victim (AP3->C3) that DCF
        // starves, and collision timeouts all but disappear.
        let victim = d[2];
        assert!(
            centaur.link_mbps(victim) > dcf.link_mbps(victim) * 3.0,
            "victim under CENTAUR {} vs DCF {}",
            centaur.link_mbps(victim),
            dcf.link_mbps(victim)
        );
        let links = [d[0], d[2]];
        assert!(
            centaur.fairness(&links) > dcf.fairness(&links) + 0.2,
            "fairness {} vs {}",
            centaur.fairness(&links),
            dcf.fairness(&links)
        );
        assert!(centaur.ack_timeouts < dcf.ack_timeouts / 4 + 10);
    }

    #[test]
    fn uplink_disturbs_downlink_schedule() {
        let net = fig1(PhyParams::default());
        let d = downlinks(&net);
        let down_only = Workload::udp_saturated(&[d[0], d[2]]);
        let down = run_plain::<CentaurWorld>(&net, &down_only, 2.0, 3);
        let with_up = Workload::udp_updown(&net, 10e6, 10e6);
        let both = run_plain::<CentaurWorld>(&net, &with_up, 2.0, 3);
        let down_tput_alone = down.link_mbps(d[0]) + down.link_mbps(d[2]);
        let down_tput_disturbed = both.link_mbps(d[0]) + both.link_mbps(d[2]);
        assert!(
            down_tput_disturbed < down_tput_alone,
            "uplink DCF must hurt the schedule: {down_tput_disturbed} vs {down_tput_alone}"
        );
    }

    #[test]
    fn deterministic() {
        let net = fig13a(PhyParams::default());
        let w = Workload::udp_saturated(&downlinks(&net));
        let a = run_plain::<CentaurWorld>(&net, &w, 1.0, 5);
        let b = run_plain::<CentaurWorld>(&net, &w, 1.0, 5);
        assert_eq!(a.delivered_bits, b.delivered_bits);
    }

    #[test]
    fn warm_standby_recovers_faster_than_cold_restart() {
        let net = fig13a(PhyParams::default());
        let w = Workload::udp_saturated(&downlinks(&net));
        let cold_cfg = FaultConfig {
            ctrl_crash: 0.02,
            ctrl_downtime_us: 50_000.0,
            ..FaultConfig::off()
        };
        let warm_cfg = FaultConfig { standby: true, ..cold_cfg.clone() };
        let cold = run_faulted::<CentaurWorld>(&net, &w, 3.0, 7, &cold_cfg, CentaurConfig::default());
        let warm = run_faulted::<CentaurWorld>(&net, &w, 3.0, 7, &warm_cfg, CentaurConfig::default());
        assert!(cold.faults.ctrl_crashes > 0, "crashes: {}", cold.faults.ctrl_crashes);
        assert_eq!(cold.faults.standby_promotions, 0);
        assert!(warm.faults.standby_promotions > 0);
        assert_eq!(warm.faults.standby_promotions, warm.faults.ctrl_crashes);
        // Deterministic detector: k missed heartbeats of 1 ms each.
        assert_eq!(warm.faults.recovery_ns, warm.faults.standby_promotions * 3_000_000);
        // Cold restart pays the full configured downtime per crash.
        assert_eq!(cold.faults.recovery_ns, cold.faults.ctrl_crashes * 50_000_000);
        assert!(
            warm.aggregate_mbps() > cold.aggregate_mbps(),
            "warm {} vs cold {}",
            warm.aggregate_mbps(),
            cold.aggregate_mbps()
        );
    }
}
