//! The omniscient centralized scheduler (the Fig 2 upper bound).
//!
//! An idealized scheme: the controller sees every queue instantaneously,
//! all nodes share a perfect clock, and control traffic is free. Each
//! slot it greedily packs a maximal set of backlogged, non-conflicting
//! links (the same RAND policy DOMINO uses) and everyone transmits in
//! perfect synchrony. This is what strict scheduling *would* achieve if
//! microsecond synchronization were free — the bar DOMINO is measured
//! against.

use crate::flows::{Fired, TrafficEv};
use crate::timing::{ack_airtime, data_airtime, SIFS};
use crate::world::{Core, Setup, World};
use domino_medium::{Frame, FrameBody, TxId};
use domino_obs::{CostPath, TraceEvent, TraceHandle};
use domino_scheduler::RandScheduler;
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{SimDuration, SimTime};
use domino_topology::{ConflictGraph, LinkId};

/// Events of the omniscient engine.
#[derive(Debug)]
pub enum OmniEv {
    /// A shared traffic event.
    Traffic(TrafficEv),
    /// A transmission leaves the air.
    TxEnd {
        /// Medium handle.
        tx: TxId,
    },
    /// A synchronized slot begins.
    SlotStart,
}

impl From<TrafficEv> for OmniEv {
    fn from(ev: TrafficEv) -> Self {
        OmniEv::Traffic(ev)
    }
}

impl SnapValue for OmniEv {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            OmniEv::Traffic(ev) => {
                w.put_u8(0);
                ev.put(w);
            }
            OmniEv::TxEnd { tx } => {
                w.put_u8(1);
                tx.put(w);
            }
            OmniEv::SlotStart => w.put_u8(2),
        }
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => OmniEv::Traffic(SnapValue::thaw(r)?),
            1 => OmniEv::TxEnd { tx: SnapValue::thaw(r)? },
            2 => OmniEv::SlotStart,
            _ => return Err(SnapError::Corrupt("omni event tag")),
        })
    }
}

/// The complete state of an omniscient run between events. Only the
/// medium-resident fault classes (churn dark intervals; fades are moot
/// without signature bursts) touch this idealized scheme — its control
/// plane is free and lossless by definition.
#[derive(Debug)]
pub struct OmniWorld {
    core: Core<OmniEv>,
    sched: RandScheduler,
    /// Synchronized-slot index, for the trace only.
    slot_idx: u64,
    graph: ConflictGraph,
    rate: domino_phy::error_model::DataRate,
    /// Fixed slot: data + SIFS + ack + SIFS turnaround.
    slot: SimDuration,
}

impl World for OmniWorld {
    type Ev = OmniEv;
    type Config = ();

    fn build(setup: &Setup<'_>, (): (), tracer: TraceHandle) -> OmniWorld {
        let mut core = Core::new(setup, tracer);
        let net = setup.net;
        let rate = net.phy().data_rate;
        let slot =
            data_airtime(rate, setup.workload.packet_bytes) + SIFS + ack_airtime(rate) + SIFS;
        core.engine.schedule_at(SimTime::ZERO, OmniEv::SlotStart);
        OmniWorld {
            core,
            sched: RandScheduler::new(net.links().len()),
            slot_idx: 0,
            graph: ConflictGraph::build_for_scheduling(net),
            rate,
            slot,
        }
    }

    fn core(&mut self) -> &mut Core<OmniEv> {
        &mut self.core
    }

    fn cost_class(ev: &OmniEv) -> CostPath {
        match ev {
            OmniEv::Traffic(_) => CostPath::EvTraffic,
            OmniEv::TxEnd { .. } => CostPath::EvMedium,
            OmniEv::SlotStart => CostPath::EvController,
        }
    }

    fn handle(&mut self, now: SimTime, ev: OmniEv) {
        let c = &mut self.core;
        match ev {
            OmniEv::Traffic(ev) => {
                if let Some(Fired::Tcp(flow)) = c.fe.on_event(ev, now, &mut c.engine) {
                    c.fe.sync_rto(flow, now, &mut c.engine);
                }
            }
            OmniEv::SlotStart => {
                // Perfect knowledge: one maximal set from true queue
                // lengths.
                let mut backlog: Vec<u32> = (0..c.net.links().len())
                    .map(|l| c.fe.queue(LinkId(l as u32)).len() as u32)
                    .collect();
                let batch = self.sched.schedule_batch(&self.graph, &mut backlog, 1);
                self.slot_idx += 1;
                if let Some(links) = batch.slots.first() {
                    let mut txs = Vec::new();
                    for &l in links {
                        let slot_idx = self.slot_idx;
                        c.tracer.emit(now.as_nanos(), || TraceEvent::SlotStart {
                            slot: slot_idx,
                            link: l.0,
                            fake: false,
                        });
                        // lint: allow(D005) the scheduler only emits links whose live backlog was non-zero
                        let packet = c.fe.queue_mut(l).pop().expect("empty queue");
                        let airtime = data_airtime(self.rate, packet.payload_bytes);
                        let frame = Frame {
                            src: c.net.link(l).sender,
                            body: FrameBody::Data { packet, fake: false, client_burst: None },
                            bits: (packet.payload_bytes + crate::timing::MAC_OVERHEAD_BYTES) * 8,
                        };
                        let tx = c.medium.begin(now, frame);
                        txs.push((tx, now + airtime));
                    }
                    for (tx, end) in txs {
                        c.engine.schedule_at(end, OmniEv::TxEnd { tx });
                    }
                }
                c.engine.schedule_at(now + self.slot, OmniEv::SlotStart);
            }
            OmniEv::TxEnd { tx } => {
                let receptions = c.end_tx(tx, now);
                for r in &receptions {
                    if let FrameBody::Data { packet, .. } = &r.frame.body {
                        let l = *c.net.link(packet.link);
                        let intended = if l.is_downlink() { l.client() } else { l.ap };
                        if r.rx == intended {
                            c.tracer.emit(now.as_nanos(), || TraceEvent::SlotEnd {
                                link: packet.link.0,
                                delivered: r.success,
                            });
                        }
                        if r.success {
                            c.fe.deliver(packet, now);
                        } else {
                            // The omniscient controller observes the
                            // loss and retries next slot.
                            c.fe.stats.retries += 1;
                            if !c.fe.queue_mut(packet.link).push_front(*packet) {
                                c.fe.stats.drops += 1;
                            }
                        }
                    }
                }
                c.rx_buf = receptions;
                c.fe.sync_all_rto(now, &mut c.engine);
            }
        }
    }

    fn finish(self) -> Core<OmniEv> {
        self.core
    }

    fn save(&self, w: &mut SnapWriter) {
        self.sched.save(w);
        w.put_u64(self.slot_idx);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.sched.restore(r)?;
        self.slot_idx = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcf::DcfWorld;
    use crate::world::tests::run_plain;
    use crate::Workload;
    use domino_topology::presets::fig1;
    use domino_topology::{Network, NodeId, PhyParams};

    pub(crate) fn fig1_links(net: &Network) -> (LinkId, LinkId, LinkId) {
        let l_ap1 = net
            .links()
            .iter()
            .find(|l| l.is_downlink() && l.sender == NodeId(0))
            .unwrap()
            .id;
        let l_c2 = net
            .links()
            .iter()
            .find(|l| !l.is_downlink() && l.ap == NodeId(2))
            .unwrap()
            .id;
        let l_ap3 = net
            .links()
            .iter()
            .find(|l| l.is_downlink() && l.sender == NodeId(4))
            .unwrap()
            .id;
        (l_ap1, l_c2, l_ap3)
    }

    #[test]
    fn fig2_shape_exposed_link_runs_continuously() {
        let net = fig1(PhyParams::default());
        let (l_ap1, l_c2, l_ap3) = fig1_links(&net);
        let w = Workload::udp_saturated(&[l_ap1, l_c2, l_ap3]);
        let stats = run_plain::<OmniWorld>(&net, &w, 3.0, 1);
        let (t1, t2, t3) = (
            stats.link_mbps(l_ap1),
            stats.link_mbps(l_c2),
            stats.link_mbps(l_ap3),
        );
        // The exposed uplink rides along every slot; the two hidden
        // downlinks alternate and each get about half of C2's rate.
        assert!(t2 > 7.0, "C2->AP2 should be near full rate: {t2}");
        assert!((t1 - t3).abs() < 1.5, "hidden pair shares fairly: {t1} vs {t3}");
        assert!(t1 > 3.0 && t3 > 3.0, "no starvation: {t1}, {t3}");
        assert!(stats.aggregate_mbps() > 14.0, "aggregate: {}", stats.aggregate_mbps());
    }

    #[test]
    fn omniscient_beats_dcf_on_fig1() {
        let net = fig1(PhyParams::default());
        let (l_ap1, l_c2, l_ap3) = fig1_links(&net);
        let w = Workload::udp_saturated(&[l_ap1, l_c2, l_ap3]);
        let omni = run_plain::<OmniWorld>(&net, &w, 3.0, 1).aggregate_mbps();
        let dcf = run_plain::<DcfWorld>(&net, &w, 3.0, 1).aggregate_mbps();
        // The paper's Fig 2: the omniscient scheme is ~76% above DCF.
        assert!(omni > dcf * 1.4, "omniscient {omni} should clearly beat DCF {dcf}");
    }

    #[test]
    fn deterministic() {
        let net = fig1(PhyParams::default());
        let (l_ap1, l_c2, _) = fig1_links(&net);
        let w = Workload::udp_saturated(&[l_ap1, l_c2]);
        let a = run_plain::<OmniWorld>(&net, &w, 1.0, 3);
        let b = run_plain::<OmniWorld>(&net, &w, 1.0, 3);
        assert_eq!(a.delivered_bits, b.delivered_bits);
    }
}
