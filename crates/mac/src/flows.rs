//! Traffic glue shared by every scheme engine: per-link queues, the
//! UDP/TCP traffic events, delivery accounting.
//!
//! The scheme engines (DCF, CENTAUR, Omniscient, DOMINO) differ only in
//! *when* a link gets to transmit; everything about packet arrivals,
//! TCP feedback and retransmission timers, queue occupancy and
//! goodput/delay metering is identical and lives here. Each scheme's
//! event type wraps [`TrafficEv`], and [`FlowEngine::on_event`] is the one
//! place those events are handled; the scheme only adds its reaction
//! (kick a contender, re-arm one RTO or all of them).

use crate::workload::{FlowKind, RunStats, Workload};
use domino_sim::snapshot::{SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
use domino_sim::{Engine, SimDuration, SimTime};
use domino_topology::{LinkId, Network};
use domino_traffic::{
    FlowId, LinkQueue, Packet, PacketId, PacketKind, TcpReceiver, TcpSender, UdpSource,
    TCP_ACK_BYTES,
};

/// Interval of the periodic TCP application tick.
pub const TCP_TICK: SimDuration = SimDuration::from_millis(2);

/// The traffic events every scheme shares.
#[derive(Clone, Copy, Debug)]
pub enum TrafficEv {
    /// A UDP flow's next packet is due.
    UdpArrival {
        /// Flow index.
        flow: usize,
    },
    /// Periodic TCP application tick.
    TcpTick {
        /// Flow index.
        flow: usize,
    },
    /// TCP retransmission-timer check.
    TcpRto {
        /// Flow index.
        flow: usize,
        /// Staleness guard: only the latest re-arm of a flow fires.
        gen: u64,
    },
}

impl SnapValue for TrafficEv {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            TrafficEv::UdpArrival { flow } => {
                w.put_u8(0);
                flow.put(w);
            }
            TrafficEv::TcpTick { flow } => {
                w.put_u8(1);
                flow.put(w);
            }
            TrafficEv::TcpRto { flow, gen } => {
                w.put_u8(2);
                flow.put(w);
                w.put_u64(*gen);
            }
        }
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => TrafficEv::UdpArrival { flow: SnapValue::thaw(r)? },
            1 => TrafficEv::TcpTick { flow: SnapValue::thaw(r)? },
            2 => TrafficEv::TcpRto { flow: SnapValue::thaw(r)?, gen: r.get_u64()? },
            _ => return Err(SnapError::Corrupt("traffic event tag")),
        })
    }
}

impl TrafficEv {
    /// The flow this event belongs to.
    pub fn flow(self) -> usize {
        match self {
            TrafficEv::UdpArrival { flow }
            | TrafficEv::TcpTick { flow }
            | TrafficEv::TcpRto { flow, .. } => flow,
        }
    }
}

/// What a handled traffic event changed, for the scheme's reaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fired {
    /// A UDP packet of this flow arrived at its queue.
    Udp(usize),
    /// This TCP flow's sender moved; its RTO deadline may have moved too.
    Tcp(usize),
}

#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum FlowRuntime {
    Udp(UdpSource),
    Tcp {
        sender: TcpSender,
        receiver: TcpReceiver,
        link: LinkId,
        reverse: LinkId,
        delivered_segments: u64,
    },
}

/// Queues + flow state + metering for one run.
#[derive(Debug)]
pub struct FlowEngine {
    packet_bytes: usize,
    queues: Vec<LinkQueue>,
    flows: Vec<FlowRuntime>,
    /// link index → flow index (for TCP data links and reverse-ack
    /// lookup).
    flow_of_link: Vec<Option<usize>>,
    /// Highest UDP sequence delivered per link (a lost MAC ACK makes the
    /// sender retransmit a packet the receiver already has; goodput must
    /// not double-count it).
    last_udp_seq: Vec<Option<u64>>,
    ack_serial: u64,
    /// Per-flow RTO generation: a `TcpRto` event fires only if it carries
    /// its flow's latest generation.
    rto_gen: Vec<u64>,
    /// Indices of the TCP flows, in flow order.
    tcp: Vec<usize>,
    /// Statistics under construction.
    pub stats: RunStats,
}

impl FlowEngine {
    /// Build the runtime for a workload over a network.
    pub fn new(net: &Network, workload: &Workload, duration_s: f64) -> FlowEngine {
        let num_links = net.links().len();
        let mut flow_of_link = vec![None; num_links];
        let flows: Vec<FlowRuntime> = workload
            .flows
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                flow_of_link[spec.link.index()] = Some(i);
                match &spec.kind {
                    FlowKind::Udp { rate_bps } => FlowRuntime::Udp(UdpSource::new(
                        FlowId(i as u32),
                        spec.link,
                        *rate_bps,
                        workload.packet_bytes,
                        SimTime::ZERO,
                    )),
                    FlowKind::Tcp { cfg } => FlowRuntime::Tcp {
                        sender: TcpSender::new(
                            FlowId(i as u32),
                            spec.link,
                            cfg.clone(),
                            (i as u64) << 40,
                            SimTime::ZERO,
                        ),
                        receiver: TcpReceiver::new(),
                        link: spec.link,
                        reverse: net.reverse_link(spec.link),
                        delivered_segments: 0,
                    },
                }
            })
            .collect();
        FlowEngine {
            packet_bytes: workload.packet_bytes,
            queues: (0..num_links).map(|_| LinkQueue::default()).collect(),
            tcp: (0..flows.len())
                .filter(|&i| matches!(flows[i], FlowRuntime::Tcp { .. }))
                .collect(),
            rto_gen: vec![0; flows.len()],
            flows,
            flow_of_link,
            last_udp_seq: vec![None; num_links],
            ack_serial: 0,
            stats: RunStats::new(num_links, duration_s),
        }
    }

    /// Schedule every flow's first traffic event: each UDP flow's first
    /// arrival, then each TCP flow's first tick.
    pub fn seed<E: From<TrafficEv>>(&self, engine: &mut Engine<E>) {
        for (flow, f) in self.flows.iter().enumerate() {
            if let FlowRuntime::Udp(src) = f {
                engine.schedule_at(src.next_arrival(), TrafficEv::UdpArrival { flow }.into());
            }
        }
        for &flow in &self.tcp {
            engine.schedule_at(SimTime::ZERO + TCP_TICK, TrafficEv::TcpTick { flow }.into());
        }
    }

    /// Handle one traffic event: queue a UDP arrival and schedule the
    /// next, run a TCP tick and schedule the next, or fire a current RTO.
    /// Returns what changed, or `None` for a superseded RTO. The caller
    /// reacts: a CSMA scheme kicks the sender, and after `Fired::Tcp` it
    /// re-arms RTOs with [`FlowEngine::sync_rto`] or
    /// [`FlowEngine::sync_all_rto`].
    pub fn on_event<E: From<TrafficEv>>(
        &mut self,
        ev: TrafficEv,
        now: SimTime,
        engine: &mut Engine<E>,
    ) -> Option<Fired> {
        let flow = ev.flow();
        if let TrafficEv::TcpRto { gen, .. } = ev {
            if self.rto_gen[flow] != gen {
                return None; // superseded by a later re-arm: the common case
            }
        }
        let released = match (ev, &mut self.flows[flow]) {
            (TrafficEv::UdpArrival { .. }, FlowRuntime::Udp(src)) => {
                let packet = src.emit((flow as u64) << 40);
                if !self.queues[packet.link.index()].push(packet) {
                    self.stats.drops += 1;
                }
                engine.schedule_at(src.next_arrival(), ev.into());
                return Some(Fired::Udp(flow));
            }
            (TrafficEv::TcpTick { .. }, FlowRuntime::Tcp { sender, .. }) => {
                engine.schedule_in(TCP_TICK, ev.into());
                sender.poll(now)
            }
            (TrafficEv::TcpRto { .. }, FlowRuntime::Tcp { sender, .. }) => sender.on_timer(now),
            _ => return None,
        };
        self.enqueue_all(released);
        Some(Fired::Tcp(flow))
    }

    /// Re-arm one TCP flow's RTO event after its deadline may have moved:
    /// bump the flow's generation (superseding the pending event) and
    /// schedule the current deadline, if any.
    pub fn sync_rto<E: From<TrafficEv>>(&mut self, flow: usize, now: SimTime, engine: &mut Engine<E>) {
        self.rto_gen[flow] += 1;
        if let Some(deadline) = self.tcp_rto_deadline(flow) {
            let gen = self.rto_gen[flow];
            engine.schedule_at(deadline.max(now), TrafficEv::TcpRto { flow, gen }.into());
        }
    }

    /// [`FlowEngine::sync_rto`] for every TCP flow, in flow order.
    pub fn sync_all_rto<E: From<TrafficEv>>(&mut self, now: SimTime, engine: &mut Engine<E>) {
        for i in 0..self.tcp.len() {
            self.sync_rto(self.tcp[i], now, engine);
        }
    }

    /// The queue of one link.
    pub fn queue(&self, link: LinkId) -> &LinkQueue {
        &self.queues[link.index()]
    }

    /// Mutable queue access (schemes pop/push here).
    pub fn queue_mut(&mut self, link: LinkId) -> &mut LinkQueue {
        &mut self.queues[link.index()]
    }

    /// Total packets waiting across all links.
    pub fn total_backlog(&self) -> usize {
        self.queues.iter().map(LinkQueue::len).sum()
    }

    /// The data link of a flow.
    pub fn flow_link(&self, flow: usize) -> LinkId {
        match &self.flows[flow] {
            FlowRuntime::Udp(src) => src.link(),
            FlowRuntime::Tcp { link, .. } => *link,
        }
    }

    /// Current RTO deadline of a TCP flow.
    fn tcp_rto_deadline(&self, flow: usize) -> Option<SimTime> {
        match &self.flows[flow] {
            FlowRuntime::Tcp { sender, .. } => sender.rto_deadline(),
            FlowRuntime::Udp(_) => None,
        }
    }

    fn enqueue_all(&mut self, packets: Vec<Packet>) {
        for p in packets {
            if !self.queues[p.link.index()].push(p) {
                self.stats.drops += 1;
            }
        }
    }

    /// Account a successful delivery of `packet` at `now` and run the
    /// transport reaction (TCP receivers generate acks onto the reverse
    /// link; TCP senders absorb acks and may release more segments).
    pub fn deliver(&mut self, packet: &Packet, now: SimTime) {
        match packet.kind {
            PacketKind::Udp => {
                let last = &mut self.last_udp_seq[packet.link.index()];
                if last.is_some_and(|l| packet.seq <= l) {
                    return; // duplicate of an already-delivered packet
                }
                *last = Some(packet.seq);
                self.stats.delivered_bits[packet.link.index()] +=
                    packet.payload_bytes as u64 * 8;
                self.stats.delays[packet.link.index()]
                    .record_us(now.saturating_since(packet.created_at).as_micros_f64());
            }
            PacketKind::TcpData => {
                let flow_idx = self.flow_of_link[packet.link.index()]
                    .expect("TCP data on a link without a flow"); // lint: allow(D005) TCP packets are only minted by a flow on that link
                let mss = self.packet_bytes as u64 * 8;
                let (ack, link, reverse) = match &mut self.flows[flow_idx] {
                    FlowRuntime::Tcp { receiver, link, reverse, delivered_segments, .. } => {
                        let ack = receiver.on_data(packet.seq);
                        // Goodput counts in-order delivered segments only
                        // (retransmissions don't double-count).
                        let newly = receiver.delivered() - *delivered_segments;
                        *delivered_segments = receiver.delivered();
                        self.stats.delivered_bits[link.index()] += newly * mss;
                        (ack, *link, *reverse)
                    }
                    // lint: allow(D005) flow_of_link maps TCP links to TCP runtimes by construction
                    _ => panic!("flow mismatch"),
                };
                self.stats.delays[link.index()]
                    .record_us(now.saturating_since(packet.created_at).as_micros_f64());
                // Ack as a regular packet on the reverse link.
                self.ack_serial += 1;
                let ack_packet = Packet {
                    id: PacketId((0xACu64 << 48) | self.ack_serial),
                    flow: packet.flow,
                    link: reverse,
                    payload_bytes: TCP_ACK_BYTES,
                    created_at: now,
                    kind: PacketKind::TcpAck,
                    seq: ack,
                };
                if !self.queues[reverse.index()].push(ack_packet) {
                    self.stats.drops += 1;
                }
            }
            PacketKind::TcpAck => {
                // The ack arrived back at the data sender: find the flow
                // whose data link is the reverse of the ack's link.
                let flow_idx = self
                    .flows
                    .iter()
                    .position(|f| matches!(f, FlowRuntime::Tcp { reverse, .. } if *reverse == packet.link))
                    .expect("TCP ack on a link that is no flow's reverse"); // lint: allow(D005) acks are minted with reverse = some flow's data link
                let released = match &mut self.flows[flow_idx] {
                    FlowRuntime::Tcp { sender, .. } => sender.on_ack(packet.seq, now),
                    // lint: allow(D005) position() above matched a Tcp variant at this index
                    _ => unreachable!(),
                };
                self.enqueue_all(released);
            }
        }
    }

    /// Snapshot of all dynamic traffic state. Flow specs, the link
    /// universe and the packet size are configuration and stay with the
    /// restore target's constructor.
    pub fn snapshot_save(&self, w: &mut SnapWriter) {
        w.put_u64(self.queues.len() as u64);
        for q in &self.queues {
            q.save(w);
        }
        w.put_u64(self.flows.len() as u64);
        for f in &self.flows {
            match f {
                FlowRuntime::Udp(src) => {
                    w.put_u8(0);
                    src.save(w);
                }
                FlowRuntime::Tcp { sender, receiver, delivered_segments, .. } => {
                    w.put_u8(1);
                    sender.save(w);
                    receiver.save(w);
                    w.put_u64(*delivered_segments);
                }
            }
        }
        self.last_udp_seq.put(w);
        w.put_u64(self.ack_serial);
        self.rto_gen.put(w);
        self.stats.save(w);
    }

    /// Restore the state written by [`FlowEngine::snapshot_save`] into an
    /// engine built from the same `(net, workload, duration)`.
    pub fn snapshot_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.get_len()? != self.queues.len() {
            return Err(SnapError::Corrupt("flow engine queue count"));
        }
        for q in &mut self.queues {
            q.restore(r)?;
        }
        if r.get_len()? != self.flows.len() {
            return Err(SnapError::Corrupt("flow engine flow count"));
        }
        for f in &mut self.flows {
            match (r.get_u8()?, f) {
                (0, FlowRuntime::Udp(src)) => src.restore(r)?,
                (1, FlowRuntime::Tcp { sender, receiver, delivered_segments, .. }) => {
                    sender.restore(r)?;
                    receiver.restore(r)?;
                    *delivered_segments = r.get_u64()?;
                }
                _ => return Err(SnapError::Corrupt("flow runtime kind")),
            }
        }
        self.last_udp_seq = SnapValue::thaw(r)?;
        if self.last_udp_seq.len() != self.queues.len() {
            return Err(SnapError::Corrupt("udp seq table length"));
        }
        self.ack_serial = r.get_u64()?;
        let rto_gen: Vec<u64> = SnapValue::thaw(r)?;
        if rto_gen.len() != self.rto_gen.len() {
            return Err(SnapError::Corrupt("rto gen table length"));
        }
        self.rto_gen = rto_gen;
        self.stats.restore(r)
    }

    /// Total MAC retransmissions recorded by TCP senders (diagnostics).
    pub fn tcp_retransmissions(&self) -> u64 {
        self.flows
            .iter()
            .map(|f| match f {
                FlowRuntime::Tcp { sender, .. } => sender.retransmissions(),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use domino_phy::units::Dbm;
    use domino_topology::network::{make_node, PhyParams};
    use domino_topology::node::{NodeId, NodeRole, Position};
    use domino_topology::rss::RssMatrix;

    fn net() -> Network {
        let nodes = vec![
            make_node(0, NodeRole::Ap, None, Position::default()),
            make_node(1, NodeRole::Client, Some(0), Position::default()),
        ];
        let mut rss = RssMatrix::disconnected(2);
        rss.set_symmetric(NodeId(0), NodeId(1), Dbm(-55.0));
        Network::new(nodes, rss, PhyParams::default())
    }

    /// Hand one traffic event to the flow engine, as a scheme's handler
    /// would.
    fn fire(fe: &mut FlowEngine, ev: TrafficEv, now: SimTime) -> Option<Fired> {
        let mut engine: Engine<TrafficEv> = Engine::new();
        fe.on_event(ev, now, &mut engine)
    }

    fn arrive(fe: &mut FlowEngine, flow: usize) {
        fire(fe, TrafficEv::UdpArrival { flow }, SimTime::ZERO);
    }

    fn tick(fe: &mut FlowEngine, flow: usize, now: SimTime) {
        fire(fe, TrafficEv::TcpTick { flow }, now);
    }

    #[test]
    fn seeding_schedules_udp_arrivals_then_tcp_ticks() {
        let n = net();
        let mut w = Workload::udp_updown(&n, 10e6, 0.0);
        w.flows.extend(Workload::tcp_updown(&n, 0.0, 1e6).flows);
        let fe = FlowEngine::new(&n, &w, 1.0);
        let mut engine: Engine<TrafficEv> = Engine::new();
        fe.seed(&mut engine);
        let (t0, first) = engine.pop().unwrap();
        assert!(matches!(first, TrafficEv::UdpArrival { flow: 0 }));
        assert!(t0 > SimTime::ZERO);
        let (t1, second) = engine.pop().unwrap();
        assert!(matches!(second, TrafficEv::TcpTick { flow: 1 }));
        assert_eq!(t1, SimTime::ZERO + TCP_TICK);
        assert!(engine.pop().is_none());
    }

    #[test]
    fn udp_arrivals_fill_the_queue_and_reschedule() {
        let n = net();
        let w = Workload::udp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        let mut engine: Engine<TrafficEv> = Engine::new();
        for _ in 0..5 {
            let fired = fe.on_event(TrafficEv::UdpArrival { flow: 0 }, SimTime::ZERO, &mut engine);
            assert_eq!(fired, Some(Fired::Udp(0)));
        }
        assert_eq!(fe.queue(LinkId(0)).len(), 5);
        assert_eq!(fe.total_backlog(), 5);
        // Every arrival scheduled the flow's next one.
        assert_eq!(engine.pending(), 5);
    }

    #[test]
    fn udp_delivery_meters_goodput_and_delay() {
        let n = net();
        let w = Workload::udp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        arrive(&mut fe, 0);
        let p = fe.queue_mut(LinkId(0)).pop().unwrap();
        let deliver_at = p.created_at + SimDuration::from_micros(500);
        fe.deliver(&p, deliver_at);
        assert_eq!(fe.stats.delivered_bits[0], 512 * 8);
        assert!((fe.stats.delays[0].mean_us() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn tcp_data_generates_ack_on_reverse_link() {
        let n = net();
        let w = Workload::tcp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        tick(&mut fe, 0, SimTime::from_millis(1));
        assert!(!fe.queue(LinkId(0)).is_empty(), "sender released segments");
        let p = fe.queue_mut(LinkId(0)).pop().unwrap();
        assert_eq!(p.kind, PacketKind::TcpData);
        fe.deliver(&p, SimTime::from_millis(2));
        // Ack waits on the reverse (uplink) queue.
        assert_eq!(fe.queue(LinkId(1)).len(), 1);
        let ack = fe.queue_mut(LinkId(1)).pop().unwrap();
        assert_eq!(ack.kind, PacketKind::TcpAck);
        assert_eq!(ack.seq, 1);
        // Goodput counted once.
        assert_eq!(fe.stats.delivered_bits[0], 512 * 8);
        // Delivering the ack opens the sender's window.
        let before = fe.queue(LinkId(0)).len();
        fe.deliver(&ack, SimTime::from_millis(3));
        assert!(fe.queue(LinkId(0)).len() > before, "ack released new segments");
    }

    #[test]
    fn tcp_retransmission_does_not_double_count_goodput() {
        let n = net();
        let w = Workload::tcp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        tick(&mut fe, 0, SimTime::from_millis(1));
        let p = fe.queue_mut(LinkId(0)).pop().unwrap();
        fe.deliver(&p, SimTime::from_millis(2));
        let bits = fe.stats.delivered_bits[0];
        // Same segment again (spurious retransmission).
        fe.deliver(&p, SimTime::from_millis(3));
        assert_eq!(fe.stats.delivered_bits[0], bits);
    }

    #[test]
    fn duplicate_udp_delivery_not_double_counted() {
        let n = net();
        let w = Workload::udp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        arrive(&mut fe, 0);
        let p = fe.queue_mut(LinkId(0)).pop().unwrap();
        fe.deliver(&p, SimTime::from_millis(1));
        fe.deliver(&p, SimTime::from_millis(2)); // MAC retry after lost ACK
        assert_eq!(fe.stats.delivered_bits[0], 512 * 8);
        assert_eq!(fe.stats.delays[0].count(), 1);
    }

    #[test]
    fn queue_overflow_counts_drops() {
        let n = net();
        let w = Workload::udp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        for _ in 0..250 {
            arrive(&mut fe, 0);
        }
        assert!(fe.stats.drops > 0);
        assert_eq!(fe.queue(LinkId(0)).len(), 200);
    }

    #[test]
    fn tcp_rto_fires_only_at_its_latest_generation() {
        let n = net();
        let w = Workload::tcp_updown(&n, 10e6, 0.0);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        tick(&mut fe, 0, SimTime::from_millis(1));
        assert!(!fe.queue(LinkId(0)).is_empty());
        let mut engine: Engine<TrafficEv> = Engine::new();
        // Two re-arms: the first event is superseded by the second.
        fe.sync_rto(0, SimTime::from_millis(1), &mut engine);
        fe.sync_rto(0, SimTime::from_millis(1), &mut engine);
        let (_, stale) = engine.pop().expect("rto armed after send");
        let (deadline, live) = engine.pop().expect("re-armed rto");
        assert!(matches!(live, TrafficEv::TcpRto { flow: 0, gen: 2 }));
        // Drain the queue (packets "lost"), then fire the timers: the
        // superseded one is ignored, the live one retransmits.
        while fe.queue_mut(LinkId(0)).pop().is_some() {}
        assert_eq!(fire(&mut fe, stale, deadline), None);
        assert!(fe.queue(LinkId(0)).is_empty());
        assert_eq!(fire(&mut fe, live, deadline), Some(Fired::Tcp(0)));
        assert_eq!(fe.queue(LinkId(0)).len(), 1, "go-back-N retransmission queued");
        assert_eq!(fe.tcp_retransmissions(), 1);
    }

    #[test]
    fn events_for_the_wrong_flow_kind_are_ignored() {
        let n = net();
        let w = Workload::udp_updown(&n, 5e6, 1e6);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        assert_eq!(fire(&mut fe, TrafficEv::TcpTick { flow: 0 }, SimTime::ZERO), None);
        assert_eq!(fe.total_backlog(), 0);
    }

    #[test]
    fn flow_link_lookup() {
        let n = net();
        let w = Workload::udp_updown(&n, 5e6, 1e6);
        let fe = FlowEngine::new(&n, &w, 1.0);
        assert_eq!(fe.flow_link(0), LinkId(0));
        assert_eq!(fe.flow_link(1), LinkId(1));
    }

    #[test]
    fn total_backlog_sums_all_queues() {
        let n = net();
        let w = Workload::udp_updown(&n, 5e6, 5e6);
        let mut fe = FlowEngine::new(&n, &w, 1.0);
        for flow in 0..2 {
            arrive(&mut fe, flow);
            arrive(&mut fe, flow);
        }
        assert_eq!(fe.total_backlog(), 4);
    }
}
