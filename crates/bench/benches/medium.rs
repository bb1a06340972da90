//! Microbenchmark of the SINR medium: begin/end cycles with concurrent
//! interferers — the inner loop of every network-scale experiment — and
//! the carrier-sense sweep every CSMA-family MAC runs after each begin
//! and end.

use domino_medium::{Frame, FrameBody, Medium};
use domino_sim::SimTime;
use domino_testkit::bench::Harness;
use domino_topology::builder::{random_placement, t_topology};
use domino_topology::trace::{generate, TraceConfig};
use domino_topology::{LinkId, Network, NodeId, PhyParams};
use domino_traffic::{FlowId, Packet, PacketId, PacketKind};

fn data_frame(net: &Network, link: LinkId, serial: u64) -> Frame {
    Frame {
        src: net.link(link).sender,
        body: FrameBody::Data {
            packet: Packet {
                id: PacketId(serial),
                flow: FlowId(0),
                link,
                payload_bytes: 512,
                created_at: SimTime::ZERO,
                kind: PacketKind::Udp,
                seq: serial,
            },
            fake: false,
            client_burst: None,
        },
        bits: 4096,
    }
}

fn main() {
    let trace = generate(&TraceConfig::default(), 0xD0311);
    let net = t_topology(&trace, 10, 2, PhyParams::default(), 1).expect("T(10,2)");

    let mut h = Harness::new("medium");

    let mut medium = Medium::new(net.clone(), 1);
    let mut t = 0u64;
    let mut serial = 0u64;
    let mut receptions = Vec::new();
    h.bench("medium/4_concurrent_exchanges_T10_2", || {
        t += 1_000_000;
        let start = SimTime::from_nanos(t);
        let mut txs = Vec::new();
        // Four spatially separate downlinks transmit together.
        for link in [0u32, 8, 16, 24] {
            serial += 1;
            txs.push(medium.begin(start, data_frame(&net, LinkId(link), serial)));
        }
        let end = SimTime::from_nanos(t + 385_000);
        for tx in txs {
            medium.end_into(tx, end, &mut receptions);
        }
        let ok = receptions.iter().filter(|r| r.success).count();
        receptions.clear();
        ok
    });

    // Carrier sense on the Fig 14 random T(20,3) network (80 nodes): one
    // `is_busy` per node, as `CsmaCore::scan` does, with 1, 8 and 16
    // distinct senders on the air.
    let fig14 = random_placement(20, 3, 800.0, 30.0, PhyParams::default(), 1);
    let mut senders = Vec::new();
    for l in fig14.links() {
        if !senders.iter().any(|&(_, s)| s == l.sender) {
            senders.push((l.id, l.sender));
        }
    }
    for in_flight in [1usize, 8, 16] {
        let mut medium = Medium::new(fig14.clone(), 1);
        for (i, &(link, _)) in senders.iter().take(in_flight).enumerate() {
            medium.begin(SimTime::ZERO, data_frame(&fig14, link, i as u64));
        }
        let n = fig14.num_nodes() as u32;
        h.bench(&format!("medium/is_busy_sweep_T20_3_{in_flight}_in_flight"), || {
            (0..n).filter(|&i| medium.is_busy(NodeId(i))).count()
        });
    }

    h.finish();
}
