//! Unit-cost replays: each one times calls into a single layer's public
//! functions, built from the workload's own network and seed, so the
//! ledger can price the counts a profiled run reports.

use crate::{timed, Clock};
use domino_core::mac::domino::DominoConfig;
use domino_core::medium::{Frame, FrameBody, Medium, Reception};
use domino_core::obs::{CostPath, ProfHandle};
use domino_core::scheduler::{ConversionOutcome, Converter, RandScheduler};
use domino_core::sim::{Engine, SimTime};
use domino_core::topology::{ConflictGraph, LinkId, Network};
use domino_core::traffic::{FlowId, Packet, PacketId, PacketKind, DEFAULT_PACKET_BYTES};
use std::hint::black_box;

/// SplitMix64: the replays' own deterministic stream, seeded from the
/// workload seed (the simulator's RNG streams stay untouched).
#[derive(Clone, Debug)]
struct Mix(u64);

impl Mix {
    /// A stream for `seed`.
    fn new(seed: u64) -> Mix {
        Mix(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// Timer-delay band of an engine replay.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Timers {
    /// MAC-scale timers, 1 µs to 500 µs ahead (slots, SIFS, airtime).
    Near,
    /// Transport-scale timers, 100 ms to 1 s ahead (RTO re-arms).
    Far,
}

impl Timers {
    fn band_ns(self) -> (u64, u64) {
        match self {
            Timers::Near => (1_000, 500_000),
            Timers::Far => (100_000_000, 1_000_000_000),
        }
    }

    /// Timers in flight when `inserts_per_s` (per simulated second) are
    /// all armed in this band: Little's law over the band's mean delay.
    pub(crate) fn pending(self, inserts_per_s: f64) -> usize {
        let (lo, hi) = self.band_ns();
        (inserts_per_s * (lo + hi) as f64 / 2e9).max(16.0) as usize
    }
}

/// Unit cost of the engine in one timer band.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EngineCost {
    /// Host nanoseconds per `Engine::pop` plus the `Engine::schedule_at`
    /// that re-arms the popped timer.
    pub(crate) ns_per_pop: f64,
    /// Timer-wheel cascades per pop in the band.
    pub(crate) cascades_per_pop: f64,
}

/// Replay `pops` pop-and-re-arm steps with `pending` timers of one band
/// in flight, after a warm-up whose wheel cascades are counted.
pub(crate) fn engine_cost(seed: u64, pending: usize, timers: Timers, pops: u64) -> EngineCost {
    let (lo, hi) = timers.band_ns();
    let mut rng = Mix::new(seed);
    let mut engine: Engine<u64> = Engine::new();
    for i in 0..pending.max(1) as u64 {
        engine.schedule_at(SimTime::from_nanos(rng.range(lo, hi)), i);
    }
    let step = |engine: &mut Engine<u64>, rng: &mut Mix| {
        if let Some((t, payload)) = engine.pop() {
            engine.schedule_at(
                SimTime::from_nanos(t.as_nanos() + rng.range(lo, hi)),
                black_box(payload),
            );
        }
    };
    // Let the timer population settle before counting.
    for _ in 0..pending {
        step(&mut engine, &mut rng);
    }
    let lifetime_cascades = |engine: &mut Engine<u64>| {
        let (handle, profiler) = ProfHandle::collecting();
        engine.set_profiler(handle);
        engine.profile_wheel();
        engine.set_profiler(ProfHandle::off());
        profiler.snapshot().get(CostPath::WheelCascade)
    };
    let warm = (pops / 4).max(1);
    let before = lifetime_cascades(&mut engine);
    for _ in 0..warm {
        step(&mut engine, &mut rng);
    }
    let cascades = lifetime_cascades(&mut engine) - before;
    let clock = Clock::start();
    for _ in 0..pops {
        step(&mut engine, &mut rng);
    }
    EngineCost {
        ns_per_pop: clock.secs() * 1e9 / pops as f64,
        cascades_per_pop: cascades as f64 / warm as f64,
    }
}

fn data_frame(net: &Network, link: LinkId, serial: u64) -> Frame {
    Frame {
        src: net.link(link).sender,
        body: FrameBody::Data {
            packet: Packet {
                id: PacketId(serial),
                flow: FlowId(link.0),
                link,
                payload_bytes: DEFAULT_PACKET_BYTES,
                created_at: SimTime::ZERO,
                kind: PacketKind::Udp,
                seq: serial,
            },
            fake: false,
            client_burst: None,
        },
        bits: DEFAULT_PACKET_BYTES * 8,
    }
}

/// Nanoseconds per `Medium::begin` + `Medium::end_into` pair on `net`.
/// Each round puts a random maximal conflict-free set of links on the
/// air together, as a slot of either MAC does, then ends them all.
pub(crate) fn medium_ns_per_begin_end(
    net: &Network,
    graph: &ConflictGraph,
    seed: u64,
    pairs: u64,
) -> f64 {
    let mut rng = Mix::new(seed);
    let mut medium = Medium::new(net.clone(), seed);
    let links: Vec<LinkId> = net.links().iter().map(|l| l.id).collect();
    let rounds: Vec<Vec<LinkId>> = (0..64)
        .map(|_| {
            let mut order = links.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.range(0, i as u64 + 1) as usize);
            }
            let mut set: Vec<LinkId> = Vec::new();
            for l in order {
                let busy = set.iter().any(|&s| {
                    let (a, b) = (net.link(s), net.link(l));
                    a.sender == b.sender || a.sender == b.receiver || a.receiver == b.sender
                });
                if !busy && graph.compatible_with_all(l, &set) {
                    set.push(l);
                }
            }
            set
        })
        .collect();
    let mut out: Vec<Reception> = Vec::new();
    let mut txs = Vec::new();
    let (mut t, mut serial, mut done) = (0u64, 0u64, 0u64);
    let mut round = |medium: &mut Medium, idx: usize| -> u64 {
        t += 1_000_000;
        let set = &rounds[idx % rounds.len()];
        txs.clear();
        for &l in set {
            serial += 1;
            txs.push(medium.begin(SimTime::from_nanos(t), data_frame(net, l, serial)));
        }
        out.clear();
        for &tx in &txs {
            medium.end_into(tx, SimTime::from_nanos(t + 400_000), &mut out);
        }
        black_box(out.len());
        set.len() as u64
    };
    for i in 0..8 {
        round(&mut medium, i);
    }
    let clock = Clock::start();
    let mut i = 0;
    while done < pairs {
        done += round(&mut medium, i).max(1);
        i += 1;
    }
    clock.secs() * 1e9 / done as f64
}

/// Microseconds per controller round on `net` under DOMINO's default
/// configuration: one `RandScheduler::schedule_batch` followed by
/// `Converter::convert_into`, with every link backlogged.
pub(crate) fn scheduler_us_per_round(net: &Network, graph: &ConflictGraph, rounds: u64) -> f64 {
    let cfg = DominoConfig::default();
    let batch_slots = cfg.batch_slots;
    let mut sched = RandScheduler::new(net.links().len());
    let mut conv = Converter::new(cfg.converter);
    let aps = net.aps();
    let mut backlog = vec![0u32; net.links().len()];
    let mut outcome = ConversionOutcome::default();
    let mut round =
        |sched: &mut RandScheduler, conv: &mut Converter, outcome: &mut ConversionOutcome| {
            backlog.iter_mut().for_each(|b| *b = 10);
            let strict = sched.schedule_batch(graph, &mut backlog, batch_slots);
            conv.convert_into(net, graph, &strict, &aps, outcome);
            sched.recycle(strict);
            black_box(outcome.batch.slots.len());
        };
    for _ in 0..rounds / 4 {
        round(&mut sched, &mut conv, &mut outcome);
    }
    let clock = Clock::start();
    for _ in 0..rounds {
        round(&mut sched, &mut conv, &mut outcome);
    }
    clock.secs() * 1e6 / rounds as f64
}

/// Median of `reps` timings of `f`, in milliseconds.
pub(crate) fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1 * 1e3).collect();
    crate::median(&mut v)
}
