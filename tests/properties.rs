//! Property-based tests over the core data structures and protocol
//! invariants, spanning crates. Runs on the in-tree `domino-testkit`
//! property harness: each property draws its inputs from a seeded
//! [`prop::Gen`]; failures shrink to a minimal choice sequence that can be
//! pinned with `prop::replay` (see the regression tests at the bottom).

use domino::core::{
    scenarios, Checkpoints, FaultConfig, RunOptions, RunReport, Scheme, SimulationBuilder,
};
use domino::obs::{CostProfiler, MemTracer, ProfHandle, TraceHandle};
use domino::mac::FlowKind;
use domino::phy::gold::{m_sequence, GoldFamily};
use domino::phy::units::{Db, Dbm};
use domino::scheduler::{Converter, ConverterConfig, RandScheduler};
use domino::sim::{Engine, SimDuration, SimTime};
use domino::stats::{jain_index, Cdf};
use domino::topology::conflict::ConflictGraph;
use domino::topology::network::{make_node, Network, PhyParams};
use domino::topology::node::{NodeRole, Position};
use domino::topology::rss::RssMatrix;
use domino::topology::{LinkId, NodeId};
use domino_testkit::prop;
use domino_testkit::{prop_assert, prop_assert_eq};
use std::rc::Rc;

#[test]
fn engine_delivers_in_nondecreasing_time_order() {
    prop::check("engine_delivers_in_nondecreasing_time_order", |g| {
        let times = g.vec(1, 200, |g| g.u64(0, 999_999));
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = engine.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    });
}

#[test]
fn engine_same_time_events_are_fifo() {
    prop::check("engine_same_time_events_are_fifo", |g| {
        let n = g.usize(1, 99);
        let mut engine = Engine::new();
        let t = SimTime::from_micros(10);
        for i in 0..n {
            engine.schedule_at(t, i);
        }
        let mut expected = 0;
        while let Some((_, v)) = engine.pop() {
            prop_assert_eq!(v, expected);
            expected += 1;
        }
    });
}

#[test]
fn duration_arithmetic_is_consistent() {
    prop::check("duration_arithmetic_is_consistent", |g| {
        let a = g.u64(0, u32::MAX as u64 - 1);
        let b = g.u64(0, u32::MAX as u64 - 1);
        let (da, db) = (SimDuration::from_nanos(a), SimDuration::from_nanos(b));
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db).saturating_sub(db), da);
        let t = SimTime::from_nanos(a);
        prop_assert_eq!((t + db) - db, t);
    });
}

#[test]
fn dbm_power_sum_is_commutative_and_dominant() {
    prop::check("dbm_power_sum_is_commutative_and_dominant", |g| {
        let a = g.f64(-100.0, 0.0);
        let b = g.f64(-100.0, 0.0);
        let s1 = Dbm(a).power_sum(Dbm(b));
        let s2 = Dbm(b).power_sum(Dbm(a));
        prop_assert!((s1.value() - s2.value()).abs() < 1e-9);
        prop_assert!(s1.value() >= a.max(b) - 1e-9);
        prop_assert!(s1.value() <= a.max(b) + 3.02);
    });
}

#[test]
fn db_round_trips_through_linear() {
    prop::check("db_round_trips_through_linear", |g| {
        let x = g.f64(-80.0, 80.0);
        let db = Db(x);
        let back = Db::from_linear(db.to_linear());
        prop_assert!((back.value() - x).abs() < 1e-9);
    });
}

#[test]
fn jain_index_bounds() {
    prop::check("jain_index_bounds", |g| {
        let alloc = g.vec(1, 40, |g| g.f64(0.0, 100.0));
        let j = jain_index(&alloc);
        prop_assert!(j >= 1.0 / alloc.len() as f64 - 1e-9);
        prop_assert!(j <= 1.0 + 1e-9);
    });
}

#[test]
fn cdf_is_monotone() {
    prop::check("cdf_is_monotone", |g| {
        let samples = g.vec(1, 200, |g| g.f64(-1e6, 1e6));
        let cdf = Cdf::from_samples(samples);
        let pts = cdf.points();
        for w in pts.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-9);
    });
}

#[test]
fn m_sequences_are_balanced() {
    prop::check("m_sequences_are_balanced", |g| {
        // Every maximal-length sequence has |#1s - #0s| = 1.
        let degree = g.u64(3, 9) as u32;
        let taps: &[u32] = match degree {
            3 => &[3, 2],
            4 => &[4, 3],
            5 => &[5, 3],
            6 => &[6, 5],
            7 => &[7, 3],
            8 => &[8, 6, 5, 4],
            _ => &[9, 5],
        };
        let code = m_sequence(degree, taps);
        let sum: i32 = code.chips().iter().map(|&c| i32::from(c)).sum();
        prop_assert_eq!(sum.abs(), 1);
    });
}

/// 4 AP-client pairs wired up with a configurable cross-interference
/// pattern; shared by the scheduler and converter properties.
fn four_pair_network(cross: &[bool]) -> Network {
    let nodes: Vec<_> = (0..4u32)
        .flat_map(|i| {
            [
                make_node(2 * i, NodeRole::Ap, None, Position::default()),
                make_node(2 * i + 1, NodeRole::Client, Some(2 * i), Position::default()),
            ]
        })
        .collect();
    let mut rss = RssMatrix::disconnected(8);
    for i in 0..4u32 {
        rss.set_symmetric(NodeId(2 * i), NodeId(2 * i + 1), Dbm(-55.0));
    }
    for (k, &c) in cross.iter().enumerate() {
        if c {
            let i = k as u32;
            let j = (k as u32 + 1) % 4;
            rss.set_symmetric(NodeId(2 * i), NodeId(2 * j + 1), Dbm(-60.0));
        }
    }
    Network::new(nodes, rss, PhyParams::default())
}

#[test]
fn rand_scheduler_slots_always_independent() {
    prop::check("rand_scheduler_slots_always_independent", |g| {
        let seed_backlog = g.vec(8, 8, |g| g.u64(0, 4) as u32);
        let cross: Vec<bool> = (0..4).map(|_| g.bool()).collect();
        let net = four_pair_network(&cross);
        let graph = ConflictGraph::build_for_scheduling(&net);
        let mut sched = RandScheduler::new(net.links().len());
        let mut backlog = seed_backlog.clone();
        let strict = sched.schedule_batch(&graph, &mut backlog, 10);
        for slot in &strict.slots {
            prop_assert!(graph.is_independent(slot));
        }
        // Conservation: consumed packets equal scheduled entries.
        let consumed: u32 = seed_backlog.iter().zip(&backlog).map(|(a, b)| a - b).sum();
        let scheduled: usize = strict.slots.iter().map(Vec::len).sum();
        prop_assert_eq!(consumed as usize, scheduled);
    });
}

#[test]
fn converter_respects_caps_on_random_schedules() {
    prop::check("converter_respects_caps_on_random_schedules", |g| {
        let backlog = g.vec(8, 8, |g| g.u64(0, 3) as u32);
        let batch_slots = g.usize(1, 7);
        let nodes: Vec<_> = (0..4u32)
            .flat_map(|i| {
                [
                    make_node(2 * i, NodeRole::Ap, None, Position::default()),
                    make_node(2 * i + 1, NodeRole::Client, Some(2 * i), Position::default()),
                ]
            })
            .collect();
        let mut rss = RssMatrix::disconnected(8);
        for i in 0..4u32 {
            rss.set_symmetric(NodeId(2 * i), NodeId(2 * i + 1), Dbm(-55.0));
            for j in (i + 1)..4u32 {
                rss.set_symmetric(NodeId(2 * i), NodeId(2 * j), Dbm(-75.0));
            }
        }
        let net = Network::new(nodes, rss, PhyParams::default());
        let graph = ConflictGraph::build_for_scheduling(&net);
        let mut sched = RandScheduler::new(net.links().len());
        let mut conv = Converter::new(ConverterConfig::default());
        let mut b = backlog.clone();
        let strict = sched.schedule_batch(&graph, &mut b, batch_slots);
        let outcome = conv.convert(&net, &graph, &strict, &net.aps());
        for slot in &outcome.batch.slots {
            let links: Vec<LinkId> = slot.entries.iter().map(|e| e.link).collect();
            prop_assert!(graph.is_independent(&links));
            let mut inbound = std::collections::HashMap::new();
            for burst in &slot.bursts {
                prop_assert!(burst.targets.len() <= 4);
                for t in &burst.targets {
                    *inbound.entry(*t).or_insert(0usize) += 1;
                }
            }
            for (_, count) in inbound {
                prop_assert!(count <= 2);
            }
        }
    });
}

#[test]
fn gold_codes_cross_correlation_is_bounded() {
    prop::check("gold_codes_cross_correlation_is_bounded", |g| {
        let family = GoldFamily::degree7();
        let i = g.usize(0, 128);
        let j = g.usize(0, 128);
        let shift = g.usize(0, 126);
        if i != j {
            let c = family.code(i).periodic_correlation(family.code(j), shift);
            prop_assert!(c.abs() <= 17, "corr {} for ({}, {}) at {}", c, i, j, shift);
        }
    });
}

// ---------------------------------------------------------------------------
// Fault-plane properties: for ANY random fault schedule, every MAC's run
// terminates (the engine's liveness monitor stays clean), delivers no more
// than it was offered, keeps its fault counters consistent — and drawing the
// all-zero schedule reproduces the unfaulted seeded run byte-for-byte.
// ---------------------------------------------------------------------------

/// Draw an arbitrary fault schedule. Every knob shrinks toward 0 (= off),
/// so a failing case minimizes to the smallest dose that still breaks the
/// invariant. Ranges run up to roughly twice the `FaultConfig::chaos(1.0)`
/// profile.
fn arbitrary_fault_schedule(g: &mut prop::Gen) -> FaultConfig {
    FaultConfig {
        wired_loss: g.f64(0.0, 0.25),
        wired_spike: g.f64(0.0, 0.16),
        wired_spike_us: g.f64(0.0, 5_000.0),
        ap_crash: g.f64(0.0, 0.02),
        ap_downtime_us: g.f64(0.0, 30_000.0),
        compute_stall: g.f64(0.0, 0.16),
        compute_stall_us: g.f64(0.0, 3_000.0),
        rop_stale: g.f64(0.0, 0.12),
        fade: g.f64(0.0, 0.08),
        fade_len: g.u64(0, 12) as u32,
        rop_corrupt: g.f64(0.0, 0.20),
        churn_rate_hz: g.f64(0.0, 3.0),
        churn_downtime_us: g.f64(0.0, 50_000.0),
        ctrl_crash: g.f64(0.0, 0.08),
        ctrl_downtime_us: g.f64(0.0, 40_000.0),
        // Standby topology knobs (checkpoint/heartbeat cadence, detector
        // threshold) keep their defaults: the failover properties below
        // draw them; `standby: false` is the shrinker's floor.
        ..FaultConfig::off()
    }
}

/// The invariants every faulted run must satisfy.
fn assert_run_invariants(report: &RunReport, duration_s: f64) {
    let s = &report.stats;
    let label = report.scheme.label();
    // Termination: the run ended without tripping the liveness monitor.
    prop_assert_eq!(s.faults.livelocks, 0, "{} livelocked", label);
    prop_assert!(s.events > 0, "{} processed no events", label);
    prop_assert!(s.duration_s == duration_s);
    // Counter consistency across the fault ledger.
    prop_assert!(
        s.faults.crash_recoveries <= s.faults.ap_crashes,
        "{}: more recoveries than crashes: {:?}",
        label,
        s.faults
    );
    prop_assert!(
        s.faults.fades_opened <= s.faults.detections_suppressed,
        "{}: fade opened without suppressing its detection: {:?}",
        label,
        s.faults
    );
    prop_assert!(
        s.domino.watchdog_storms * 8 <= s.domino.watchdog_restarts,
        "{}: storms outnumber restarts: {:?}",
        label,
        s.domino
    );
}

#[test]
fn any_fault_schedule_terminates_and_conserves() {
    let duration_s = 0.1;
    let (down_bps, up_bps) = (4e6, 1e6);
    // The unfaulted pin, computed once per scheme: an all-off plane must
    // reproduce exactly these stats in every case below.
    let baseline = |scheme: Scheme| {
        SimulationBuilder::new(scenarios::fig1())
            .udp(down_bps, up_bps)
            .duration_s(duration_s)
            .seed(7)
            .run(scheme)
    };
    let pins: Vec<RunReport> = Scheme::ALL.iter().map(|&s| baseline(s)).collect();

    prop::check_with(
        prop::Config { cases: 6, seed: 0xFA01, max_shrink_replays: 48 },
        "any_fault_schedule_terminates_and_conserves",
        |g| {
            let faults = arbitrary_fault_schedule(g);
            let seed = g.u64(1, 1 << 20);
            let b = SimulationBuilder::new(scenarios::fig1())
                .udp(down_bps, up_bps)
                .duration_s(duration_s)
                .seed(seed);
            for (&scheme, pin) in Scheme::ALL.iter().zip(&pins) {
                let r = b.clone().faults(faults.clone()).run(scheme);
                assert_run_invariants(&r, duration_s);
                // delivered ≤ offered, per flow link.
                let slack = (r.stats.delivered_bits.len() * 512 * 8) as f64;
                for f in
                    &domino::mac::Workload::udp_updown(b.network_ref(), down_bps, up_bps).flows
                {
                    let FlowKind::Udp { rate_bps } = &f.kind else { continue };
                    let delivered = r.stats.delivered_bits[f.link.index()] as f64;
                    prop_assert!(
                        delivered <= rate_bps * duration_s + slack,
                        "{}: link {:?} delivered {} > offered {}",
                        scheme.label(),
                        f.link,
                        delivered,
                        rate_bps * duration_s
                    );
                }
                // All-off reproduces the pinned seeded stats byte-for-byte
                // regardless of what the faulted run just did.
                let off = b.clone().seed(7).faults(FaultConfig::off()).run(scheme);
                prop_assert_eq!(&off.stats.delivered_bits, &pin.stats.delivered_bits);
                prop_assert_eq!(off.stats.events, pin.stats.events);
                prop_assert_eq!(off.stats.faults, Default::default());
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Run options: tracing, profiling, checkpointing and restoring are
// observation or state transfer only, in every combination.
// ---------------------------------------------------------------------------

/// The `Eq`-comparable face of a run. (`duration_s` and `delays` carry
/// floats/summaries without `Eq`; the golden pins in tests/golden.rs
/// cover those through the rendered text.)
#[allow(clippy::type_complexity)]
fn eq_fields(
    r: &RunReport,
) -> (
    Vec<u64>,
    u64,
    u64,
    u64,
    u64,
    u64,
    Vec<domino::mac::workload::SlotStartRecord>,
    domino::mac::workload::DominoCounters,
    domino::core::FaultStats,
) {
    (
        r.stats.delivered_bits.clone(),
        r.stats.drops,
        r.stats.retries,
        r.stats.ack_timeouts,
        r.stats.events,
        r.stats.tcp_retransmissions,
        r.stats.slot_starts.clone(),
        r.stats.domino,
        r.stats.faults,
    )
}

/// A trace handle: off, or on with its sink.
fn tracer(on: bool) -> (TraceHandle, Option<Rc<MemTracer>>) {
    if on {
        let (handle, sink) = TraceHandle::mem();
        (handle, Some(sink))
    } else {
        (TraceHandle::off(), None)
    }
}

/// A profiler handle: off, or collecting.
fn profiler(on: bool) -> (ProfHandle, Option<Rc<CostProfiler>>) {
    if on {
        let (handle, prof) = ProfHandle::collecting();
        (handle, Some(prof))
    } else {
        (ProfHandle::off(), None)
    }
}

/// Run `scheme` under every combination of [`RunOptions`] — tracer on/off
/// × profiler on/off × no boundary or one at `t` — and then restore the
/// checkpoint taken at `t` under tracer on/off × profiler on/off × no
/// boundary or the same one again. Every run must report exactly the
/// plain run's stats; every traced run must emit exactly the plain
/// traced run's records (a restored run: those from `t` on); every
/// checkpoint taken at `t` must be byte-identical.
fn check_option_combinations(b: &SimulationBuilder, scheme: Scheme, t: SimTime) {
    let label = scheme.label();
    let plain = b.run(scheme);
    let (handle, sink) = TraceHandle::mem();
    let traced = b.run_profiled(scheme, handle, ProfHandle::off());
    prop_assert_eq!(eq_fields(&plain), eq_fields(&traced), "{}: tracing perturbed the run", label);
    let trace = sink.take();
    prop_assert!(!trace.is_empty(), "{}: empty trace", label);
    let suffix: Vec<_> = trace.iter().filter(|r| r.t_ns >= t.as_nanos()).cloned().collect();

    let mut reference: Option<Vec<u8>> = None;
    for restore in [false, true] {
        for (on_trace, on_prof, on_ckpt) in (0..8).map(|i| (i & 1 == 1, i & 2 == 2, i & 4 == 4)) {
            let what = format!(
                "{label}: trace={on_trace} prof={on_prof} checkpoint={on_ckpt} restore={restore}"
            );
            let (tracer, sink) = tracer(on_trace);
            let (profiler, prof) = profiler(on_prof);
            let at = [t];
            let mut snaps: Vec<(SimTime, Vec<u8>)> = Vec::new();
            let mut keep = |bt: SimTime, bytes: Vec<u8>| snaps.push((bt, bytes));
            let mut opts = RunOptions {
                tracer,
                profiler,
                checkpoints: on_ckpt.then_some(Checkpoints { at: &at, sink: &mut keep }),
                restore: if restore { reference.as_deref() } else { None },
            };
            let report = b
                .run_with(scheme, &mut opts)
                .unwrap_or_else(|e| panic!("{what}: run failed: {e:?}"));
            drop(opts);
            prop_assert_eq!(eq_fields(&plain), eq_fields(&report), "{}: run diverged", what);
            if let Some(sink) = sink {
                let expected = if restore { &suffix } else { &trace };
                prop_assert!(&sink.take() == expected, "{}: trace diverged", what);
            }
            if let Some(prof) = prof {
                let profile = prof.snapshot();
                prop_assert_eq!(profile.attributed_percent(), 100, "{}: unattributed events", what);
                if !restore {
                    prop_assert_eq!(profile.total_events(), plain.stats.events, "{}: pops", what);
                }
            }
            if on_ckpt {
                prop_assert_eq!(snaps.len(), 1, "{}: missing checkpoint", what);
                prop_assert_eq!(snaps[0].0, t, "{}: checkpoint instant", what);
                let bytes = snaps.pop().map(|(_, bytes)| bytes);
                match &reference {
                    Some(r) => prop_assert!(bytes.as_ref() == Some(r), "{}: checkpoint bytes", what),
                    None => reference = bytes,
                }
            }
        }
    }
}

#[test]
fn tracing_never_perturbs_a_run() {
    // The observability plane's core contract, exercised under
    // adversarial fault schedules: attaching a trace sink is observation
    // only — every `Eq`-comparable field of `RunStats` is identical with
    // and without the sink, for all four schemes — and the captured
    // trace survives a JSONL round trip losslessly.
    prop::check_with(
        prop::Config { cases: 4, seed: 0x0B5E, max_shrink_replays: 32 },
        "tracing_never_perturbs_a_run",
        |g| {
            let faults = arbitrary_fault_schedule(g);
            let seed = g.u64(1, 1 << 20);
            let b = SimulationBuilder::new(scenarios::fig1())
                .udp(4e6, 1e6)
                .duration_s(0.1)
                .seed(seed)
                .faults(faults);
            for &scheme in &Scheme::ALL {
                let plain = b.run(scheme);
                let (handle, sink) = TraceHandle::mem();
                let traced = b.run_profiled(scheme, handle, ProfHandle::off());
                prop_assert_eq!(
                    eq_fields(&plain),
                    eq_fields(&traced),
                    "{}: tracing perturbed the run",
                    scheme.label()
                );
                let records = sink.take();
                prop_assert!(!records.is_empty(), "{}: empty trace", scheme.label());
                let meta = domino::obs::jsonl::TraceMeta {
                    experiment: "properties".to_string(),
                    scheme: scheme.label().to_string(),
                    seed,
                    scale: "quick".to_string(),
                };
                let text = domino::obs::jsonl::write_trace(&meta, &records);
                let (meta2, records2) = domino::obs::jsonl::parse_trace(&text)
                    .expect("a written trace must parse back");
                prop_assert_eq!(meta2, meta, "{}: meta round trip", scheme.label());
                prop_assert_eq!(records2, records, "{}: record round trip", scheme.label());
            }
        },
    );
}

#[test]
fn snapshot_restore_reproduces_any_run() {
    // For ANY scheme, fault schedule and snapshot time: (1) taking a
    // checkpoint perturbs neither the run stats nor the trace bytes, and
    // (2) restoring that checkpoint in a fresh world and driving to the
    // horizon reproduces the uninterrupted run exactly.
    prop::check_with(
        prop::Config { cases: 4, seed: 0x5A9D, max_shrink_replays: 24 },
        "snapshot_restore_reproduces_any_run",
        |g| {
            let faults = arbitrary_fault_schedule(g);
            let seed = g.u64(1, 1 << 20);
            // Snapshot boundary: 10%–90% of the 0.1 s horizon.
            let t = SimTime::from_nanos(g.u64(1, 9) * 10_000_000);
            let b = SimulationBuilder::new(scenarios::fig1())
                .udp(4e6, 1e6)
                .duration_s(0.1)
                .seed(seed)
                .faults(faults);
            for &scheme in &Scheme::ALL {
                let label = scheme.label();
                let (plain_handle, plain_sink) = TraceHandle::mem();
                let plain = b.run_profiled(scheme, plain_handle, ProfHandle::off());
                let (ckpt_handle, ckpt_sink) = TraceHandle::mem();
                let at = [t];
                let mut snaps: Vec<(SimTime, Vec<u8>)> = Vec::new();
                let mut keep = |bt: SimTime, bytes: Vec<u8>| snaps.push((bt, bytes));
                let mut opts = RunOptions {
                    tracer: ckpt_handle,
                    profiler: ProfHandle::off(),
                    checkpoints: Some(Checkpoints { at: &at, sink: &mut keep }),
                    restore: None,
                };
                let ckpt = b
                    .run_with(scheme, &mut opts)
                    .unwrap_or_else(|e| panic!("{label}: checkpointed run failed: {e:?}"));
                drop(opts);
                prop_assert_eq!(
                    eq_fields(&plain),
                    eq_fields(&ckpt),
                    "{}: checkpointing perturbed the run",
                    label
                );
                prop_assert!(
                    plain_sink.take() == ckpt_sink.take(),
                    "{}: checkpointing perturbed the trace",
                    label
                );
                prop_assert_eq!(snaps.len(), 1, "{}: missing checkpoint", label);
                let mut opts = RunOptions {
                    tracer: TraceHandle::off(),
                    profiler: ProfHandle::off(),
                    checkpoints: None,
                    restore: Some(&snaps[0].1),
                };
                let restored = b
                    .run_with(scheme, &mut opts)
                    .unwrap_or_else(|e| panic!("{label}: resume failed: {e:?}"));
                prop_assert_eq!(
                    eq_fields(&plain),
                    eq_fields(&restored),
                    "{}: restored run diverged",
                    label
                );
            }
        },
    );
}

#[test]
fn run_options_never_perturb_a_run() {
    // For ANY scheme, traffic kind, fault schedule and snapshot time,
    // every combination of run options reproduces the plain run.
    prop::check_with(
        prop::Config { cases: 4, seed: 0x0B5E, max_shrink_replays: 24 },
        "run_options_never_perturb_a_run",
        |g| {
            let mut faults = arbitrary_fault_schedule(g);
            faults.standby = g.bool();
            let seed = g.u64(1, 1 << 20);
            // Snapshot boundary: 10%–90% of the 0.1 s horizon.
            let t = SimTime::from_nanos(g.u64(1, 9) * 10_000_000);
            let b = SimulationBuilder::new(scenarios::fig1()).duration_s(0.1).seed(seed);
            let b = if g.bool() { b.tcp(4e6, 1e6) } else { b.udp(4e6, 1e6) }.faults(faults);
            for &scheme in &Scheme::ALL {
                check_option_combinations(&b, scheme, t);
            }
        },
    );
}

#[test]
fn run_options_combine_under_failover() {
    // A pinned schedule that is sure to crash the controller before the
    // boundary, with the warm standby armed, on top of chaos: the
    // snapshot must carry the fault plane, the standby's buffered delta
    // and mid-promotion controller state byte for byte.
    let faults = FaultConfig {
        ctrl_crash: 0.05,
        ctrl_downtime_us: 20_000.0,
        standby: true,
        ..FaultConfig::chaos(0.5)
    };
    let b = SimulationBuilder::new(scenarios::fig7()).udp(8e6, 8e6).duration_s(0.4).seed(13);
    let b = b.faults(faults);
    for scheme in [Scheme::Centaur, Scheme::Domino] {
        let plain = b.run(scheme);
        assert!(plain.stats.faults.ctrl_crashes > 0, "{scheme:?}: no crash drawn");
        assert!(plain.stats.faults.standby_promotions > 0, "{scheme:?}: no promotion");
        check_option_combinations(&b, scheme, SimTime::from_millis(200));
    }
}

/// The JSONL export of a captured trace survives a round trip losslessly.
#[test]
fn traces_round_trip_through_jsonl() {
    let b = SimulationBuilder::new(scenarios::fig1())
        .udp(4e6, 1e6)
        .duration_s(0.1)
        .seed(7)
        .faults(FaultConfig::chaos(0.5));
    for &scheme in &Scheme::ALL {
        let (handle, sink) = TraceHandle::mem();
        let _ = b.run_profiled(scheme, handle, ProfHandle::off());
        let records = sink.take();
        assert!(!records.is_empty(), "{scheme:?}: empty trace");
        let meta = domino::obs::jsonl::TraceMeta {
            experiment: "properties".to_string(),
            scheme: scheme.label().to_string(),
            seed: 7,
            scale: "quick".to_string(),
        };
        let text = domino::obs::jsonl::write_trace(&meta, &records);
        let (meta2, records2) =
            domino::obs::jsonl::parse_trace(&text).expect("a written trace must parse back");
        assert_eq!(meta2, meta, "{scheme:?}: meta round trip");
        assert_eq!(records2, records, "{scheme:?}: record round trip");
    }
}

#[test]
fn failover_under_chaos_terminates_and_conserves() {
    // Controller crashes at arbitrary rates with the warm standby armed,
    // on top of an arbitrary chaos schedule: every scheme still
    // terminates cleanly, delivers no more than offered, and the standby
    // ledger stays consistent (promotions never exceed crashes; at most
    // the final in-flight failover is outstanding at the horizon).
    let duration_s = 0.1;
    let (down_bps, up_bps) = (4e6, 1e6);
    prop::check_with(
        prop::Config { cases: 5, seed: 0xFA17, max_shrink_replays: 32 },
        "failover_under_chaos_terminates_and_conserves",
        |g| {
            let mut faults = arbitrary_fault_schedule(g);
            faults.ctrl_crash = g.f64(0.0, 0.3);
            faults.ctrl_downtime_us = g.f64(0.0, 60_000.0);
            faults.standby = true;
            faults.standby_checkpoint_us = 500.0 + g.f64(0.0, 20_000.0);
            faults.standby_heartbeat_us = 250.0 + g.f64(0.0, 2_000.0);
            faults.standby_missed_k = 1 + g.u64(0, 4) as u32;
            let seed = g.u64(1, 1 << 20);
            let b = SimulationBuilder::new(scenarios::fig1())
                .udp(down_bps, up_bps)
                .duration_s(duration_s)
                .seed(seed)
                .faults(faults);
            for &scheme in &Scheme::ALL {
                let r = b.run(scheme);
                assert_run_invariants(&r, duration_s);
                let f = &r.stats.faults;
                prop_assert!(
                    f.standby_promotions <= f.ctrl_crashes,
                    "{}: more promotions than crashes: {:?}",
                    scheme.label(),
                    f
                );
                prop_assert!(
                    f.ctrl_crashes - f.standby_promotions <= 1,
                    "{}: stranded failovers: {:?}",
                    scheme.label(),
                    f
                );
                let slack = (r.stats.delivered_bits.len() * 512 * 8) as f64;
                for fl in
                    &domino::mac::Workload::udp_updown(b.network_ref(), down_bps, up_bps).flows
                {
                    let FlowKind::Udp { rate_bps } = &fl.kind else { continue };
                    let delivered = r.stats.delivered_bits[fl.link.index()] as f64;
                    prop_assert!(
                        delivered <= rate_bps * duration_s + slack,
                        "{}: link {:?} delivered {} > offered {}",
                        scheme.label(),
                        fl.link,
                        delivered,
                        rate_bps * duration_s
                    );
                }
            }
        },
    );
}

#[test]
fn regression_all_zero_fault_schedule_is_off() {
    // The shrinker's floor for `arbitrary_fault_schedule`: every choice 0
    // must decode to the all-off config (so minimal counterexamples read
    // as "no faults needed").
    prop::replay(&[], |g| {
        let cfg = arbitrary_fault_schedule(g);
        prop_assert!(!cfg.enabled());
        prop_assert_eq!(cfg, FaultConfig::off());
    });
}

// ---------------------------------------------------------------------------
// Regression replays: pinned choice sequences (the shrinker's floor and
// boundary cases) that must keep passing verbatim. `prop::replay` pads
// missing choices with zeros, so `&[]` is the all-minimal input of each
// property — exactly what a fully successful shrink would converge to if the
// property ever regressed there.
// ---------------------------------------------------------------------------

#[test]
fn regression_minimal_inputs_hold() {
    // Single event at t=0 delivered once, in order.
    prop::replay(&[], |g| {
        let times = g.vec(1, 200, |g| g.u64(0, 999_999));
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(t), i);
        }
        prop_assert_eq!(engine.pop(), Some((SimTime::ZERO, 0)));
        prop_assert_eq!(engine.pop(), None);
    });
    // Zero-length durations: identities must hold at the origin.
    prop::replay(&[], |g| {
        let a = g.u64(0, u32::MAX as u64 - 1);
        let da = SimDuration::from_nanos(a);
        prop_assert_eq!(da + da, da);
        prop_assert_eq!((SimTime::from_nanos(a) + da) - da, SimTime::ZERO);
    });
}

#[test]
fn regression_duration_arithmetic_upper_boundary() {
    // Both summands at the top of the sampled range — the carry path the
    // random cases reach only with probability ~2^-64.
    prop::replay(&[u32::MAX as u64 - 1, u32::MAX as u64 - 1], |g| {
        let a = g.u64(0, u32::MAX as u64 - 1);
        let b = g.u64(0, u32::MAX as u64 - 1);
        let (da, db) = (SimDuration::from_nanos(a), SimDuration::from_nanos(b));
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db).saturating_sub(db), da);
    });
}

#[test]
fn regression_scheduler_fully_interfering_backlog() {
    // All four cross-interference flags set with a saturated backlog: the
    // densest conflict graph the property can generate.
    prop::replay(&[0, 4, 4, 4, 4, 4, 4, 4, 4, 1, 1, 1, 1], |g| {
        let seed_backlog = g.vec(8, 8, |g| g.u64(0, 4) as u32);
        let cross: Vec<bool> = (0..4).map(|_| g.bool()).collect();
        prop_assert_eq!(&seed_backlog, &vec![4u32; 8]);
        prop_assert_eq!(&cross, &vec![true; 4]);
        let net = four_pair_network(&cross);
        let graph = ConflictGraph::build_for_scheduling(&net);
        let mut sched = RandScheduler::new(net.links().len());
        let mut backlog = seed_backlog.clone();
        let strict = sched.schedule_batch(&graph, &mut backlog, 10);
        for slot in &strict.slots {
            prop_assert!(graph.is_independent(slot));
        }
        let consumed: u32 = seed_backlog.iter().zip(&backlog).map(|(a, b)| a - b).sum();
        let scheduled: usize = strict.slots.iter().map(Vec::len).sum();
        prop_assert_eq!(consumed as usize, scheduled);
    });
}
