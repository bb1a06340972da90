//! Differential oracle harness for the timer-wheel engine.
//!
//! The wheel in `crates/sim/src/wheel.rs` replaced the original binary-heap
//! queue; the heap survives as [`ReferenceQueue`] (in `oracle/`, test-only),
//! whose `(time, seq)` min-order *is* the delivery specification. The
//! property here drives arbitrary interleaved schedule / same-instant burst
//! / cancel / pop / `pop_until` / peek / `fast_forward` / snapshot
//! save-and-restore sequences against both queues in lockstep and asserts
//! identical `(time, payload)` streams (payloads are schedule-ordinal, so a
//! stream match pins the seq tie-break too), plus identical clocks, pending
//! counts, and idle flags after every operation. Handles recorded before a
//! snapshot keep being cancelled afterwards, so a handle that named a
//! different event after a save or a restore, or a stale handle that came
//! back to life, shows up as a cancel verdict or stream mismatch.
//!
//! Also here: the liveness budget's two edges — a burst at the measured
//! per-window peak passes, a 350k same-instant spin is a `Livelock` — and
//! a long cancellation churn with bounded arena memory (the wheel
//! free-lists slots instead of accumulating tombstones).

mod oracle;

use domino_sim::engine::{DEFAULT_EVENT_BUDGET, DEFAULT_LIVENESS_WINDOW};
use domino_sim::{Engine, EventHandle, Livelock, SimDuration, SimTime, SnapReader, SnapWriter};
use domino_testkit::prop;
use oracle::{RefHandle, ReferenceQueue};

/// Delay shapes spanning every wheel level: same-instant, level-0
/// neighbours, the level-0/1 and 1/2 boundaries, protocol-scale (9 µs slot,
/// 1 ms window), and far-future (level 5+ cascades).
const DELAYS: [u64; 8] = [0, 1, 63, 64, 4_095, 9_000, 1_000_000, 1 << 34];

/// One lockstep run of the wheel engine against the heap oracle.
fn drive(g: &mut prop::Gen) {
    let mut wheel: Engine<u32> = Engine::new();
    let mut oracle: ReferenceQueue<u32> = ReferenceQueue::new();
    let mut handles: Vec<(EventHandle, RefHandle)> = Vec::new();
    let mut next_payload = 0u32;
    let ops = g.usize(1, 120);
    for _ in 0..ops {
        match g.usize(0, 10) {
            0..=3 => {
                // Schedule at a level-targeted offset from now.
                let base = *g.pick(&DELAYS);
                let jitter = g.u64(0, 64);
                let at = SimTime::from_nanos(wheel.now().as_nanos() + base + jitter);
                let p = next_payload;
                next_payload += 1;
                handles.push((wheel.schedule_at(at, p), oracle.schedule_at(at, p)));
            }
            4 => {
                // Same-instant burst: FIFO tie-break territory.
                let n = g.usize(1, 8);
                for _ in 0..n {
                    let p = next_payload;
                    next_payload += 1;
                    handles.push((wheel.schedule_now(p), oracle.schedule_now(p)));
                }
            }
            5 | 6 => {
                // Cancel an arbitrary recorded handle — possibly already
                // delivered, cancelled, or stale. The verdicts must agree.
                if !handles.is_empty() {
                    let i = g.usize(0, handles.len() - 1);
                    let (hw, ho) = handles[i];
                    assert_eq!(wheel.cancel(hw), oracle.cancel(ho), "cancel disagreement");
                }
            }
            7 => {
                assert_eq!(wheel.pop(), oracle.pop());
            }
            8 => {
                // Horizon-bounded pop, including past-horizon misses that
                // must leave both clocks untouched.
                let dt = g.u64(0, 2_000_000);
                let h = SimTime::from_nanos(wheel.now().as_nanos().saturating_add(dt));
                assert_eq!(wheel.pop_until(h), oracle.pop_until(h));
            }
            9 => {
                // Peek, then fast-forward somewhere legal (at most to the
                // next pending event), exercising delivery-free cascades.
                let pw = wheel.peek_time();
                assert_eq!(pw, oracle.peek_time());
                let dt = g.u64(0, 100_000);
                let mut target = wheel.now().as_nanos().saturating_add(dt);
                if let Some(p) = pw {
                    target = target.min(p.as_nanos());
                }
                wheel.fast_forward(SimTime::from_nanos(target));
                oracle.fast_forward(SimTime::from_nanos(target));
            }
            _ => {
                // Checkpoint: save, restore into a fresh engine, and go on
                // with either the saved engine or the restored one. The
                // restored engine re-saves to the same bytes, and a handle
                // recorded before the save, cancelled right away, removes
                // the same event as on the oracle or stays a no-op.
                let bytes = save(&mut wheel);
                let mut restored: Engine<u32> = Engine::new();
                restored.schedule_now(u32::MAX); // replaced by the restore
                restored
                    .snapshot_restore(&mut SnapReader::new(&bytes))
                    .expect("a saved engine restores");
                assert_eq!(save(&mut restored), bytes, "restore must re-save identically");
                if g.bool() {
                    wheel = restored;
                }
                if !handles.is_empty() {
                    let (hw, ho) = handles[g.usize(0, handles.len() - 1)];
                    assert_eq!(wheel.cancel(hw), oracle.cancel(ho), "cancel across a snapshot");
                }
            }
        }
        assert_eq!(wheel.now(), oracle.now());
        assert_eq!(wheel.pending(), oracle.pending());
        assert_eq!(wheel.is_idle(), oracle.is_idle());
    }
    // Drain both queues: the complete remaining streams must agree.
    loop {
        let a = wheel.pop();
        assert_eq!(a, oracle.pop());
        if a.is_none() {
            break;
        }
    }
    assert_eq!(wheel.events_processed(), oracle.events_processed());
    assert!(wheel.is_idle() && oracle.is_idle());
}

/// Snapshot bytes of `e` (saving relinks only the free list).
fn save(e: &mut Engine<u32>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    e.snapshot_save(&mut w);
    w.into_bytes()
}

#[test]
fn wheel_matches_heap_oracle() {
    prop::check("wheel matches (time, seq) heap order", drive);
}

/// Pinned choice sequences: the minimal interesting shapes, replayed
/// forever. (No shrunk counterexample has been found; if one ever is, its
/// `prop::replay` line from the failure message belongs here.)
#[test]
fn wheel_matches_heap_oracle_pins() {
    // Everything minimal: one op, all choices zero.
    prop::replay(&[], drive);
    // Far-future schedule (level-5 placement) then an unbounded pop: one
    // event cascading down the whole wheel.
    prop::replay(&[1, 0, 7, 0, 7], drive);
    // Maximal same-instant burst, then one pop; the drain checks the rest
    // of the FIFO order.
    prop::replay(&[1, 4, 7, 7], drive);
    // Schedule at now, cancel it, pop into the empty queue.
    prop::replay(&[2, 0, 0, 0, 5, 0, 7], drive);
    // Event 0 at 1 ns, event 1 now, a checkpoint, then a cancel of event
    // 0's pre-save handle, on the saved engine and on the restored one.
    // The save lists event 1 first; a save or restore that re-allocated
    // slots in delivery order would hand event 0's handle to event 1.
    prop::replay(&[2, 0, 0, 1, 4, 0, 10, 0, 0], drive);
    prop::replay(&[2, 0, 0, 1, 4, 0, 10, 1, 0], drive);
}

/// Drive a same-instant chain of `n` events at 5 ms under the default
/// liveness budget; returns the events delivered, or the livelock.
fn same_instant_chain(n: u32) -> Result<u32, Livelock> {
    let mut e: Engine<u32> = Engine::new();
    e.set_liveness(DEFAULT_EVENT_BUDGET, DEFAULT_LIVENESS_WINDOW);
    let t = SimTime::from_millis(5);
    e.schedule_at(t, 0);
    let mut delivered = 0u32;
    while let Some((at, k)) = e.pop_until_checked(SimTime::from_secs(1))? {
        assert_eq!(at, t, "the chain must stay at one instant");
        assert_eq!(k, delivered, "same-instant FIFO order broke");
        delivered += 1;
        if delivered < n {
            e.schedule_now(delivered);
        }
    }
    Ok(delivered)
}

/// The busiest legitimate window measured (840 events in 1 ms, a Fig 14
/// DOMINO cell) delivered as one same-instant burst clears the default
/// budget with no spurious `Livelock`.
#[test]
fn burst_at_measured_peak_no_spurious_livelock() {
    assert_eq!(same_instant_chain(840), Ok(840));
}

/// A 350k-event same-instant spin — the size of the stale-timer storm
/// the old 5M budget was raised to clear — is now reported as a livelock
/// as soon as the window exceeds the budget.
#[test]
fn same_instant_spin_350k_is_a_livelock() {
    let lv = same_instant_chain(350_000).expect_err("a 350k same-instant spin must trip");
    assert_eq!(lv.at, SimTime::from_millis(5));
    assert_eq!(lv.budget, DEFAULT_EVENT_BUDGET);
    assert_eq!(lv.events_in_window, DEFAULT_EVENT_BUDGET + 1);
}

/// Long-run schedule/cancel churn: 200k cycles must not grow the engine.
/// The retired heap kept every cancelled entry as a tombstone until its
/// timestamp drained; the wheel's free list caps the arena at the peak
/// number of *simultaneously* pending events — single digits here.
#[test]
fn cancellation_churn_memory_is_bounded() {
    let mut e: Engine<u64> = Engine::new();
    for round in 0..200_000u64 {
        // A far-future timer armed and immediately disarmed (the dominant
        // MAC pattern: ACK timeouts that almost always get cancelled).
        let h = e.schedule_at(SimTime::from_nanos(10_000_000 + round * 100), round);
        assert!(e.cancel(h));
        // Occasional real traffic so the clock moves while churning.
        if round % 1_000 == 0 {
            e.schedule_in(SimDuration::from_nanos(50), round);
            assert!(e.pop().is_some());
        }
    }
    assert!(e.is_idle());
    assert!(
        e.arena_slots() <= 8,
        "arena grew under churn: {} slots for ≤2 concurrent events",
        e.arena_slots()
    );
}
