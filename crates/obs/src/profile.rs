//! The deterministic cost-attribution profiler.
//!
//! Where the tracer (see [`crate::tracer`]) answers *what happened when*,
//! the profiler answers *where the simulation spends its work*: how many
//! engine pops, timer-wheel cascades, medium adjudications, controller
//! convert calls and RNG draws a run costs, attributed to a **fixed
//! subsystem taxonomy** ([`CostPath`]). Every count is an exact integer
//! over simulated work — no wall clock, no sampling — so two runs of the
//! same seed produce byte-identical profiles and a CI gate can hold them
//! to **zero-tolerance** thresholds (wall-time profiling stays runner- and
//! bench-side, per lint rule D001).
//!
//! The API mirrors [`TraceHandle`](crate::tracer::TraceHandle): a
//! [`ProfHandle`] is closure-gated, so a disabled handle performs one
//! `Option` check and never touches the counter cells, never allocates,
//! and never draws randomness. An enabled handle increments cells of a
//! fixed-size array behind a `RefCell` — still allocation-free, which is
//! what lets hooks sit inside lint rule D007's no-allocation call graph
//! (`Engine::pop`, `Medium::begin`, `dispatch_batch`).
//!
//! Profiling must never perturb a run: the `profiling_never_perturbs_a_run`
//! property in `domino-core` pins `profiled ≡ unprofiled` (identical
//! `RunStats` and trace bytes) across schemes × fault schedules.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// One node of the fixed cost taxonomy.
///
/// Each variant names a subsystem cost center with a stable folded-stack
/// path (`group;node` with `;` separators, the flamegraph convention).
/// The enum is the schema of the profile report: variants are appended,
/// never renamed, so historical profiles stay diffable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostPath {
    /// Events popped off the engine's timer wheel.
    EnginePop,
    /// Timer-wheel insertions.
    WheelInsert,
    /// Timer-wheel cancellations.
    WheelCancel,
    /// Timer nodes re-filed during a wheel-level cascade.
    WheelCascade,
    /// Traffic-plane events (arrivals, TCP ticks, RTO timers).
    EvTraffic,
    /// Medium events (transmission ends).
    EvMedium,
    /// Controller events (batch compute, report/batch arrivals).
    EvController,
    /// Slot-execution events (slot starts, bursts, ACKs, watchdogs).
    EvSlot,
    /// ROP polling events.
    EvRop,
    /// Standby/failover events (heartbeats, checkpoints, probes).
    EvStandby,
    /// `Medium::begin` calls (transmissions put on the air).
    MediumBegin,
    /// `Medium::end_into` calls (transmissions leaving the air).
    MediumEnd,
    /// Data-frame reception adjudications.
    AdjData,
    /// MAC-ACK reception adjudications.
    AdjMacAck,
    /// Poll-frame reception adjudications.
    AdjPoll,
    /// ROP-report reception adjudications.
    AdjRopReport,
    /// Signature-burst detection adjudications.
    AdjSignature,
    /// Controller batch computations.
    CtrlCompute,
    /// Scheduler `schedule_batch` calls.
    CtrlSchedule,
    /// `Converter::convert` calls (schedule → per-AP actions).
    CtrlConvert,
    /// Slots produced by the converter.
    CtrlSlots,
    /// Per-AP actions produced by the converter.
    CtrlActions,
    /// Batch dispatches onto the wired backbone.
    CtrlDispatch,
    /// Per-AP messages sent during dispatch.
    CtrlDispatchMsgs,
    /// Signature bursts emitted.
    SigEmit,
    /// Targets addressed across all emitted bursts.
    SigTargets,
    /// Signature bursts detected by a targeted receiver.
    SigDetect,
    /// Signature bursts missed by a targeted receiver.
    SigMiss,
    /// ROP polls started.
    RopPoll,
    /// ROP queue reports received.
    RopReport,
    /// PHY-error stream RNG draws (medium adjudication).
    RngPhyError,
    /// Traffic stream RNG draws.
    RngTraffic,
    /// Scheduler stream RNG draws.
    RngScheduler,
    /// Signature stream RNG draws.
    RngSignature,
    /// ROP stream RNG draws.
    RngRop,
    /// Fault-plane stream RNG draws (all fault streams summed).
    RngFaults,
    /// Wired-backbone stream RNG draws (jitter, drop, spike, retry).
    RngWired,
    /// DCF backoff stream RNG draws.
    RngDcfBackoff,
}

impl CostPath {
    /// Number of cost centers (cells in a profile).
    pub const COUNT: usize = 38;

    /// Every cost center, in report order (taxonomy declaration order).
    pub const ALL: [CostPath; CostPath::COUNT] = [
        CostPath::EnginePop,
        CostPath::WheelInsert,
        CostPath::WheelCancel,
        CostPath::WheelCascade,
        CostPath::EvTraffic,
        CostPath::EvMedium,
        CostPath::EvController,
        CostPath::EvSlot,
        CostPath::EvRop,
        CostPath::EvStandby,
        CostPath::MediumBegin,
        CostPath::MediumEnd,
        CostPath::AdjData,
        CostPath::AdjMacAck,
        CostPath::AdjPoll,
        CostPath::AdjRopReport,
        CostPath::AdjSignature,
        CostPath::CtrlCompute,
        CostPath::CtrlSchedule,
        CostPath::CtrlConvert,
        CostPath::CtrlSlots,
        CostPath::CtrlActions,
        CostPath::CtrlDispatch,
        CostPath::CtrlDispatchMsgs,
        CostPath::SigEmit,
        CostPath::SigTargets,
        CostPath::SigDetect,
        CostPath::SigMiss,
        CostPath::RopPoll,
        CostPath::RopReport,
        CostPath::RngPhyError,
        CostPath::RngTraffic,
        CostPath::RngScheduler,
        CostPath::RngSignature,
        CostPath::RngRop,
        CostPath::RngFaults,
        CostPath::RngWired,
        CostPath::RngDcfBackoff,
    ];

    /// Stable folded-stack path (`;`-separated, flamegraph-compatible).
    pub fn name(self) -> &'static str {
        match self {
            CostPath::EnginePop => "engine;pop",
            CostPath::WheelInsert => "engine;wheel;insert",
            CostPath::WheelCancel => "engine;wheel;cancel",
            CostPath::WheelCascade => "engine;wheel;cascade",
            CostPath::EvTraffic => "events;traffic",
            CostPath::EvMedium => "events;medium",
            CostPath::EvController => "events;controller",
            CostPath::EvSlot => "events;slot",
            CostPath::EvRop => "events;rop",
            CostPath::EvStandby => "events;standby",
            CostPath::MediumBegin => "medium;begin",
            CostPath::MediumEnd => "medium;end",
            CostPath::AdjData => "medium;adjudicate;data",
            CostPath::AdjMacAck => "medium;adjudicate;mac_ack",
            CostPath::AdjPoll => "medium;adjudicate;poll",
            CostPath::AdjRopReport => "medium;adjudicate;rop_report",
            CostPath::AdjSignature => "medium;adjudicate;signature",
            CostPath::CtrlCompute => "controller;compute",
            CostPath::CtrlSchedule => "controller;schedule",
            CostPath::CtrlConvert => "controller;convert",
            CostPath::CtrlSlots => "controller;convert;slots",
            CostPath::CtrlActions => "controller;convert;actions",
            CostPath::CtrlDispatch => "controller;dispatch",
            CostPath::CtrlDispatchMsgs => "controller;dispatch;messages",
            CostPath::SigEmit => "signature;emit",
            CostPath::SigTargets => "signature;emit;targets",
            CostPath::SigDetect => "signature;detect",
            CostPath::SigMiss => "signature;miss",
            CostPath::RopPoll => "rop;poll",
            CostPath::RopReport => "rop;report",
            CostPath::RngPhyError => "rng;phy_error",
            CostPath::RngTraffic => "rng;traffic",
            CostPath::RngScheduler => "rng;scheduler",
            CostPath::RngSignature => "rng;signature",
            CostPath::RngRop => "rng;rop",
            CostPath::RngFaults => "rng;faults",
            CostPath::RngWired => "rng;wired",
            CostPath::RngDcfBackoff => "rng;dcf_backoff",
        }
    }

    /// Inverse of [`CostPath::name`] (used by the profile parser).
    pub fn from_name(name: &str) -> Option<CostPath> {
        CostPath::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// Is this one of the per-event-class buckets the attribution share
    /// is computed over?
    fn is_event_class(self) -> bool {
        matches!(
            self,
            CostPath::EvTraffic
                | CostPath::EvMedium
                | CostPath::EvController
                | CostPath::EvSlot
                | CostPath::EvRop
                | CostPath::EvStandby
        )
    }
}

/// The live counter cells a [`ProfHandle`] writes into.
///
/// Interior mutability mirrors `MemTracer`: the handle is shared `Rc`-style
/// between the engine, the medium and the scheme world, all on the run
/// thread. The cell array is fixed-size, so enabling profiling performs no
/// allocation after construction.
#[derive(Debug)]
pub struct CostProfiler {
    cells: RefCell<[u64; CostPath::COUNT]>,
}

impl Default for CostProfiler {
    fn default() -> CostProfiler {
        CostProfiler::new()
    }
}

impl CostProfiler {
    /// A profiler with all cells at zero.
    pub fn new() -> CostProfiler {
        CostProfiler { cells: RefCell::new([0; CostPath::COUNT]) }
    }

    /// Add `delta` to one cost center.
    #[inline]
    pub fn add(&self, path: CostPath, delta: u64) {
        let mut cells = self.cells.borrow_mut();
        cells[path as usize] = cells[path as usize].saturating_add(delta);
    }

    /// Snapshot the current counts.
    pub fn snapshot(&self) -> CostProfile {
        CostProfile { counts: *self.cells.borrow() }
    }
}

/// A closure-gated profiler handle (the `TraceHandle` of cost attribution).
///
/// `ProfHandle::off()` is the disabled handle every unprofiled run uses:
/// its [`add`](ProfHandle::add) is a single `Option` check, and
/// [`add_with`](ProfHandle::add_with) never evaluates its closure — the
/// cost of carrying a disabled handle through the hot path is one branch.
#[derive(Clone, Debug, Default)]
pub struct ProfHandle(Option<Rc<CostProfiler>>);

impl ProfHandle {
    /// The disabled handle: counts nothing, costs one branch per hook.
    pub fn off() -> ProfHandle {
        ProfHandle(None)
    }

    /// An enabled handle plus the profiler to read results from.
    pub fn collecting() -> (ProfHandle, Rc<CostProfiler>) {
        let prof = Rc::new(CostProfiler::new());
        (ProfHandle(Some(Rc::clone(&prof))), prof)
    }

    /// Is a profiler attached?
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Count one unit against `path`.
    #[inline]
    pub fn tick(&self, path: CostPath) {
        if let Some(prof) = &self.0 {
            prof.add(path, 1);
        }
    }

    /// Count `delta` units against `path`.
    #[inline]
    pub fn add(&self, path: CostPath, delta: u64) {
        if let Some(prof) = &self.0 {
            prof.add(path, delta);
        }
    }

    /// Count `delta()` units against `path`; the closure only runs when
    /// profiling is enabled, so computing an expensive delta is free on
    /// the unprofiled path.
    #[inline]
    pub fn add_with(&self, path: CostPath, delta: impl FnOnce() -> u64) {
        if let Some(prof) = &self.0 {
            prof.add(path, delta());
        }
    }
}

/// An immutable profile: the counts of one finished run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostProfile {
    counts: [u64; CostPath::COUNT],
}

impl Default for CostProfile {
    fn default() -> CostProfile {
        CostProfile { counts: [0; CostPath::COUNT] }
    }
}

impl CostProfile {
    /// The count recorded against one cost center.
    pub fn get(&self, path: CostPath) -> u64 {
        self.counts[path as usize]
    }

    /// Total engine pops (the denominator of event attribution).
    pub fn total_events(&self) -> u64 {
        self.get(CostPath::EnginePop)
    }

    /// Events attributed to a named per-class bucket.
    pub fn attributed_events(&self) -> u64 {
        CostPath::ALL
            .iter()
            .filter(|p| p.is_event_class())
            .map(|&p| self.get(p))
            .sum()
    }

    /// Attribution share in integer percent (100 when nothing ran).
    pub fn attributed_percent(&self) -> u64 {
        let total = self.total_events();
        if total == 0 {
            return 100;
        }
        self.attributed_events().saturating_mul(100) / total
    }

    /// Render the folded-stack form: one `path count` line per nonzero
    /// cost center, in taxonomy order. Feed straight to `flamegraph.pl`.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for p in CostPath::ALL {
            let n = self.get(p);
            if n > 0 {
                let _ = writeln!(out, "{} {}", p.name(), n);
            }
        }
        out
    }

    /// Render the human table: header, per-group sections, attribution
    /// footer. Byte-stable: pure function of the counts.
    pub fn render_table(&self) -> String {
        let mut out = String::from("# domino-profile v1\n");
        let _ = writeln!(out, "{:<30} {:>14}", "cost_center", "count");
        let mut group = "";
        for p in CostPath::ALL {
            let n = self.get(p);
            if n == 0 {
                continue;
            }
            let name = p.name();
            let head = name.split(';').next().unwrap_or(name);
            if head != group {
                let _ = writeln!(out, "-- {head}");
                group = head;
            }
            let _ = writeln!(out, "{:<30} {:>14}", name, n);
        }
        let _ = writeln!(
            out,
            "attributed_events {} / {} ({}%)",
            self.attributed_events(),
            self.total_events(),
            self.attributed_percent(),
        );
        out
    }

    /// Parse the folded-stack form back into a profile. Unknown paths are
    /// an error (they mean the reader is older than the writer).
    pub fn parse_folded(text: &str) -> Result<CostProfile, String> {
        let mut profile = CostProfile::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_ascii_whitespace();
            let (Some(name), Some(count)) = (parts.next(), parts.next()) else {
                return Err(format!("line {}: expected `path count`", i + 1));
            };
            let Some(path) = CostPath::from_name(name) else {
                return Err(format!("line {}: unknown cost center '{name}'", i + 1));
            };
            let Ok(n) = count.parse::<u64>() else {
                return Err(format!("line {}: bad count '{count}'", i + 1));
            };
            profile.counts[path as usize] = n;
        }
        Ok(profile)
    }

    /// Compare two profiles cost-center by cost-center.
    ///
    /// Every count is exact, so the regression threshold is **zero**: any
    /// delta is a finding. Returns one line per differing cost center
    /// (`path before -> after (+delta)`) — empty means identical.
    pub fn diff(&self, other: &CostProfile) -> Vec<String> {
        let mut lines = Vec::new();
        for p in CostPath::ALL {
            let (a, b) = (self.get(p), other.get(p));
            if a != b {
                let sign = if b >= a { "+" } else { "-" };
                lines.push(format!("{} {} -> {} ({sign}{})", p.name(), a, b, b.abs_diff(a)));
            }
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_never_evaluates_the_delta() {
        let handle = ProfHandle::off();
        assert!(!handle.is_on());
        handle.add_with(CostPath::EnginePop, || {
            panic!("closure must not run on a disabled handle")
        });
        handle.tick(CostPath::EnginePop);
    }

    #[test]
    fn collecting_handle_accumulates() {
        let (handle, prof) = ProfHandle::collecting();
        assert!(handle.is_on());
        handle.tick(CostPath::EnginePop);
        handle.add(CostPath::EnginePop, 4);
        handle.add_with(CostPath::WheelCascade, || 7);
        let clone = handle.clone();
        clone.tick(CostPath::EnginePop);
        let snap = prof.snapshot();
        assert_eq!(snap.get(CostPath::EnginePop), 6);
        assert_eq!(snap.get(CostPath::WheelCascade), 7);
        assert_eq!(snap.get(CostPath::SigEmit), 0);
    }

    #[test]
    fn taxonomy_names_are_distinct_and_total() {
        let mut names: Vec<&str> = CostPath::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), CostPath::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CostPath::COUNT, "duplicate folded path");
        for p in CostPath::ALL {
            assert_eq!(CostPath::from_name(p.name()), Some(p));
        }
        assert_eq!(CostPath::from_name("engine;nope"), None);
    }

    #[test]
    fn attribution_share_is_event_classes_over_pops() {
        let (handle, prof) = ProfHandle::collecting();
        handle.add(CostPath::EnginePop, 10);
        handle.add(CostPath::EvTraffic, 4);
        handle.add(CostPath::EvSlot, 5);
        // medium;begin is not an event class: must not inflate the share.
        handle.add(CostPath::MediumBegin, 100);
        let snap = prof.snapshot();
        assert_eq!(snap.attributed_events(), 9);
        assert_eq!(snap.attributed_percent(), 90);
        assert_eq!(CostProfile::default().attributed_percent(), 100);
    }

    #[test]
    fn folded_render_round_trips_and_table_is_stable() {
        let (handle, prof) = ProfHandle::collecting();
        handle.add(CostPath::EnginePop, 12);
        handle.add(CostPath::EvSlot, 12);
        handle.add(CostPath::CtrlConvert, 3);
        handle.add(CostPath::SigEmit, 2);
        let snap = prof.snapshot();
        let folded = snap.render_folded();
        assert!(folded.contains("engine;pop 12\n"));
        assert!(folded.contains("controller;convert 3\n"));
        assert!(!folded.contains("rng;"), "zero cells omitted:\n{folded}");
        let parsed = CostProfile::parse_folded(&folded).expect("round trip");
        assert_eq!(parsed, snap);
        assert_eq!(snap.render_table(), snap.render_table());
        assert!(snap.render_table().contains("attributed_events 12 / 12 (100%)"));
        assert!(CostProfile::parse_folded("bogus;path 3").is_err());
        assert!(CostProfile::parse_folded("engine;pop nan").is_err());
    }

    #[test]
    fn diff_reports_exact_deltas_only() {
        let (handle, prof) = ProfHandle::collecting();
        handle.add(CostPath::EnginePop, 5);
        let a = prof.snapshot();
        assert!(a.diff(&a).is_empty());
        handle.add(CostPath::EnginePop, 2);
        handle.add(CostPath::WheelCascade, 1);
        let b = prof.snapshot();
        let lines = a.diff(&b);
        assert_eq!(
            lines,
            vec!["engine;pop 5 -> 7 (+2)".to_string(), "engine;wheel;cascade 0 -> 1 (+1)".to_string()]
        );
        let back = b.diff(&a);
        assert_eq!(back[0], "engine;pop 7 -> 5 (-2)");
    }
}
