//! # domino-runner
//!
//! The deterministic parallel experiment runner of the DOMINO
//! reproduction. Every table and figure of the paper's evaluation is
//! registered here as an [`Experiment`](registry::Experiment): a function
//! that, given a [`Scale`](scale::Scale) and a master seed, builds a
//! [`Plan`](plan::Plan) — a list of independent *shards* (one per sweep
//! point or trial block) plus a merge function that renders the shard
//! results into the experiment's `results/*.txt` text.
//!
//! Three properties make the runner's output trustworthy:
//!
//! * **Shard-local randomness.** Every shard that needs randomness derives
//!   its generator as `SimRng::derive(master_seed,
//!   shard_stream(experiment, shard))` (see
//!   [`domino_testkit::rng::shard_stream`]), so a shard's draws depend only
//!   on what it computes — never on which worker thread ran it.
//! * **Index-ordered merge.** The [work pool](pool) hands results back
//!   tagged with their shard index and the merge consumes them in index
//!   order, so the rendered text is **byte-identical for any `--jobs`
//!   count and any completion order**.
//! * **Byte-exact pinning.** `domino-run --check` regenerates every
//!   experiment in memory and byte-diffs it against the committed
//!   `results/` files, turning them into golden pins that CI enforces.
//!
//! The library is lint-clean under rules D001 and D006: wall time is
//! measured only through [`domino_testkit::bench::Stopwatch`], and nothing
//! here prints — rendered text and the `--json` manifest are returned as
//! strings for the `domino-run` binary (which may print) to emit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod plan;
pub mod pool;
pub mod profcmd;
pub mod registry;
pub mod scale;
pub mod simcmd;

use plan::RunDigest;
use registry::Experiment;
use scale::Scale;

/// One executed experiment: rendered output plus per-shard wall times.
#[derive(Debug)]
pub struct ExperimentRun {
    /// Experiment name (registry key, also the `src/bin` name it replaced).
    pub name: &'static str,
    /// File name under `results/` this experiment renders.
    pub output: &'static str,
    /// The rendered output text (what `results/<output>` should contain).
    pub text: String,
    /// Machine-readable run summary (livelocks, watchdog storms,
    /// per-fault-class counts) — deterministic, unlike the wall times.
    pub digest: RunDigest,
    /// Wall time of each shard in nanoseconds, in shard-index order.
    pub shard_ns: Vec<u64>,
    /// Wall time of plan construction in nanoseconds.
    pub build_ns: u64,
    /// Wall time of the pooled shard phase in nanoseconds.
    pub run_ns: u64,
    /// Wall time of the index-ordered merge in nanoseconds.
    pub merge_ns: u64,
    /// Wall time of the whole experiment (build + shards + merge).
    pub elapsed_ns: u64,
    /// Hierarchical wall breakdown rendered into the manifest's
    /// `phase_ms`: the three coarse phases plus `run/shards_cpu` (total
    /// CPU time inside shard closures — exceeds `run` when `jobs > 1`)
    /// and `run/pool` (pool dispatch/collection overhead; meaningful at
    /// `jobs = 1`, where the two shard figures must add up to `run`).
    pub phases: domino_testkit::bench::Phases,
}

/// Run one experiment at the given scale/seed across `jobs` workers.
///
/// The returned text is a pure function of `(experiment, scale, seed)` —
/// `jobs` affects wall time only. Per-phase wall times (build, run,
/// merge) are measured with the testkit bench clock, keeping rule D001's
/// wall-clock boundary at the runner.
pub fn run_experiment(exp: &Experiment, scale: Scale, seed: u64, jobs: usize) -> ExperimentRun {
    let watch = domino_testkit::bench::Stopwatch::start();
    let built = (exp.plan)(scale, seed);
    let (shards, finish) = built.into_parts();
    let build_ns = watch.elapsed_ns();
    let runs = pool::run_indexed(jobs, shards);
    let run_ns = watch.elapsed_ns() - build_ns;
    let mut shard_ns = Vec::with_capacity(runs.len());
    let mut data = Vec::with_capacity(runs.len());
    for run in runs {
        shard_ns.push(run.elapsed_ns);
        data.push(run.value);
    }
    let (text, digest) = finish(data);
    let elapsed_ns = watch.elapsed_ns();
    let merge_ns = elapsed_ns - build_ns - run_ns;
    let mut phases = domino_testkit::bench::Phases::new();
    phases.add_ns("build", build_ns);
    phases.add_ns("run", run_ns);
    let shards_cpu: u64 = shard_ns.iter().sum();
    phases.add_ns("run/shards_cpu", shards_cpu);
    if jobs <= 1 {
        // Serial runs decompose exactly: pool overhead is whatever the
        // run phase spent outside shard closures. Parallel runs overlap
        // shard CPU, so the residue would be meaningless there.
        phases.add_ns("run/pool", run_ns.saturating_sub(shards_cpu));
    }
    phases.add_ns("merge", merge_ns);
    ExperimentRun {
        name: exp.name,
        output: exp.output,
        text,
        digest,
        shard_ns,
        build_ns,
        run_ns,
        merge_ns,
        elapsed_ns,
        phases,
    }
}

/// How one experiment's regenerated text compares to the committed file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckStatus {
    /// Byte-identical to the committed file.
    Match,
    /// The committed file does not exist (or is unreadable).
    Missing,
    /// Differs; carries the first differing 1-based line with both sides.
    Differs {
        /// First line number (1-based) where the texts diverge.
        line: usize,
        /// That line as committed (empty if the committed file is shorter).
        expected: String,
        /// That line as regenerated (empty if the regenerated text is shorter).
        actual: String,
    },
}

/// Byte-compare a run's text against `<dir>/<output>`.
pub fn check_against(dir: &std::path::Path, run: &ExperimentRun) -> CheckStatus {
    let Ok(committed) = std::fs::read_to_string(dir.join(run.output)) else {
        return CheckStatus::Missing;
    };
    if committed == run.text {
        return CheckStatus::Match;
    }
    let mut want = committed.lines();
    let mut got = run.text.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (w, g) => {
                return CheckStatus::Differs {
                    line,
                    expected: w.unwrap_or_default().to_string(),
                    actual: g.unwrap_or_default().to_string(),
                };
            }
        }
    }
}

/// Render the `--json` manifest for a set of experiment runs.
///
/// Shard wall times come from the testkit bench clock
/// ([`domino_testkit::bench::Stopwatch`]); everything else in the manifest
/// is deterministic, so diffs between manifests isolate timing changes.
pub fn render_manifest(
    scale: Scale,
    seed: u64,
    jobs: usize,
    host_cpus: usize,
    runs: &[ExperimentRun],
    wall_ns: u64,
) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"tool\": \"domino-run\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.name());
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(out, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(out, "  \"wall_ms\": {:.1},", wall_ns as f64 / 1e6);
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, run) in runs.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", run.name);
        let _ = writeln!(out, "      \"output\": \"{}\",", run.output);
        let _ = writeln!(out, "      \"bytes\": {},", run.text.len());
        let _ = writeln!(out, "      \"wall_ms\": {:.1},", run.elapsed_ns as f64 / 1e6);
        let _ = writeln!(out, "      \"phase_ms\": {},", run.phases.render_json_ms());
        let _ = writeln!(out, "      \"livelocks\": {},", run.digest.livelocks);
        let _ = writeln!(out, "      \"watchdog_storms\": {},", run.digest.watchdog_storms);
        let classes: Vec<String> = run
            .digest
            .fault_classes
            .iter()
            .map(|(name, count)| format!("\"{name}\": {count}"))
            .collect();
        let _ = writeln!(out, "      \"fault_classes\": {{ {} }},", classes.join(", "));
        let shards: Vec<String> =
            run.shard_ns.iter().map(|ns| format!("{:.1}", *ns as f64 / 1e6)).collect();
        let _ = writeln!(out, "      \"shard_ms\": [{}]", shards.join(", "));
        let _ = writeln!(out, "    }}{}", if i + 1 == runs.len() { "" } else { "," });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the `--list` table: one `name  title` line per registered
/// experiment. All user-facing formatting lives here (rule D006: the
/// binary prints pre-rendered strings only).
pub fn render_list() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for e in &registry::REGISTRY {
        let _ = writeln!(out, "{:<28} {}", e.name, e.title);
    }
    out
}

/// Render the progress line `domino-run` prints after each experiment.
pub fn render_progress(run: &ExperimentRun, verdict: &str) -> String {
    format!(
        "{:<28} {:>9.1} ms  {:>3} shard{}  {verdict}",
        run.name,
        run.elapsed_ns as f64 / 1e6,
        run.shard_ns.len(),
        if run.shard_ns.len() == 1 { " " } else { "s" },
    )
}

/// Render the closing summary line of a `domino-run` invocation.
pub fn render_summary(count: usize, wall_ns: u64, jobs: usize) -> String {
    format!(
        "{} experiment{} in {:.1} s (jobs={})",
        count,
        if count == 1 { "" } else { "s" },
        wall_ns as f64 / 1e9,
        jobs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_run(text: &str) -> ExperimentRun {
        let mut phases = domino_testkit::bench::Phases::new();
        phases.add_ns("build", 100_000);
        phases.add_ns("run", 2_500_000);
        phases.add_ns("run/shards_cpu", 3_000_000);
        phases.add_ns("merge", 400_000);
        ExperimentRun {
            name: "dummy",
            output: "dummy.txt",
            text: text.to_string(),
            digest: RunDigest {
                livelocks: 0,
                watchdog_storms: 1,
                fault_classes: vec![("ap_crashes", 2)],
            },
            shard_ns: vec![1_000_000, 2_000_000],
            build_ns: 100_000,
            run_ns: 2_500_000,
            merge_ns: 400_000,
            elapsed_ns: 3_000_000,
            phases,
        }
    }

    #[test]
    fn check_reports_first_differing_line() {
        let dir = std::env::temp_dir().join("domino-runner-check-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("dummy.txt"), "a\nb\nc\n").unwrap();
        assert_eq!(check_against(&dir, &dummy_run("a\nb\nc\n")), CheckStatus::Match);
        assert_eq!(
            check_against(&dir, &dummy_run("a\nX\nc\n")),
            CheckStatus::Differs {
                line: 2,
                expected: "b".to_string(),
                actual: "X".to_string()
            }
        );
        // Same lines, different trailing bytes: still flagged (byte-exact).
        assert!(matches!(
            check_against(&dir, &dummy_run("a\nb\nc")),
            CheckStatus::Differs { .. }
        ));
        assert_eq!(
            check_against(&dir, &dummy_run("a\nb\nc\nd\n")),
            CheckStatus::Differs {
                line: 4,
                expected: String::new(),
                actual: "d".to_string()
            }
        );
    }

    #[test]
    fn manifest_shape() {
        let m = render_manifest(Scale::Quick, 1, 4, 8, &[dummy_run("hi\n")], 5_000_000);
        assert!(m.contains("\"scale\": \"quick\""));
        assert!(m.contains("\"jobs\": 4"));
        assert!(m.contains("\"name\": \"dummy\""));
        assert!(m.contains("\"shard_ms\": [1.0, 2.0]"));
        assert!(m.contains("\"livelocks\": 0"));
        assert!(m.contains("\"watchdog_storms\": 1"));
        assert!(m.contains("\"fault_classes\": { \"ap_crashes\": 2 }"));
        assert!(m.contains(
            "\"phase_ms\": { \"build\": 0.1, \"run\": 2.5, \"run/shards_cpu\": 3.0, \"merge\": 0.4 }"
        ));
    }

    #[test]
    fn render_helpers_are_print_ready() {
        let line = render_progress(&dummy_run("hi\n"), "check: match");
        assert!(line.starts_with("dummy"));
        assert!(line.contains("2 shards"));
        assert!(line.ends_with("check: match"));
        assert_eq!(render_summary(1, 2_000_000_000, 4), "1 experiment in 2.0 s (jobs=4)");
        assert_eq!(render_summary(3, 500_000_000, 2), "3 experiments in 0.5 s (jobs=2)");
        let list = render_list();
        assert!(list.lines().count() >= 15);
        assert!(list.contains("fig10_timeline"));
    }
}
