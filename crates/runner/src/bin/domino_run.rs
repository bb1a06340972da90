//! `domino-run` — regenerate and verify the paper's evaluation outputs.
//!
//! ```text
//! domino-run [all | <experiment>...] [flags]
//!
//!   --full         paper scale (50 s simulations, 1000-trial sweeps)
//!   --seed <n>     master seed (default 1)
//!   --jobs <n>     worker threads (default: all hardware threads)
//!   --check        byte-diff regenerated output against results/ instead
//!                  of writing; exit 1 on any mismatch
//!   --json <path>  write a JSON manifest with per-shard wall times
//!   --trace <dir>  also write each selected experiment's designated
//!                  JSONL event trace to <dir>/<name>.jsonl (experiments
//!                  without one are skipped); analyze with `domino-trace`
//!   --out <dir>    results directory (default: ./results, falling back
//!                  to the directory committed next to the workspace)
//!   --list         list registered experiments and exit
//!
//! domino-run sim --scheme <s> [--scenario <n>] [--seed <n>] [--duration-s <s>]
//!                [--udp <down>,<up>] [--chaos <x>] [--standby] [--ctrl-crash <p>]
//!                [--checkpoint-every-us <n> | --checkpoint-at-us <t>]...
//!                [--state-dir <dir>] [--restore <file>]
//!
//!   One crash-resumable run. Checkpoints are sealed, digest-verified
//!   snapshot containers written under --state-dir; --restore finishes a
//!   run from one in a fresh process. The stats block on stdout is
//!   byte-identical whether or not the run was interrupted.
//! ```
//!
//! Output text is a pure function of `(experiment, scale, seed)`; the
//! jobs count and shard completion order never change a byte. Tracing is
//! observation-only: `--trace` never changes the rendered results.

use domino_runner::registry::{self, Experiment, REGISTRY};
use domino_runner::scale::Scale;
use domino_runner::simcmd;
use domino_runner::{
    check_against, pool, render_list, render_manifest, render_progress, render_summary,
    run_experiment, CheckStatus,
};
use domino_testkit::bench::Stopwatch;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    names: Vec<String>,
    scale: Scale,
    seed: u64,
    jobs: usize,
    check: bool,
    json: Option<PathBuf>,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
    list: bool,
}

const USAGE: &str = "usage: domino-run [all | <experiment>...] \
[--full] [--seed <n>] [--jobs <n>] [--check] [--json <path>] [--trace <dir>] \
[--out <dir>] [--list]\n\
       domino-run sim --scheme <s> [--checkpoint-every-us <n>] [--restore <file>] [...]";

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        names: Vec::new(),
        scale: Scale::Quick,
        seed: registry::DEFAULT_SEED,
        jobs: pool::default_jobs(),
        check: false,
        json: None,
        trace: None,
        out: None,
        list: false,
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => cli.scale = Scale::Full,
            "--seed" => {
                cli.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--jobs" => {
                cli.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--jobs needs a positive integer")?;
            }
            "--check" => cli.check = true,
            "--json" => cli.json = Some(it.next().ok_or("--json needs a path")?.into()),
            "--trace" => cli.trace = Some(it.next().ok_or("--trace needs a directory")?.into()),
            "--out" => cli.out = Some(it.next().ok_or("--out needs a directory")?.into()),
            "--list" => cli.list = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => cli.names.push(name.to_string()),
        }
    }
    Ok(cli)
}

/// Resolve the positional names into registry entries, in registry order
/// for `all`/empty and in the order given otherwise.
fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() || names.iter().any(|n| n == "all") {
        return Ok(REGISTRY.iter().collect());
    }
    names
        .iter()
        .map(|n| {
            registry::find(n).ok_or_else(|| {
                format!("unknown experiment {n}; `domino-run --list` shows the registry")
            })
        })
        .collect()
}

/// `--out` if given, else `./results` when present, else the `results/`
/// directory committed next to this workspace.
fn results_dir(cli: &Cli) -> PathBuf {
    if let Some(dir) = &cli.out {
        return dir.clone();
    }
    let cwd = PathBuf::from("results");
    if cwd.is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// `domino-run sim …` — one crash-resumable run: write sealed checkpoint
/// files (stderr notes each one) and print the deterministic stats block.
fn sim_main(args: &[String]) -> ExitCode {
    let parsed = match simcmd::parse(args) {
        Ok(p) => p,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{}", simcmd::USAGE);
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}\n{}", simcmd::USAGE);
            return ExitCode::from(2);
        }
    };
    match simcmd::run(&parsed) {
        Ok(outcome) => {
            for (path, sealed) in &outcome.checkpoints {
                if let Some(dir) = path.parent() {
                    if let Err(e) = std::fs::create_dir_all(dir) {
                        eprintln!("cannot create {}: {e}", dir.display());
                        return ExitCode::FAILURE;
                    }
                }
                if let Err(e) = std::fs::write(path, sealed) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("checkpoint: {} ({} bytes)", path.display(), sealed.len());
            }
            print!("{}", outcome.text);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some((cmd, rest)) = argv.split_first() {
        if cmd == "sim" {
            return sim_main(rest);
        }
    }
    let cli = match parse(argv) {
        Ok(cli) => cli,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        print!("{}", render_list());
        return ExitCode::SUCCESS;
    }
    let selected = match select(&cli.names) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let dir = results_dir(&cli);
    if !cli.check {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(trace_dir) = &cli.trace {
        if let Err(e) = std::fs::create_dir_all(trace_dir) {
            eprintln!("cannot create {}: {e}", trace_dir.display());
            return ExitCode::FAILURE;
        }
    }

    let total = Stopwatch::start();
    let mut runs = Vec::with_capacity(selected.len());
    let mut mismatches = 0usize;
    for exp in selected {
        let run = run_experiment(exp, cli.scale, cli.seed, cli.jobs);
        let verdict = if cli.check {
            match check_against(&dir, &run) {
                CheckStatus::Match => "check: match".to_string(),
                CheckStatus::Missing => {
                    mismatches += 1;
                    format!("check: MISSING {}", dir.join(run.output).display())
                }
                CheckStatus::Differs { line, expected, actual } => {
                    mismatches += 1;
                    format!(
                        "check: DIFFERS at line {line}\n  committed:   {expected}\n  regenerated: {actual}"
                    )
                }
            }
        } else {
            match std::fs::write(dir.join(run.output), &run.text) {
                Ok(()) => format!("wrote {}", dir.join(run.output).display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", dir.join(run.output).display());
                    return ExitCode::FAILURE;
                }
            }
        };
        println!("{}", render_progress(&run, &verdict));
        if let Some(trace_dir) = &cli.trace {
            if let Some(render_trace) = exp.trace {
                let path = trace_dir.join(format!("{}.jsonl", exp.name));
                let jsonl = render_trace(cli.scale, cli.seed);
                if let Err(e) = std::fs::write(&path, jsonl) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("trace: {}", path.display());
            }
        }
        runs.push(run);
    }
    let wall_ns = total.elapsed_ns();

    if let Some(path) = &cli.json {
        let manifest =
            render_manifest(cli.scale, cli.seed, cli.jobs, pool::default_jobs(), &runs, wall_ns);
        if let Err(e) = std::fs::write(path, manifest) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("manifest: {}", path.display());
    }

    println!("{}", render_summary(runs.len(), wall_ns, cli.jobs));
    if mismatches > 0 {
        eprintln!("{mismatches} experiment(s) differ from {}", dir.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
