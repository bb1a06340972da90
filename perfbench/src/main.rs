//! `domino-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root (the committed goldens are read from
//! `results/`). Prints a host line, then, as the last line, one JSON
//! object: `correct`, `attempted`, `failed` and the metrics by name with
//! their units — the end-to-end metrics with `--trace 0`, the per-layer
//! ledger with `--trace 1`.

use domino_perfbench::{golden, measure, trace, CellRun, Options, Workload, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str =
    "usage: domino-perfbench --workload <fig12-tcp-domino|fig14-udp-dcf|fig14-udp-domino> \
--seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run only this cell once and print it (`CellRun::encode`).
    cell: Option<usize>,
    horizon_s: Option<f64>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let (mut cell, mut horizon_s) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--cell" => {
                cell = Some(
                    value
                        .parse()
                        .map_err(|_| "--cell needs an integer".to_string())?,
                )
            }
            "--horizon" => {
                horizon_s = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|h| *h > 0.0)
                        .ok_or("--horizon needs a positive number")?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if cell.is_some_and(|c| c >= workload.cells()) {
        return Err(format!("--cell must be below {}", workload.cells()));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        cell,
        horizon_s,
    })
}

/// Host facts recorded beside every result.
fn host_line(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let head = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|h| match h.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(h),
        })
        .map_or_else(|| "unknown".into(), |h| h.trim().to_string());
    format!("# host nproc={nproc} cpu={cpu:?} rustc={rustc:?} git_head={head} seed={seed}")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("domino-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let horizon_s = args.horizon_s.unwrap_or(args.workload.duration_s());
    if let Some(cell) = args.cell {
        println!(
            "{}",
            CellRun::run(args.workload, args.seed, cell, horizon_s).encode()
        );
        return ExitCode::SUCCESS;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("domino-perfbench: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut opts = Options::new(args.workload, args.seed, args.seconds, exe);
    opts.horizon_s = horizon_s;
    // The goldens hold the default seed's rows; any other seed is checked
    // by the runs agreeing with each other.
    if args.seed == DEFAULT_SEED && args.horizon_s.is_none() {
        let file = golden::file(args.workload);
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "domino-perfbench: cannot read {file}: {e} (run from the repository root)"
                );
                return ExitCode::from(1);
            }
        };
        match golden::expected(args.workload, &text, opts.cells) {
            Ok(rows) => opts.expected = rows,
            Err(e) => {
                eprintln!("domino-perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    println!("{}", host_line(args.seed));
    let outcome = if args.trace {
        trace(&opts)
    } else {
        measure(&opts)
    };
    let passes: Vec<String> = outcome.passes.iter().map(|p| format!("{p:.3}")).collect();
    println!("# untraced pass seconds: {}", passes.join(" "));
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
