//! The `domino-run` command line, driven through the built binary.
//!
//! The runner has no result cache and no campaign engine. A script that
//! passes their old flags or subcommands must fail loudly with a usage
//! error (exit 2), never silently run something else.

use std::process::{Command, Output};

fn domino_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_domino-run"))
        .args(args)
        .output()
        .expect("spawn domino-run")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn removed_cache_flags_are_unknown() {
    // `--list` keeps a binary that still accepted the flag from starting
    // a full run: it would list and exit 0, failing the test at once.
    for args in [
        &["--cache", "--list"][..],
        &["--no-cache", "--list"],
        &["--cache-dir", "d", "--list"],
    ] {
        let out = domino_run(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
    }
}

#[test]
fn removed_subcommands_are_unknown_experiments() {
    for args in [&["campaign", "x.campaign"][..], &["fingerprint"]] {
        let out = domino_run(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("unknown experiment"), "{args:?}: {err}");
    }
}

#[test]
fn help_names_no_removed_surface() {
    let out = domino_run(&["--help"]);
    assert!(out.status.success());
    let text = format!("{}{}", String::from_utf8_lossy(&out.stdout), stderr(&out));
    assert!(text.contains("domino-run sim"), "{text}");
    for removed in ["cache", "campaign", "fingerprint", "--resume", "--report"] {
        assert!(!text.contains(removed), "--help mentions {removed}: {text}");
    }
}
