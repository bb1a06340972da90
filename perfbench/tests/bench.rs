//! Tests of the benchmark itself: every declared metric is emitted with
//! its unit, and a wrong golden value is counted as a failed operation.

use domino_perfbench::{golden, measure, trace, CellRun, Options, Outcome, Workload, DEFAULT_SEED};
use std::path::{Path, PathBuf};

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_domino-perfbench"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let json = repo_file("BENCHMARK.json");
    let start = json
        .find(&format!("\"{list}\""))
        .expect("list in BENCHMARK.json");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, key: &str| -> Option<String> {
        let rest = &entry[entry.find(&format!("\"{key}\""))? + key.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name").expect("name"),
                field(entry, "unit").expect("unit"),
            )
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in Workload::ALL {
        let mut opts = Options::new(workload, 7, 0.0, exe());
        opts.horizon_s = 0.02;
        opts.cells = 2;
        for (outcome, expected) in [(measure(&opts), &end_to_end), (trace(&opts), &per_layer)] {
            assert_eq!(emitted(&outcome), *expected, "{}", workload.name());
            assert!(
                outcome.attempted >= 2 && outcome.failed == 0,
                "{}: {outcome:?}",
                workload.name()
            );
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{outcome:?}"
            );
            let json = outcome.to_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
        let e2e = measure(&opts);
        assert!(e2e.metrics.iter().all(|m| m.value > 0.0), "{e2e:?}");
    }
}

#[test]
fn a_perturbed_golden_value_is_a_failed_operation() {
    let workload = Workload::Fig14UdpDcf;
    let text = repo_file(golden::FIG14_FILE);
    let run = |text: &str| {
        let mut opts = Options::new(workload, DEFAULT_SEED, 0.0, exe());
        opts.cells = 1;
        opts.expected = golden::expected(workload, text, 1).expect("golden row");
        measure(&opts)
    };
    let clean = run(&text);
    assert_eq!((clean.attempted, clean.failed), (1, 0));

    let row = text
        .lines()
        .find(|l| l.starts_with("run  0:"))
        .expect("run 0 row");
    let perturbed = text.replace(row, &row.replace("DCF 138.72", "DCF 138.73"));
    assert_ne!(
        perturbed, text,
        "the committed run-0 DCF value moved; update this test"
    );
    let broken = run(&perturbed);
    assert_eq!((broken.attempted, broken.failed), (1, 1));
    assert!(broken.to_json().starts_with("{\"correct\": false"));
}

#[test]
fn a_cell_run_round_trips_through_its_line() {
    let run = CellRun::run(Workload::Fig14UdpDomino, 3, 1, 0.01);
    assert_eq!(CellRun::decode(&run.encode()), Some(run));
    assert_eq!(CellRun::decode("cell 1 2"), None);
}
