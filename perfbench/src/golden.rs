//! The committed golden rows each workload's runs are checked against.
//!
//! The rows are read from `results/` at run time and compared at the
//! precision they are printed with, so regenerating a golden on purpose
//! needs no edit here.

use crate::{RunSummary, Workload};

/// Golden file of the Fig 12 experiment, relative to the repository root.
pub const FIG12_FILE: &str = "results/fig12_tput_delay_fairness.txt";
/// Golden file of the Fig 14 experiment, relative to the repository root.
pub const FIG14_FILE: &str = "results/fig14_gain_cdf.txt";

/// What one simulation cell must print, as the golden file prints it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Aggregate goodput, Mb/s, two decimals.
    pub goodput_mbps: String,
    /// Mean per-link delay, ms, two decimals (Fig 12 only).
    pub delay_ms: Option<String>,
    /// Jain's fairness index, two decimals (Fig 12 only).
    pub fairness: Option<String>,
}

impl Expected {
    /// Whether `run` prints exactly the golden values.
    pub fn matches(&self, run: &RunSummary) -> bool {
        let two = |v: f64| format!("{v:.2}");
        two(run.goodput_mbps) == self.goodput_mbps
            && self
                .delay_ms
                .as_ref()
                .is_none_or(|d| *d == two(run.delay_ms))
            && self
                .fairness
                .as_ref()
                .is_none_or(|f| *f == two(run.fairness))
    }
}

/// The expected rows of the first `cells` cells of `workload` at the
/// registry's default seed, parsed from the text of its golden file.
/// Fig 12's golden holds cell 0 only; Fig 14's holds every cell.
pub fn expected(
    workload: Workload,
    golden_text: &str,
    cells: usize,
) -> Result<Vec<Option<Expected>>, String> {
    (0..cells)
        .map(|i| match workload {
            Workload::Fig12TcpDomino if i > 0 => Ok(None),
            Workload::Fig12TcpDomino => fig12_tcp_domino(golden_text).map(Some),
            Workload::Fig14UdpDcf | Workload::Fig14UdpDomino => {
                fig14_run(golden_text, i, workload.scheme().label()).map(Some)
            }
        })
        .collect()
}

/// The golden file `workload` is checked against.
pub fn file(workload: Workload) -> &'static str {
    match workload {
        Workload::Fig12TcpDomino => FIG12_FILE,
        Workload::Fig14UdpDcf | Workload::Fig14UdpDomino => FIG14_FILE,
    }
}

/// The DOMINO cell of the TCP block's uplink-4 row: goodput, delay and
/// fairness tables in turn.
fn fig12_tcp_domino(text: &str) -> Result<Expected, String> {
    let cell = |table: &str| -> Result<String, String> {
        let title = format!("## Fig 12(d-f) TCP — {table}");
        let body = text
            .split_once(title.as_str())
            .map(|(_, rest)| rest)
            .ok_or_else(|| format!("fig12 golden: no table {title:?}"))?;
        let header: Vec<&str> = row_cells(body.lines().nth(1).unwrap_or(""));
        let col = header
            .iter()
            .position(|c| *c == "DOMINO")
            .ok_or_else(|| format!("fig12 golden: no DOMINO column in {title:?}"))?;
        body.lines()
            .take_while(|l| l.is_empty() || l.starts_with('|'))
            .map(row_cells)
            .find(|cells| cells.first() == Some(&"4"))
            .and_then(|cells| cells.get(col).map(|c| c.to_string()))
            .ok_or_else(|| format!("fig12 golden: no uplink-4 row in {title:?}"))
    };
    Ok(Expected {
        goodput_mbps: cell("aggregate throughput (Mb/s)")?,
        delay_ms: Some(cell("average delay per link (ms)")?),
        fairness: Some(cell("Jain's fairness index")?),
    })
}

fn row_cells(line: &str) -> Vec<&str> {
    line.trim()
        .trim_matches('|')
        .split('|')
        .map(str::trim)
        .collect()
}

/// `run  i: DOMINO x Mb/s, DCF y Mb/s, gain gx` → the value after `label`.
fn fig14_run(text: &str, i: usize, label: &str) -> Result<Expected, String> {
    let prefix = format!("run {i:>2}:");
    let line = text
        .lines()
        .find(|l| l.starts_with(&prefix))
        .ok_or_else(|| format!("fig14 golden: no row {prefix:?}"))?;
    let value = line
        .split(',')
        .find_map(|part| {
            part.trim()
                .trim_start_matches(&prefix)
                .trim()
                .strip_prefix(label)
        })
        .and_then(|rest| rest.trim().strip_suffix("Mb/s"))
        .map(|v| v.trim().to_string())
        .ok_or_else(|| format!("fig14 golden: no {label} value in {line:?}"))?;
    Ok(Expected {
        goodput_mbps: value,
        delay_ms: None,
        fairness: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(file: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(file);
        std::fs::read_to_string(path).expect("committed golden file")
    }

    #[test]
    fn parses_the_committed_rows() {
        let fig12 = expected(Workload::Fig12TcpDomino, &committed(FIG12_FILE), 2).unwrap();
        let row = Expected {
            goodput_mbps: "6.24".into(),
            delay_ms: Some("374.09".into()),
            fairness: Some("0.47".into()),
        };
        assert_eq!(fig12, vec![Some(row), None]);
        let fig14 = committed(FIG14_FILE);
        let goodput = |w, i: usize| {
            expected(w, &fig14, 10).unwrap()[i]
                .clone()
                .unwrap()
                .goodput_mbps
        };
        assert_eq!(goodput(Workload::Fig14UdpDcf, 0), "138.72");
        assert_eq!(goodput(Workload::Fig14UdpDomino, 0), "128.63");
        assert_eq!(goodput(Workload::Fig14UdpDomino, 9), "128.37");
    }

    #[test]
    fn missing_rows_are_errors() {
        assert!(expected(Workload::Fig12TcpDomino, "", 1).is_err());
        assert!(expected(Workload::Fig14UdpDcf, &committed(FIG14_FILE), 11).is_err());
    }
}
