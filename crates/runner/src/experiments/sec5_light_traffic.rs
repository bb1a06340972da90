//! §5 "Light traffic load": packet delay of DOMINO vs DCF on T(6,5) with
//! 6 kB/s (48 kb/s) per-link traffic — far below saturation, where
//! DOMINO's control overhead costs delay instead of buying throughput.
//!
//! One shard per scheme.

use super::util::{outln, push_block};
use crate::plan::Plan;
use crate::scale::Scale;
use domino_core::{scenarios, Scheme, SimulationBuilder};
use domino_stats::Table;

/// Registry key.
pub const NAME: &str = "sec5_light_traffic";
/// Output file under `results/`.
pub const OUTPUT: &str = "sec5_light_traffic.txt";

struct Cell {
    scheme: Scheme,
    tput: f64,
    delay_us: f64,
    drops: u64,
}

/// Build the plan: DOMINO and DCF shards on T(6,5) at 6 kB/s per link.
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let duration = scale.duration(5.0);
    let rate = 6.0 * 8.0 * 1000.0; // 6 kB/s per link
    let shards: Vec<Box<dyn FnOnce() -> Cell + Send>> = [Scheme::Domino, Scheme::Dcf]
        .into_iter()
        .map(|scheme| -> Box<dyn FnOnce() -> Cell + Send> {
            Box::new(move || {
                let net = scenarios::standard_t(6, 5, seed);
                let r = SimulationBuilder::new(net)
                    .udp(rate, rate)
                    .duration_s(duration)
                    .seed(seed)
                    .run(scheme);
                Cell {
                    scheme,
                    tput: r.aggregate_mbps(),
                    delay_us: r.mean_delay_us(),
                    drops: r.stats.drops,
                }
            })
        })
        .collect();
    Plan::new(shards, |cells: Vec<Cell>| {
        let mut t = Table::new(
            "§5 light traffic — T(6,5) at 6 kB/s per link",
            &["scheme", "throughput (Mb/s)", "mean delay (ms)", "drops"],
        );
        for c in &cells {
            t.row(&[
                c.scheme.label().to_string(),
                format!("{:.3}", c.tput),
                format!("{:.2}", c.delay_us / 1000.0),
                c.drops.to_string(),
            ]);
        }
        let mut out = String::new();
        push_block(&mut out, &t.render());
        outln!(
            out,
            "DOMINO/DCF delay ratio: {:.2} (paper: 1.14)",
            cells[0].delay_us / cells[1].delay_us.max(1e-9)
        );
        out
    })
}
