//! Fig 12: UDP and TCP aggregate throughput, mean per-link delay and
//! Jain's fairness on T(10,2), downlink fixed at 10 Mb/s per link and the
//! uplink rate swept 0–10 Mb/s — DOMINO vs CENTAUR vs DCF.
//!
//! The heaviest experiment of the suite: one shard per
//! (protocol, uplink rate, scheme) simulation plus a cheap conflict-graph
//! preamble shard — 19 shards quick, 37 at full scale.

use super::util::{mbps, outln, push_block};
use crate::plan::Plan;
use crate::scale::Scale;
use domino_core::{scenarios, Scheme, SimulationBuilder};
use domino_stats::Table;

/// Registry key.
pub const NAME: &str = "fig12_tput_delay_fairness";
/// Output file under `results/`.
pub const OUTPUT: &str = "fig12_tput_delay_fairness.txt";

const SCHEMES: [Scheme; 3] = [Scheme::Domino, Scheme::Centaur, Scheme::Dcf];

enum ShardOut {
    Preamble(String),
    Cell { tput: f64, delay_ms: f64, fairness: f64 },
}

struct Metrics {
    tput: f64,
    delay_ms: f64,
    fairness: f64,
}

fn render_block(title: &str, rates: &[f64], rows: &[Vec<Metrics>], out: &mut String) {
    let mut tput = Table::new(
        &format!("{title} — aggregate throughput (Mb/s)"),
        &["uplink (Mb/s)", "DOMINO", "CENTAUR", "DCF", "DOMINO/DCF"],
    );
    let mut delay = Table::new(
        &format!("{title} — average delay per link (ms)"),
        &["uplink (Mb/s)", "DOMINO", "CENTAUR", "DCF"],
    );
    let mut fair = Table::new(
        &format!("{title} — Jain's fairness index"),
        &["uplink (Mb/s)", "DOMINO", "CENTAUR", "DCF"],
    );
    for (up, reports) in rates.iter().zip(rows) {
        let (d, c, f) = (&reports[0], &reports[1], &reports[2]);
        tput.row(&[
            format!("{up:.0}", up = up / 1e6),
            mbps(d.tput),
            mbps(c.tput),
            mbps(f.tput),
            format!("{:.2}", d.tput / f.tput.max(1e-9)),
        ]);
        delay.row(&[
            format!("{:.0}", up / 1e6),
            format!("{:.2}", d.delay_ms),
            format!("{:.2}", c.delay_ms),
            format!("{:.2}", f.delay_ms),
        ]);
        fair.row(&[
            format!("{:.0}", up / 1e6),
            format!("{:.2}", d.fairness),
            format!("{:.2}", c.fairness),
            format!("{:.2}", f.fairness),
        ]);
    }
    push_block(out, &tput.render());
    push_block(out, &delay.render());
    push_block(out, &fair.render());
}

/// Build the plan: a preamble shard plus one shard per simulation cell.
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let rates: Vec<f64> = match scale {
        Scale::Full => (0..=5).map(|i| 2e6 * i as f64).collect(),
        Scale::Quick => vec![0.0, 4e6, 10e6],
    };
    let duration = scale.duration(4.0);

    let mut shards: Vec<Box<dyn FnOnce() -> ShardOut + Send>> = Vec::new();
    shards.push(Box::new(move || {
        use domino_topology::conflict::{pair_stats, ConflictGraph};
        let net = scenarios::standard_t(10, 2, seed);
        let g = ConflictGraph::build(&net);
        let stats = pair_stats(&net, &g);
        let mut text = String::new();
        outln!(
            text,
            "T(10,2): {} links, {} hidden and {} exposed of {} non-sharing link pairs (paper: 10 hidden, 62 exposed of 720)\n",
            net.links().len(),
            stats.hidden,
            stats.exposed,
            stats.total
        );
        ShardOut::Preamble(text)
    }));
    for tcp in [false, true] {
        for &up in &rates {
            for &scheme in &SCHEMES {
                shards.push(Box::new(move || {
                    let net = scenarios::standard_t(10, 2, seed);
                    let builder =
                        SimulationBuilder::new(net).duration_s(duration).seed(seed);
                    let builder =
                        if tcp { builder.tcp(10e6, up) } else { builder.udp(10e6, up) };
                    let r = builder.run(scheme);
                    ShardOut::Cell {
                        tput: r.aggregate_mbps(),
                        delay_ms: r.mean_delay_us() / 1000.0,
                        fairness: r.fairness(),
                    }
                }));
            }
        }
    }

    Plan::new(shards, move |outs: Vec<ShardOut>| {
        let mut outs = outs.into_iter();
        let Some(ShardOut::Preamble(preamble)) = outs.next() else {
            return String::from("fig12: malformed shard order\n");
        };
        // Cells arrive in the exact nested order they were registered:
        // protocol-major, then rate, then scheme.
        let mut cells = outs.filter_map(|o| match o {
            ShardOut::Cell { tput, delay_ms, fairness } => {
                Some(Metrics { tput, delay_ms, fairness })
            }
            ShardOut::Preamble(_) => None,
        });
        let mut out = preamble;
        for (tcp, title) in [(false, "Fig 12(a-c) UDP"), (true, "Fig 12(d-f) TCP")] {
            let _ = tcp;
            let rows: Vec<Vec<Metrics>> = rates
                .iter()
                .map(|_| (0..SCHEMES.len()).filter_map(|_| cells.next()).collect())
                .collect();
            render_block(title, &rates, &rows, &mut out);
        }
        out
    })
}
