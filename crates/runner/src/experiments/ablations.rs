//! Ablations of DOMINO's design choices (DESIGN.md §5): fake-link
//! insertion, the redundant second trigger (inbound cap), the outbound
//! cap, batch size × wired jitter, and signature length.
//!
//! One shard per simulation: 4 converter variants + 9 batch × jitter
//! cells, plus a cheap closed-form shard for the signature-length table.

use super::util::{mbps, push_block};
use crate::plan::Plan;
use crate::scale::Scale;
use domino_core::{scenarios, Scheme, SimulationBuilder};
use domino_mac::domino::DominoConfig;
use domino_phy::signature::SIGNATURE_DURATION_NS;
use domino_phy::GoldFamily;
use domino_scheduler::ConverterConfig;
use domino_stats::Table;
use domino_wired::WiredLatency;

/// Registry key.
pub const NAME: &str = "ablations";
/// Output file under `results/`.
pub const OUTPUT: &str = "ablations.txt";

const BATCHES: [usize; 3] = [2, 5, 10];
const JITTERS: [f64; 3] = [22.0, 60.0, 120.0];

enum ShardOut {
    Variant { tput: f64, fairness: f64, delay_ms: f64 },
    BatchCell(f64),
    SignatureTable(String),
}

fn variants() -> Vec<(&'static str, ConverterConfig)> {
    vec![
        ("baseline (paper defaults)", ConverterConfig::default()),
        (
            "no fake links",
            ConverterConfig { insert_fake_links: false, ..ConverterConfig::default() },
        ),
        (
            "single trigger (inbound 1)",
            ConverterConfig { max_inbound: 1, ..ConverterConfig::default() },
        ),
        (
            "outbound cap 2",
            ConverterConfig { max_outbound: 2, ..ConverterConfig::default() },
        ),
    ]
}

fn run_once(seed: u64, duration: f64, cfg: DominoConfig) -> domino_core::RunReport {
    let net = scenarios::standard_t(10, 2, seed);
    SimulationBuilder::new(net)
        .udp(10e6, 4e6)
        .duration_s(duration)
        .seed(seed)
        .domino_config(cfg)
        .run(Scheme::Domino)
}

fn signature_table() -> String {
    let mut t = Table::new(
        "Signature-length trade-off (§5)",
        &["family", "codes", "chips", "airtime (us)", "per-slot overhead"],
    );
    let slot_us = 492.0;
    for (name, fam) in [("degree-7 (paper)", GoldFamily::degree7()), ("degree-9", GoldFamily::degree9())]
    {
        let chips = fam.code(0).len();
        let airtime_us = chips as f64 * (SIGNATURE_DURATION_NS as f64 / 127.0) / 1000.0;
        // Two signature phases per slot (instruction appendix + burst).
        let overhead = 4.0 * airtime_us / slot_us;
        t.row(&[
            name.to_string(),
            fam.len().to_string(),
            chips.to_string(),
            format!("{airtime_us:.2}"),
            format!("{:.1}%", overhead * 100.0),
        ]);
    }
    t.render()
}

/// Build the plan: 4 + 9 simulation shards plus the signature table.
pub fn plan(scale: Scale, seed: u64) -> Plan {
    let duration = scale.duration(3.0);
    let mut shards: Vec<Box<dyn FnOnce() -> ShardOut + Send>> = Vec::new();
    for (_, conv) in variants() {
        shards.push(Box::new(move || {
            let r = run_once(seed, duration, DominoConfig { converter: conv, ..DominoConfig::default() });
            ShardOut::Variant {
                tput: r.aggregate_mbps(),
                fairness: r.fairness(),
                delay_ms: r.mean_delay_us() / 1000.0,
            }
        }));
    }
    for &batch in &BATCHES {
        for &std_us in &JITTERS {
            shards.push(Box::new(move || {
                let r = run_once(
                    seed,
                    duration,
                    DominoConfig {
                        batch_slots: batch,
                        wired: WiredLatency::with_std(std_us),
                        ..DominoConfig::default()
                    },
                );
                ShardOut::BatchCell(r.aggregate_mbps())
            }));
        }
    }
    shards.push(Box::new(|| ShardOut::SignatureTable(signature_table())));

    Plan::new(shards, |outs: Vec<ShardOut>| {
        let mut outs = outs.into_iter();
        let mut out = String::new();

        // --- Converter mechanisms.
        let mut t = Table::new(
            "Ablation — converter mechanisms on T(10,2), UDP 10/4 Mb/s",
            &["variant", "throughput (Mb/s)", "fairness", "mean delay (ms)"],
        );
        for (name, _) in variants() {
            if let Some(ShardOut::Variant { tput, fairness, delay_ms }) = outs.next() {
                t.row(&[
                    name.to_string(),
                    mbps(tput),
                    format!("{fairness:.2}"),
                    format!("{delay_ms:.1}"),
                ]);
            }
        }
        push_block(&mut out, &t.render());

        // --- Batch size x wired jitter.
        let mut t = Table::new(
            "Ablation — batch size x wired jitter (throughput, Mb/s)",
            &["batch slots", "jitter 22 us", "jitter 60 us", "jitter 120 us"],
        );
        for &batch in &BATCHES {
            let mut row = vec![batch.to_string()];
            for _ in &JITTERS {
                if let Some(ShardOut::BatchCell(tput)) = outs.next() {
                    row.push(mbps(tput));
                }
            }
            t.row(&row);
        }
        push_block(&mut out, &t.render());

        // --- Signature length (§5): overhead per slot vs supportable nodes.
        if let Some(ShardOut::SignatureTable(table)) = outs.next() {
            push_block(&mut out, &table);
        }
        out
    })
}
