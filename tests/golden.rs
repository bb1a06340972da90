//! Golden determinism tests: one small scenario per MAC scheme and traffic
//! kind (UDP and TCP), pinned to a fixed master seed, asserting the *exact*
//! summary metrics and event counts. The whole
//! simulator is specified to be a pure function of `(configuration, seed)` —
//! SplitMix64-derived xoshiro256++ streams, integer-nanosecond clock, no
//! wall-time — so these values must reproduce bit-for-bit on every platform
//! and profile. Any diff here is cross-PR behavioral drift: either an
//! intended semantic change (update the constants and say so in the PR) or
//! an accidental one (a bug).
//!
//! Values are compared after fixed-point formatting so the assertion
//! messages stay readable; the formatting is exact for the precision used.

use domino::core::{scenarios, Scheme, SimulationBuilder};

/// The offered traffic of one pinned row.
#[derive(Clone, Copy)]
enum Traffic {
    /// UDP at 10 Mb/s down and 5 Mb/s up per link.
    Udp,
    /// TCP at 10 Mb/s down and 4 Mb/s up per link.
    Tcp,
}

fn summary(scheme: Scheme, traffic: Traffic) -> String {
    let b = SimulationBuilder::new(scenarios::fig7()).duration_s(0.1).seed(0xD0311);
    let b = match traffic {
        Traffic::Udp => b.udp(10e6, 5e6),
        Traffic::Tcp => b.tcp(10e6, 4e6),
    };
    let report = b.run(scheme);
    // `events` and the retransmission counts pin the event stream itself,
    // not only the metrics computed from it.
    format!(
        "tput={:.6} delay_us={:.3} fairness={:.6} events={} retx={} tcp_retx={}",
        report.aggregate_mbps(),
        report.mean_delay_us(),
        report.fairness(),
        report.stats.events,
        report.stats.retries,
        report.stats.tcp_retransmissions
    )
}

#[test]
fn golden_dcf_fig7_seeded() {
    assert_eq!(
        summary(Scheme::Dcf, Traffic::Udp),
        "tput=12.656640 delay_us=41899.237 fairness=0.486215 events=2966 retx=86 tcp_retx=0"
    );
}

#[test]
fn golden_centaur_fig7_seeded() {
    assert_eq!(
        summary(Scheme::Centaur, Traffic::Udp),
        "tput=13.312000 delay_us=39435.749 fairness=0.723023 events=3202 retx=88 tcp_retx=0"
    );
}

#[test]
fn golden_domino_fig7_seeded() {
    assert_eq!(
        summary(Scheme::Domino, Traffic::Udp),
        "tput=20.193280 delay_us=33087.106 fairness=0.963532 events=7076 retx=186 tcp_retx=0"
    );
}

#[test]
fn golden_omniscient_fig7_seeded() {
    assert_eq!(
        summary(Scheme::Omniscient, Traffic::Udp),
        "tput=18.759680 delay_us=32503.123 fairness=0.999943 events=2153 retx=0 tcp_retx=0"
    );
}

#[test]
fn golden_dcf_fig7_tcp_seeded() {
    assert_eq!(
        summary(Scheme::Dcf, Traffic::Tcp),
        "tput=9.625600 delay_us=21050.486 fairness=0.630480 events=2395 retx=111 tcp_retx=2"
    );
}

#[test]
fn golden_centaur_fig7_tcp_seeded() {
    assert_eq!(
        summary(Scheme::Centaur, Traffic::Tcp),
        "tput=10.772480 delay_us=24164.471 fairness=0.689979 events=2770 retx=87 tcp_retx=0"
    );
}

#[test]
fn golden_domino_fig7_tcp_seeded() {
    assert_eq!(
        summary(Scheme::Domino, Traffic::Tcp),
        "tput=11.100160 delay_us=13064.563 fairness=0.972368 events=6114 retx=140 tcp_retx=1"
    );
}

#[test]
fn golden_omniscient_fig7_tcp_seeded() {
    assert_eq!(
        summary(Scheme::Omniscient, Traffic::Tcp),
        "tput=10.567680 delay_us=16010.568 fairness=0.995037 events=1081 retx=0 tcp_retx=0"
    );
}

/// The golden values above only catch drift if the run is reproducible in
/// the first place; assert that two back-to-back runs in one process agree.
#[test]
fn golden_runs_are_reproducible_in_process() {
    for traffic in [Traffic::Udp, Traffic::Tcp] {
        assert_eq!(summary(Scheme::Domino, traffic), summary(Scheme::Domino, traffic));
    }
}
