//! One test per table/figure of the paper, asserting the *shape* each
//! artifact must reproduce (who wins, by roughly what factor, where the
//! crossovers fall). These are the repository's reproduction contract;
//! EXPERIMENTS.md records the measured numbers.

use wormhole_sam::prelude::*;

const RUNS: u64 = 6;

fn mean(records: &[RunRecord], f: impl Fn(&RunRecord) -> f64) -> f64 {
    mean_of(records, f)
}

/// `RUNS` paired discoveries (normal vs one wormhole) on a fresh store.
fn paired(topology: TopologyKind, protocol: ProtocolKind) -> PairedSeries {
    PairedSeries::collect(&mut RunStore::default(), &[(topology, protocol)], RUNS).remove(0)
}

#[test]
fn table1_cluster_fully_captured_uniform_partially() {
    let cluster_mr = run_series(
        &ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr),
        RUNS,
    );
    let cluster_dsr = run_series(
        &ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Dsr),
        RUNS,
    );
    let uniform_mr = run_series(
        &ScenarioSpec::attacked(TopologyKind::uniform6x6(), ProtocolKind::Mr),
        RUNS,
    );
    let uniform_dsr = run_series(
        &ScenarioSpec::attacked(TopologyKind::uniform6x6(), ProtocolKind::Dsr),
        RUNS,
    );
    // "all routes are affected for both MR and DSR in cluster topology!"
    for r in cluster_mr.iter().chain(&cluster_dsr) {
        assert!(
            r.affected > 0.99,
            "cluster run {} affected only {:.2}",
            r.run,
            r.affected
        );
    }
    // "MR may perform better than DSR in uniform topology" — and both hit.
    let mr = mean(&uniform_mr, |r| r.affected);
    let dsr = mean(&uniform_dsr, |r| r.affected);
    assert!(mr > 0.1, "uniform MR affected {mr:.2}");
    assert!(dsr > 0.5, "uniform DSR affected {dsr:.2}");
    assert!(
        mr <= dsr + 1e-9,
        "MR {mr:.2} should not exceed DSR {dsr:.2}"
    );
}

#[test]
fn table2_mr_overhead_at_least_twice_dsr() {
    for topology in [TopologyKind::cluster1(), TopologyKind::uniform6x6()] {
        let mr = run_series(&ScenarioSpec::attacked(topology, ProtocolKind::Mr), RUNS);
        let dsr = run_series(&ScenarioSpec::attacked(topology, ProtocolKind::Dsr), RUNS);
        let ratio = mean(&mr, |r| r.overhead as f64) / mean(&dsr, |r| r.overhead as f64);
        assert!(
            ratio >= 2.0,
            "{}: MR/DSR overhead ratio {ratio:.2} below the paper's 'more than twice'",
            topology.label()
        );
    }
}

#[test]
fn fig5_attacked_pmf_has_isolated_high_frequency_outlier() {
    let normal = ScenarioSpec::normal(TopologyKind::cluster1(), ProtocolKind::Mr);
    let attacked = normal.with_wormholes(1);
    // The figure shows one *typical* discovery; a single seed can draw an
    // atypical one, so assert the shape across a short series.
    let mut p_max_n = 0.0;
    let mut p_max_a = 0.0;
    let mut isolated = 0u64;
    for run in 0..RUNS {
        let (rec_n, _) = run_once_with_routes(&normal, run);
        let (rec_a, routes_a) = run_once_with_routes(&attacked, run);
        p_max_n += rec_n.p_max;
        p_max_a += rec_a.p_max;
        // "the link with the highest relative frequency locates far apart
        // from other links". Links tied at the maximum are one shared
        // capture chain through the tunnel — a single PMF outlier, not
        // competing peaks — so measure the gap to the best frequency
        // *below* the outlier.
        let stats = LinkStats::from_routes(&routes_a);
        let (n_max, _) = stats.top_two();
        let n_next = stats
            .counts()
            .map(|(_, c)| c)
            .filter(|&c| c < n_max)
            .max()
            .unwrap_or(0);
        // Paper's own gap: normal tops out near 9%, attacked above 15% —
        // i.e. the runner-up sits below ~0.7 of the outlier.
        if 10 * n_next <= 7 * n_max {
            isolated += 1;
        }
    }
    // Paper: "the highest relative frequency is 9% in [normal], whereas
    // [attacked] more than 15%". Shape: attacked max well above normal max.
    assert!(p_max_a > 1.5 * p_max_n, "{p_max_a} vs {p_max_n}");
    assert!(
        2 * isolated > RUNS,
        "attack outlier isolated in only {isolated}/{RUNS} runs"
    );
}

#[test]
fn fig6_7_features_separate_on_cluster() {
    let s = paired(TopologyKind::cluster1(), ProtocolKind::Mr);
    assert!(
        s.separation(|r| r.p_max) > 0.05,
        "p_max sep {}",
        s.separation(|r| r.p_max)
    );
    assert!(
        s.separation(|r| r.delta) > 0.0,
        "Δ sep {}",
        s.separation(|r| r.delta)
    );
}

#[test]
fn fig8_long_uniform_link_separates_where_short_one_is_weak() {
    let short = paired(TopologyKind::uniform6x6(), ProtocolKind::Mr);
    let long = paired(TopologyKind::uniform10x6(), ProtocolKind::Mr);
    assert!(
        long.separation(|r| r.p_max) > short.separation(|r| r.p_max),
        "long {} ≤ short {}",
        long.separation(|r| r.p_max),
        short.separation(|r| r.p_max)
    );
    assert!(long.separation(|r| r.p_max) > 0.1);
}

#[test]
fn fig10_random_topologies_separate_p_max() {
    let s = paired(TopologyKind::Random, ProtocolKind::Mr);
    assert!(
        s.separation(|r| r.p_max) > 0.05,
        "sep {}",
        s.separation(|r| r.p_max)
    );
    // Every attacked run individually exceeds its paired normal run —
    // Fig. 10's per-run picture.
    let mut wins = 0;
    for (n, a) in s.normal.iter().zip(&s.attacked) {
        if a.p_max > n.p_max {
            wins += 1;
        }
    }
    assert!(
        wins as f64 >= 0.8 * RUNS as f64,
        "only {wins}/{RUNS} runs separate"
    );
}

#[test]
fn fig11_12_both_tiers_separate() {
    for tier in [TopologyKind::cluster1(), TopologyKind::cluster2()] {
        let s = paired(tier, ProtocolKind::Mr);
        assert!(
            s.separation(|r| r.p_max) > 0.02,
            "{}: p_max sep {}",
            s.label,
            s.separation(|r| r.p_max)
        );
    }
}

#[test]
fn fig13_14_p_max_carries_over_to_dsr_delta_does_not() {
    let mr = paired(TopologyKind::cluster1(), ProtocolKind::Mr);
    let dsr = paired(TopologyKind::cluster1(), ProtocolKind::Dsr);
    // Fig. 14: p_max separates for both protocols.
    assert!(mr.separation(|r| r.p_max) > 0.03);
    assert!(dsr.separation(|r| r.p_max) > 0.03);
    // Fig. 13: Δ behaves differently under DSR (single-path routing gives
    // it far less signal than under MR).
    assert!(
        dsr.separation(|r| r.delta) < mr.separation(|r| r.delta) + 1e-9,
        "DSR Δ sep {} vs MR {}",
        dsr.separation(|r| r.delta),
        mr.separation(|r| r.delta)
    );
}

#[test]
fn fig15_multi_wormhole_raises_p_max_and_its_variance() {
    let base = ScenarioSpec::normal(TopologyKind::uniform10x6(), ProtocolKind::Mr);
    let none = run_series(&base, RUNS);
    let one = run_series(&base.with_wormholes(1), RUNS);
    let two = run_series(&base.with_wormholes(2), RUNS);
    let m = |v: &[RunRecord]| mean(v, |r| r.p_max);
    let var = |v: &[RunRecord]| {
        let mu = m(v);
        v.iter().map(|r| (r.p_max - mu).powi(2)).sum::<f64>() / v.len() as f64
    };
    // "p_max is much higher in both attacked networks than … normal."
    assert!(
        m(&one) > 1.5 * m(&none),
        "one {} vs none {}",
        m(&one),
        m(&none)
    );
    assert!(
        m(&two) > 1.5 * m(&none),
        "two {} vs none {}",
        m(&two),
        m(&none)
    );
    // "the variance of p_max becomes bigger as the number of wormholes
    // increases."
    assert!(
        var(&two) > var(&one),
        "variance two {} vs one {}",
        var(&two),
        var(&one)
    );
}

#[test]
fn discussion_attack_ineffective_when_range_rivals_tunnel() {
    // "If the node transmission range grows large enough that comparable
    // to the tunneled link between the two attackers, then wormhole attack
    // is no longer effective." A tiny grid at a huge tier: the tunnel
    // spans ~1 hop, so capture collapses compared to the long-tunnel case.
    let tiny = TopologyKind::Uniform {
        cols: 4,
        rows: 6,
        tier: 2,
    };
    let long = TopologyKind::uniform10x6();
    let tiny_hit = run_series(&ScenarioSpec::attacked(tiny, ProtocolKind::Mr), RUNS);
    let long_hit = run_series(&ScenarioSpec::attacked(long, ProtocolKind::Mr), RUNS);
    assert!(
        mean(&tiny_hit, |r| r.affected) < mean(&long_hit, |r| r.affected),
        "short-range attack should capture less: {:.2} vs {:.2}",
        mean(&tiny_hit, |r| r.affected),
        mean(&long_hit, |r| r.affected)
    );
}
