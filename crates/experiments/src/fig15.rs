//! **Fig. 15** — `p_max` of a network under no / one / two wormhole
//! attacks (§III.D "Multiple wormhole attacks").
//!
//! Expected shape: `p_max` is much higher in both attacked systems than in
//! the normal one, and "the variance of p_max becomes bigger as the number
//! of wormholes increases" (routes split between two attractive tunnels).
//!
//! Topology: the 6×10 uniform grid; the second pair mirrors the first
//! across the grid's horizontal midline (see
//! [`runner::build_plan`](crate::runner::build_plan)).

use crate::report::{Cell, Table};
use crate::runner::{mean_of, RunRecord};
use crate::scenario::{ScenarioSpec, TopologyKind};
use crate::store::RunStore;
use manet_routing::ProtocolKind;

fn variance(records: &[RunRecord], f: impl Fn(&RunRecord) -> f64 + Copy) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let m = mean_of(records, f);
    records.iter().map(|r| (f(r) - m).powi(2)).sum::<f64>() / records.len() as f64
}

/// Run the experiment.
pub fn run(store: &mut RunStore, runs: u64) -> Table {
    let base = ScenarioSpec::normal(TopologyKind::uniform10x6(), ProtocolKind::Mr);
    let specs = [0, 1, 2].map(|n| base.with_wormholes(n));
    let [none, one, two] =
        <[Vec<RunRecord>; 3]>::try_from(store.series(&specs, runs)).expect("one series per spec");

    let mut table = Table::new(
        "fig15",
        "p_max of a network under no/one/two wormhole attacks (MR)",
        vec!["run", "no wormhole", "one wormhole", "two wormholes"],
    );
    for (i, ((n, o), t)) in none.iter().zip(&one).zip(&two).enumerate() {
        table.push_row(vec![
            Cell::Int(i as i64 + 1),
            Cell::Num(n.p_max),
            Cell::Num(o.p_max),
            Cell::Num(t.p_max),
        ]);
    }
    table.push_row(vec![
        Cell::from("avg"),
        Cell::Num(mean_of(&none, |r| r.p_max)),
        Cell::Num(mean_of(&one, |r| r.p_max)),
        Cell::Num(mean_of(&two, |r| r.p_max)),
    ]);
    table.note(format!(
        "p_max variance: none {:.5}, one {:.5}, two {:.5} (paper: variance grows with wormhole count)",
        variance(&none, |r| r.p_max),
        variance(&one, |r| r.p_max),
        variance(&two, |r| r.p_max)
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_attack_raises_p_max_over_normal() {
        let base = ScenarioSpec::normal(TopologyKind::uniform10x6(), ProtocolKind::Mr);
        let specs = [base, base.with_wormholes(1), base.with_wormholes(2)];
        let [none, one, two] =
            <[Vec<RunRecord>; 3]>::try_from(RunStore::default().series(&specs, 4)).unwrap();
        let m = |v: &[RunRecord]| mean_of(v, |r| r.p_max);
        assert!(m(&one) > m(&none), "one {} vs none {}", m(&one), m(&none));
        assert!(m(&two) > m(&none), "two {} vs none {}", m(&two), m(&none));
    }
}
