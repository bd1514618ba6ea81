//! **Fig. 10** — `p_max` of networks with random topology using MR.
//!
//! 10 runs; a fresh random placement is drawn per run (seeded), so the
//! series demonstrates that `p_max` separates attack from normal across
//! random topologies, not just on one lucky draw.

use crate::report::Table;
use crate::scenario::TopologyKind;
use crate::series::{feature_table, PairedSeries};
use crate::store::RunStore;
use manet_routing::ProtocolKind;

/// Run the experiment.
pub fn run(store: &mut RunStore, runs: u64) -> Table {
    let series = PairedSeries::collect(store, &[(TopologyKind::Random, ProtocolKind::Mr)], runs);
    let mut t = feature_table(
        "fig10",
        "p_max of networks with random topology using MR (normal vs wormhole attack)",
        &series,
        |r| r.p_max,
    );
    t.note(format!(
        "p_max separation {:+.3} (paper: p_max successfully detects the attack in random topologies)",
        series[0].separation(|r| r.p_max)
    ));
    t.note(
        "a fresh seeded random placement is drawn per run (substitution documented in DESIGN.md)",
    );
    t.note(format!(
        "Mann-Whitney p (attack vs normal): {:?}",
        series[0].separation_pvalue(|r| r.p_max)
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_topologies_separate_p_max() {
        let configs = [(TopologyKind::Random, ProtocolKind::Mr)];
        let s = PairedSeries::collect(&mut RunStore::default(), &configs, 4).remove(0);
        assert!(
            s.separation(|r| r.p_max) > 0.0,
            "separation {}",
            s.separation(|r| r.p_max)
        );
    }
}
