//! **Fig. 11** — `p_max` of cluster systems with different transmission
//! range (1-tier vs 2-tier) using MR.
//!
//! Expected shape: both tiers separate attack from normal — "as long as
//! the length of the attack link is much longer than the node transmission
//! range, wormhole attack will be effective" and detectable.

use crate::report::Table;
use crate::scenario::TopologyKind;
use crate::series::{feature_table, PairedSeries};
use crate::store::RunStore;
use manet_routing::ProtocolKind;

/// The two range configurations.
pub fn series(store: &mut RunStore, runs: u64) -> Vec<PairedSeries> {
    let configs = [
        (TopologyKind::cluster1(), ProtocolKind::Mr),
        (TopologyKind::cluster2(), ProtocolKind::Mr),
    ];
    PairedSeries::collect(store, &configs, runs)
}

/// Run the experiment.
pub fn run(store: &mut RunStore, runs: u64) -> Table {
    let s = series(store, runs);
    let mut t = feature_table(
        "fig11",
        "p_max of cluster systems with different transmission range (MR)",
        &s,
        |r| r.p_max,
    );
    t.note(format!(
        "p_max separation: 1-tier {:+.3}, 2-tier {:+.3}",
        s[0].separation(|r| r.p_max),
        s[1].separation(|r| r.p_max)
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_tiers_separate_p_max() {
        for s in series(&mut RunStore::default(), 3) {
            assert!(
                s.separation(|r| r.p_max) > 0.0,
                "{}: separation {}",
                s.label,
                s.separation(|r| r.p_max)
            );
        }
    }
}
