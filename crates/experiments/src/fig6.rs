//! **Fig. 6** — `p_max` of 1-tier networks using MR: 10 runs, normal vs
//! attacked, cluster and 6×6 uniform topologies.
//!
//! Expected shape: `p_max` clearly larger under attack in the cluster
//! topology; weaker separation in the 6×6 uniform topology, whose ~6-hop
//! attack link "has much less effect on route discovery".

use crate::report::Table;
use crate::scenario::TopologyKind;
use crate::series::{feature_table, PairedSeries};
use crate::store::RunStore;
use manet_routing::ProtocolKind;

/// Run the experiment.
pub fn run(store: &mut RunStore, runs: u64) -> Table {
    let series = PairedSeries::collect(
        store,
        &[
            (TopologyKind::cluster1(), ProtocolKind::Mr),
            (TopologyKind::uniform6x6(), ProtocolKind::Mr),
        ],
        runs,
    );
    let mut t = feature_table(
        "fig6",
        "p_max of 1-tier networks using MR (normal vs wormhole attack)",
        &series,
        |r| r.p_max,
    );
    t.note(format!(
        "p_max separation (attack − normal): cluster {:+.3}, uniform {:+.3}",
        series[0].separation(|r| r.p_max),
        series[1].separation(|r| r.p_max)
    ));
    t.note("paper: separation is strong in the cluster topology; the 6-hop uniform attack link separates weakly (motivates Fig. 8)");
    t.note(format!(
        "Mann-Whitney p (attack vs normal): cluster {:?}, uniform {:?}",
        series[0].separation_pvalue(|r| r.p_max),
        series[1].separation_pvalue(|r| r.p_max)
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_p_max_separates() {
        let configs = [(TopologyKind::cluster1(), ProtocolKind::Mr)];
        let series = PairedSeries::collect(&mut RunStore::default(), &configs, 4).remove(0);
        assert!(
            series.separation(|r| r.p_max) > 0.03,
            "separation {}",
            series.separation(|r| r.p_max)
        );
    }
}
