//! **Fig. 7** — `Δ` of 1-tier networks using MR: 10 runs, normal vs
//! attacked, cluster and 6×6 uniform topologies.
//!
//! Expected shape: like Fig. 6 but for `Δ`; the paper also observes runs
//! where `Δ = 0` under attack because two links tie for the maximum
//! (attackers aligned with the source or destination row/column).

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
        "fig7",
        "Δ = (n_max − n_2nd)/n_max of 1-tier networks using MR (normal vs wormhole attack)",
        &series,
        |r| r.delta,
    );
    t.note(format!(
        "Δ separation (attack − normal): cluster {:+.3}, uniform {:+.3}",
        series[0].separation(|r| r.delta),
        series[1].separation(|r| r.delta)
    ));
    let ties = series
        .iter()
        .flat_map(|s| &s.attacked)
        .filter(|r| r.delta == 0.0)
        .count();
    t.note(format!(
        "attacked runs with Δ = 0 (top-two tie, the paper's special case): {ties}"
    ));
    t.note(format!(
        "Mann-Whitney p (attack vs normal): cluster {:?}, uniform {:?}",
        series[0].separation_pvalue(|r| r.delta),
        series[1].separation_pvalue(|r| r.delta)
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_delta_separates() {
        let configs = [(TopologyKind::cluster1(), ProtocolKind::Mr)];
        let series = PairedSeries::collect(&mut RunStore::default(), &configs, 4).remove(0);
        assert!(
            series.separation(|r| r.delta) > 0.0,
            "Δ separation {}",
            series.separation(|r| r.delta)
        );
    }

    #[test]
    fn table_has_runs_plus_avg_rows() {
        let t = run(&mut RunStore::default(), 2);
        assert_eq!(t.rows.len(), 3);
    }
}
