//! **Fig. 13** — `Δ` of 1-tier cluster systems with different routing
//! protocols (MR vs DSR).
//!
//! Expected shape (paper): the `Δ` feature does **not** carry over to DSR
//! the way `p_max` does — a DSR destination sees far fewer routes, so the
//! top-two gap is noisy ("the feature of p_max remains the same but not
//! Δ").

use crate::report::Table;
use crate::scenario::TopologyKind;
use crate::series::{feature_table, PairedSeries};
use crate::store::RunStore;
use manet_routing::ProtocolKind;

/// The two protocol configurations on the 1-tier cluster.
pub fn series(store: &mut RunStore, runs: u64) -> Vec<PairedSeries> {
    let configs = [
        (TopologyKind::cluster1(), ProtocolKind::Mr),
        (TopologyKind::cluster1(), ProtocolKind::Dsr),
    ];
    PairedSeries::collect(store, &configs, runs)
}

/// Run the experiment.
pub fn run(store: &mut RunStore, runs: u64) -> Table {
    let s = series(store, runs);
    let mut t = feature_table(
        "fig13",
        "Δ of 1-tier cluster systems with different routing protocols",
        &s,
        |r| r.delta,
    );
    t.note(format!(
        "Δ separation: MR {:+.3}, DSR {:+.3} (paper: Δ's behaviour differs under DSR)",
        s[0].separation(|r| r.delta),
        s[1].separation(|r| r.delta)
    ));
    t.note(format!(
        "mean routes per discovery: MR {:.1}, DSR {:.1}",
        s[0].attacked_mean(|r| r.n_routes as f64),
        s[1].attacked_mean(|r| r.n_routes as f64)
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsr_sees_fewer_routes_than_mr() {
        let s = series(&mut RunStore::default(), 3);
        assert!(
            s[1].attacked_mean(|r| r.n_routes as f64) < s[0].attacked_mean(|r| r.n_routes as f64),
            "DSR should collect fewer routes"
        );
    }
}
