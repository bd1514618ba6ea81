//! **Fig. 12** — `Δ` of cluster systems with different transmission range
//! (1-tier vs 2-tier) using MR. Companion to Fig. 11.

use crate::fig11::series;
use crate::report::Table;
use crate::series::feature_table;
use crate::store::RunStore;

/// Run the experiment.
pub fn run(store: &mut RunStore, runs: u64) -> Table {
    let s = series(store, runs);
    let mut t = feature_table(
        "fig12",
        "Δ of cluster systems with different transmission range (MR)",
        &s,
        |r| r.delta,
    );
    t.note(format!(
        "Δ separation: 1-tier {:+.3}, 2-tier {:+.3}",
        s[0].separation(|r| r.delta),
        s[1].separation(|r| r.delta)
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_both_tiers() {
        let t = run(&mut RunStore::default(), 2);
        assert_eq!(t.columns.len(), 5, "run + 2 tiers × (normal, attack)");
        assert!(t.columns[1].contains("cluster-1t"));
        assert!(t.columns[3].contains("cluster-2t"));
    }
}
