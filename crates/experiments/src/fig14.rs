//! **Fig. 14** — `p_max` of 1-tier cluster systems with different routing
//! protocols (MR vs DSR). Companion to Fig. 13.
//!
//! Expected shape (paper): `p_max` separates attack from normal for
//! *both* protocols — "it is possible to perform statistical analysis to
//! detect wormhole attacks using the routes obtained from routing
//! protocols other than MR".

use crate::fig13::series;
use crate::report::Table;
use crate::series::feature_table;
use crate::store::RunStore;

/// Run the experiment.
pub fn run(store: &mut RunStore, runs: u64) -> Table {
    let s = series(store, runs);
    let mut t = feature_table(
        "fig14",
        "p_max of 1-tier cluster systems with different routing protocols",
        &s,
        |r| r.p_max,
    );
    t.note(format!(
        "p_max separation: MR {:+.3}, DSR {:+.3} (paper: the p_max feature remains usable under DSR)",
        s[0].separation(|r| r.p_max),
        s[1].separation(|r| r.p_max)
    ));
    t.note(format!(
        "Mann-Whitney p: MR {:?}, DSR {:?}",
        s[0].separation_pvalue(|r| r.p_max),
        s[1].separation_pvalue(|r| r.p_max)
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_max_separates_for_both_protocols() {
        for s in series(&mut RunStore::default(), 3) {
            assert!(
                s.separation(|r| r.p_max) > 0.0,
                "{}: p_max separation {}",
                s.label,
                s.separation(|r| r.p_max)
            );
        }
    }
}
