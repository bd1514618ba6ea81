//! **Fig. 5** — PMF of the link relative frequency `n/N` in the normal
//! system and under wormhole attack (single run, 1-tier cluster, MR).
//!
//! Expected shape: the normal PMF's support ends around ~9% while the
//! attacked PMF has an isolated outlier beyond 15% — the attack link
//! "locates far apart from other links".

use crate::report::{Cell, Table};
use crate::scenario::{ScenarioSpec, TopologyKind};
use crate::store::{RunKey, RunStore};
use manet_routing::ProtocolKind;
use sam::{LinkStats, Pmf};

/// Number of histogram bins (5% resolution over [0, 1]).
pub const BINS: usize = 20;

/// Run the experiment: one paired run, PMFs side by side.
pub fn run(store: &mut RunStore, run_idx: u64) -> Table {
    let normal_spec = ScenarioSpec::normal(TopologyKind::cluster1(), ProtocolKind::Mr);
    let attacked_spec = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
    let pair = store.fetch(&[
        RunKey::plain(&normal_spec, run_idx),
        RunKey::plain(&attacked_spec, run_idx),
    ]);
    let ((rec_n, routes_n), (rec_a, routes_a)) = (&*pair[0], &*pair[1]);

    let freq_n = LinkStats::from_routes(routes_n).relative_frequencies();
    let freq_a = LinkStats::from_routes(routes_a).relative_frequencies();
    let pmf_n = Pmf::from_samples(BINS, &freq_n);
    let pmf_a = Pmf::from_samples(BINS, &freq_a);

    let mut table = Table::new(
        "fig5",
        "PMF of n/N (link relative frequency), normal vs under wormhole attack (single run, 1-tier cluster, MR)",
        vec!["bin (n/N)", "normal mass", "attack mass"],
    );
    for i in 0..BINS {
        // Skip the long zero tail beyond both supports for readability.
        if pmf_n.mass(i) == 0.0 && pmf_a.mass(i) == 0.0 && pmf_n.bin_center(i) > 0.5 {
            continue;
        }
        table.push_row(vec![
            Cell::Str(format!(
                "[{:.2},{:.2})",
                i as f64 / BINS as f64,
                (i + 1) as f64 / BINS as f64
            )),
            Cell::Num(pmf_n.mass(i)),
            Cell::Num(pmf_a.mass(i)),
        ]);
    }
    table.note(format!(
        "highest relative frequency: normal {:.3}, attacked {:.3} (paper: ~0.09 vs >0.15)",
        rec_n.p_max, rec_a.p_max
    ));
    table.note(format!(
        "normal support ends at {:.2}; attacked support at {:.2} — the isolated outlier is the attack link",
        pmf_n.support_max(),
        pmf_a.support_max()
    ));
    table.note(format!(
        "routes collected: normal {}, attacked {}",
        rec_n.n_routes, rec_a.n_routes
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attacked_pmf_reaches_further_right_than_normal() {
        let normal_spec = ScenarioSpec::normal(TopologyKind::cluster1(), ProtocolKind::Mr);
        let attacked_spec = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
        let (rec_n, _) = crate::runner::run_once_with_routes(&normal_spec, 1);
        let (rec_a, _) = crate::runner::run_once_with_routes(&attacked_spec, 1);
        assert!(
            rec_a.p_max > rec_n.p_max,
            "attacked p_max {} vs normal {}",
            rec_a.p_max,
            rec_n.p_max
        );
    }

    #[test]
    fn table_renders_with_three_columns() {
        let t = run(&mut RunStore::default(), 0);
        assert_eq!(t.columns.len(), 3);
        assert!(!t.rows.is_empty());
        assert!(t.render().contains("normal mass"));
    }
}
