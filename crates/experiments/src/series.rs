//! Paired normal/attacked run series — the shape shared by every figure
//! in the paper's evaluation (10 runs, normal system vs system under
//! wormhole attack).

use crate::report::{Cell, Table};
use crate::runner::{mean_of, RunRecord};
use crate::scenario::{ScenarioSpec, TopologyKind};
use crate::store::RunStore;
use manet_routing::ProtocolKind;
use serde::{Deserialize, Serialize};

/// A labelled pair of run series over the same endpoints/seeds.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PairedSeries {
    /// Configuration label, e.g. `"cluster-1t/mr"`.
    pub label: String,
    /// Records of the normal system.
    pub normal: Vec<RunRecord>,
    /// Records of the system under attack.
    pub attacked: Vec<RunRecord>,
}

impl PairedSeries {
    /// Run `runs` paired discoveries (normal, one wormhole) for each
    /// topology/protocol configuration, as one batch.
    pub fn collect(
        store: &mut RunStore,
        configs: &[(TopologyKind, ProtocolKind)],
        runs: u64,
    ) -> Vec<Self> {
        let specs: Vec<ScenarioSpec> = configs
            .iter()
            .flat_map(|&(topology, protocol)| {
                let normal = ScenarioSpec::normal(topology, protocol);
                [normal, normal.with_wormholes(1)]
            })
            .collect();
        let mut records = store.series(&specs, runs).into_iter();
        configs
            .iter()
            .map(|(topology, protocol)| PairedSeries {
                label: format!("{}/{}", topology.label(), protocol.label()),
                normal: records.next().expect("one series per spec"),
                attacked: records.next().expect("one series per spec"),
            })
            .collect()
    }

    /// Number of runs.
    pub fn runs(&self) -> usize {
        self.normal.len()
    }

    /// Mean of a feature over the normal series.
    pub fn normal_mean(&self, f: impl Fn(&RunRecord) -> f64) -> f64 {
        mean_of(&self.normal, f)
    }

    /// Mean of a feature over the attacked series.
    pub fn attacked_mean(&self, f: impl Fn(&RunRecord) -> f64) -> f64 {
        mean_of(&self.attacked, f)
    }

    /// Separation of a feature: attacked mean − normal mean. Positive
    /// values mean the feature distinguishes attack from normal.
    pub fn separation(&self, f: impl Fn(&RunRecord) -> f64 + Copy) -> f64 {
        self.attacked_mean(f) - self.normal_mean(f)
    }

    /// Two-sided Mann–Whitney p-value that the feature's attacked and
    /// normal series come from the same distribution. `None` when the
    /// series carry no ordering information (all ties / empty).
    pub fn separation_pvalue(&self, f: impl Fn(&RunRecord) -> f64 + Copy) -> Option<f64> {
        let a: Vec<f64> = self.attacked.iter().map(&f).collect();
        let n: Vec<f64> = self.normal.iter().map(&f).collect();
        sam::mann_whitney_u(&a, &n).map(|r| r.p_two_sided)
    }
}

/// Build the paper's per-run figure table for one feature over several
/// configurations: columns `run | <label> normal | <label> attack | …`,
/// plus a trailing `avg` row.
pub fn feature_table(
    id: &str,
    title: &str,
    series: &[PairedSeries],
    feature: impl Fn(&RunRecord) -> f64 + Copy,
) -> Table {
    let mut columns = vec!["run".to_string()];
    for s in series {
        columns.push(format!("{} normal", s.label));
        columns.push(format!("{} attack", s.label));
    }
    let mut table = Table::new(id, title, columns);
    let runs = series.iter().map(PairedSeries::runs).min().unwrap_or(0);
    for i in 0..runs {
        let mut row: Vec<Cell> = vec![Cell::Int(i as i64 + 1)];
        for s in series {
            row.push(Cell::Num(feature(&s.normal[i])));
            row.push(Cell::Num(feature(&s.attacked[i])));
        }
        table.push_row(row);
    }
    let mut avg: Vec<Cell> = vec![Cell::from("avg")];
    for s in series {
        avg.push(Cell::Num(s.normal_mean(feature)));
        avg.push(Cell::Num(s.attacked_mean(feature)));
    }
    table.push_row(avg);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_series() -> PairedSeries {
        let configs = [(TopologyKind::uniform6x6(), ProtocolKind::Mr)];
        PairedSeries::collect(&mut RunStore::default(), &configs, 3).remove(0)
    }

    #[test]
    fn paired_series_aligns_runs() {
        let s = small_series();
        assert_eq!(s.runs(), 3);
        for (n, a) in s.normal.iter().zip(&s.attacked) {
            assert_eq!(n.run, a.run);
            assert_eq!((n.src, n.dst), (a.src, a.dst));
        }
    }

    #[test]
    fn feature_table_shape() {
        let s = small_series();
        let t = feature_table("figX", "demo", std::slice::from_ref(&s), |r| r.p_max);
        assert_eq!(t.columns.len(), 3);
        assert_eq!(t.rows.len(), 4, "3 runs + avg");
        assert_eq!(t.rows[3][0], Cell::from("avg"));
    }

    #[test]
    fn attack_separates_p_max_on_the_grid() {
        let s = small_series();
        assert!(
            s.separation(|r| r.p_max) > 0.0,
            "attacked p_max mean {} vs normal {}",
            s.attacked_mean(|r| r.p_max),
            s.normal_mean(|r| r.p_max)
        );
    }
}
