//! **Table I** — percentage of routes affected by the wormhole attack.
//!
//! 10 runs; MR and DSR side by side on the cluster and 6×6 uniform
//! topologies; a route is affected if it contains the tunneled link.
//! Expected shape (paper): ~100% for both protocols in the cluster
//! topology; MR no worse than DSR in the uniform topology; both clearly
//! nonzero everywhere.

use crate::report::{Cell, Table};
use crate::runner::{mean_of, RunRecord};
use crate::scenario::{ScenarioSpec, TopologyKind};
use crate::store::RunStore;
use manet_routing::ProtocolKind;

/// The four attacked configurations of Table I/II, in paper column order.
pub fn configurations() -> Vec<(String, ScenarioSpec)> {
    let mut v = Vec::new();
    for topology in [TopologyKind::cluster1(), TopologyKind::uniform6x6()] {
        for protocol in [ProtocolKind::Mr, ProtocolKind::Dsr] {
            v.push((
                format!("{} {}", topology.label(), protocol.label()),
                ScenarioSpec::attacked(topology, protocol),
            ));
        }
    }
    v
}

/// Runs `0..runs` of every [`configurations`] entry, as one batch:
/// `(label, records)` in column order.
pub fn configured_series(store: &mut RunStore, runs: u64) -> Vec<(String, Vec<RunRecord>)> {
    let (labels, specs): (Vec<String>, Vec<ScenarioSpec>) = configurations().into_iter().unzip();
    labels.into_iter().zip(store.series(&specs, runs)).collect()
}

/// Run the experiment.
pub fn run(store: &mut RunStore, runs: u64) -> Table {
    let series = configured_series(store, runs);

    let mut columns = vec!["run".to_string()];
    columns.extend(series.iter().map(|(l, _)| format!("{l} %affected")));
    let mut table = Table::new(
        "table1",
        format!("Percentage of routes affected by wormhole attack ({runs} runs)"),
        columns,
    );
    for i in 0..runs as usize {
        let mut row = vec![Cell::Int(i as i64 + 1)];
        row.extend(
            series
                .iter()
                .map(|(_, recs)| Cell::Num(100.0 * recs[i].affected)),
        );
        table.push_row(row);
    }
    let mut avg = vec![Cell::from("avg")];
    avg.extend(
        series
            .iter()
            .map(|(_, recs)| Cell::Num(100.0 * mean_of(recs, |r| r.affected))),
    );
    table.push_row(avg);
    table.note("paper: all routes affected in the cluster topology for both protocols");
    table.note(
        "paper: MR may perform better than DSR in the uniform topology, but remains vulnerable",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_capture_is_near_total_and_uniform_is_partial() {
        let t = run(&mut RunStore::default(), 4);
        // Columns: run, cluster-mr, cluster-dsr, uniform-mr, uniform-dsr.
        let avg = t.rows.last().unwrap();
        let get = |i: usize| match avg[i] {
            Cell::Num(v) => v,
            _ => panic!("expected number"),
        };
        assert!(get(1) > 90.0, "cluster MR avg {}", get(1));
        assert!(get(2) > 90.0, "cluster DSR avg {}", get(2));
        assert!(get(3) > 0.0, "uniform MR affected at all");
        assert!(get(4) > 0.0, "uniform DSR affected at all");
        assert_eq!(t.rows.len(), 5);
    }
}
