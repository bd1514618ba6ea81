//! **Table II** — overhead of route discovery.
//!
//! "The total number of transmissions and receptions at all nodes is
//! collected for each run … The overhead of MR is more than twice (on
//! average) of that of DSR, as expected." Same configurations and paired
//! runs as Table I.

use crate::report::{Cell, Table};
use crate::runner::{mean_of, RunRecord};
use crate::store::RunStore;
use crate::table1::configured_series;

/// Run the experiment.
pub fn run(store: &mut RunStore, runs: u64) -> Table {
    let series: Vec<(String, Vec<RunRecord>)> = configured_series(store, runs);

    let mut columns = vec!["run".to_string()];
    columns.extend(series.iter().map(|(l, _)| format!("{l} tx+rx")));
    let mut table = Table::new(
        "table2",
        "Overhead of route discovery: total transmissions + receptions at all nodes",
        columns,
    );
    for i in 0..runs as usize {
        let mut row = vec![Cell::Int(i as i64 + 1)];
        row.extend(series.iter().map(|(_, recs)| Cell::from(recs[i].overhead)));
        table.push_row(row);
    }
    let mut avg = vec![Cell::from("avg")];
    avg.extend(
        series
            .iter()
            .map(|(_, recs)| Cell::Num(mean_of(recs, |r| r.overhead as f64))),
    );
    table.push_row(avg);

    // The headline ratio.
    let mr_cluster = mean_of(&series[0].1, |r| r.overhead as f64);
    let dsr_cluster = mean_of(&series[1].1, |r| r.overhead as f64);
    let mr_uni = mean_of(&series[2].1, |r| r.overhead as f64);
    let dsr_uni = mean_of(&series[3].1, |r| r.overhead as f64);
    table.note(format!(
        "MR/DSR overhead ratio: cluster {:.2}x, uniform {:.2}x (paper: more than 2x on average)",
        mr_cluster / dsr_cluster,
        mr_uni / dsr_uni
    ));
    table.note("justified by discovery frequency: MR re-discovers only when ALL paths break");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mr_overhead_exceeds_dsr() {
        let t = run(&mut RunStore::default(), 3);
        let avg = t.rows.last().unwrap();
        let get = |i: usize| match avg[i] {
            Cell::Num(v) => v,
            _ => panic!("expected number"),
        };
        assert!(
            get(1) > get(2),
            "cluster: MR {} should exceed DSR {}",
            get(1),
            get(2)
        );
        assert!(
            get(3) > get(4),
            "uniform: MR {} should exceed DSR {}",
            get(3),
            get(4)
        );
    }
}
