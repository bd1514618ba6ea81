//! **Fig. 8** — `p_max` and `Δ` of the 6×10 uniform network whose attack
//! link spans ~10 hops.
//!
//! The paper repeats the uniform experiment on a wider grid because the
//! 6×6 grid's short attack link separated weakly: "the length of the
//! tunneled link between attackers has to be long enough to launch a
//! wormhole attack". Expected shape: both features now separate in the
//! uniform topology too.

use crate::report::{Cell, Table};
use crate::scenario::TopologyKind;
use crate::series::PairedSeries;
use crate::store::RunStore;
use manet_routing::ProtocolKind;

/// Run the experiment.
pub fn run(store: &mut RunStore, runs: u64) -> Table {
    let configs = [(TopologyKind::uniform10x6(), ProtocolKind::Mr)];
    let s = PairedSeries::collect(store, &configs, runs).remove(0);
    let mut table = Table::new(
        "fig8",
        "p_max and Δ of the 6×10 uniform network with a ~10-hop attack link (MR)",
        vec![
            "run",
            "p_max normal",
            "p_max attack",
            "Δ normal",
            "Δ attack",
        ],
    );
    for i in 0..s.runs() {
        table.push_row(vec![
            Cell::Int(i as i64 + 1),
            Cell::Num(s.normal[i].p_max),
            Cell::Num(s.attacked[i].p_max),
            Cell::Num(s.normal[i].delta),
            Cell::Num(s.attacked[i].delta),
        ]);
    }
    table.push_row(vec![
        Cell::from("avg"),
        Cell::Num(s.normal_mean(|r| r.p_max)),
        Cell::Num(s.attacked_mean(|r| r.p_max)),
        Cell::Num(s.normal_mean(|r| r.delta)),
        Cell::Num(s.attacked_mean(|r| r.delta)),
    ]);
    table.note(format!(
        "separations: p_max {:+.3}, Δ {:+.3} (paper: both larger under attack once the link is long)",
        s.separation(|r| r.p_max),
        s.separation(|r| r.delta)
    ));
    let ties = s.attacked.iter().filter(|r| r.delta == 0.0).count();
    let non_tie: Vec<f64> = s
        .attacked
        .iter()
        .filter(|r| r.delta > 0.0)
        .map(|r| r.delta)
        .collect();
    let non_tie_mean = if non_tie.is_empty() {
        0.0
    } else {
        non_tie.iter().sum::<f64>() / non_tie.len() as f64
    };
    table.note(format!(
        "attacked runs with Δ = 0: {ties}/{} — the paper's special case ('the attackers locate at the same row or column of the source or destination'); mean Δ over the remaining attacked runs: {non_tie_mean:.3}",
        s.runs()
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_attack_link_separates_p_max_on_uniform_grid() {
        let configs = [(TopologyKind::uniform10x6(), ProtocolKind::Mr)];
        let s = PairedSeries::collect(&mut RunStore::default(), &configs, 4).remove(0);
        assert!(
            s.separation(|r| r.p_max) > 0.02,
            "p_max separation {}",
            s.separation(|r| r.p_max)
        );
    }

    #[test]
    fn long_link_separates_better_than_short_link() {
        let configs = [
            (TopologyKind::uniform10x6(), ProtocolKind::Mr),
            (TopologyKind::uniform6x6(), ProtocolKind::Mr),
        ];
        let [long, short] = <[PairedSeries; 2]>::try_from(PairedSeries::collect(
            &mut RunStore::default(),
            &configs,
            4,
        ))
        .unwrap();
        assert!(
            long.separation(|r| r.p_max) > short.separation(|r| r.p_max),
            "long {:.3} vs short {:.3}",
            long.separation(|r| r.p_max),
            short.separation(|r| r.p_max)
        );
    }
}
