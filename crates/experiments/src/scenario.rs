//! Scenario definitions shared by every experiment.
//!
//! A [`ScenarioSpec`] pins down everything one simulated run needs:
//! topology family, transmission-range tier, routing protocol, and which
//! wormhole pairs are active. Runs are **paired**: run `i` of the normal
//! and attacked variants draw the same source/destination and use the same
//! engine seed, so normal-vs-attack comparisons (every figure of the
//! paper) are apples-to-apples per run.

use manet_routing::ProtocolKind;
use manet_sim::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The paper's topology families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Fig. 1: two 4×4 clusters + 2×5 bridge. `tier` ∈ {1, 2}.
    Cluster {
        /// Transmission-range tier.
        tier: u8,
    },
    /// Fig. 2 / Fig. 8: unit grid, wormhole across the width.
    Uniform {
        /// Grid columns (6 or 10 in the paper).
        cols: usize,
        /// Grid rows (6 in the paper).
        rows: usize,
        /// Transmission-range tier.
        tier: u8,
    },
    /// Fig. 9: uniform-random placement, fresh per run seed.
    Random,
}

impl TopologyKind {
    /// Build the network plan. For [`TopologyKind::Random`] the placement
    /// depends on `run_seed` (a fresh topology per run); the fixed
    /// topologies ignore it.
    pub fn build(&self, run_seed: u64) -> NetworkPlan {
        match *self {
            TopologyKind::Cluster { tier } => two_cluster(tier),
            TopologyKind::Uniform { cols, rows, tier } => uniform_grid(cols, rows, tier),
            TopologyKind::Random => random_topology(run_seed),
        }
    }

    /// Short label for table headers.
    pub fn label(&self) -> String {
        match *self {
            TopologyKind::Cluster { tier } => format!("cluster-{tier}t"),
            TopologyKind::Uniform { cols, rows, tier } => format!("uni{cols}x{rows}-{tier}t"),
            TopologyKind::Random => "random".to_string(),
        }
    }

    /// The paper's four fixed setups.
    pub fn cluster1() -> Self {
        TopologyKind::Cluster { tier: 1 }
    }
    /// 2-tier cluster (Fig. 11–12).
    pub fn cluster2() -> Self {
        TopologyKind::Cluster { tier: 2 }
    }
    /// The 6×6 uniform grid (Fig. 2).
    pub fn uniform6x6() -> Self {
        TopologyKind::Uniform {
            cols: 6,
            rows: 6,
            tier: 1,
        }
    }
    /// The 6×10 uniform grid with the long attack link (Fig. 8).
    pub fn uniform10x6() -> Self {
        TopologyKind::Uniform {
            cols: 10,
            rows: 6,
            tier: 1,
        }
    }
}

/// Offset separating profile-training run indices from evaluation runs,
/// so a profile never sees its own evaluation data. Every experiment and
/// the serving catalogue train on runs `TRAIN_OFFSET + i`; one shared
/// value lets the run store dedup those training runs across experiments.
pub const TRAIN_OFFSET: u64 = 1000;

/// Deterministic per-run seed derivation: mixes the experiment's base seed
/// with the run index (splitmix64-style finalizer).
pub fn derive_seed(base: u64, run: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(run.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draw this run's source and destination from the plan's pools, per the
/// paper's rules ("randomly chosen in one cluster / from the left side").
pub fn draw_endpoints(plan: &NetworkPlan, run_seed: u64) -> (NodeId, NodeId) {
    let mut rng = StdRng::seed_from_u64(derive_seed(run_seed, 0xE0D5));
    let src = plan.src_pool[rng.random_range(0..plan.src_pool.len())];
    let dst = plan.dst_pool[rng.random_range(0..plan.dst_pool.len())];
    (src, dst)
}

/// The base seed every stock scenario starts from (spells "SAM"); run
/// `i` derives its own with [`derive_seed`].
pub const DEFAULT_BASE_SEED: u64 = 0x5A4D;

/// A fully pinned-down experiment scenario.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Topology family.
    pub topology: TopologyKind,
    /// Routing protocol.
    pub protocol: ProtocolKind,
    /// Number of wormhole pairs active (0 = normal system).
    pub active_wormholes: usize,
    /// Base seed; run `i` derives its own.
    pub base_seed: u64,
}

impl ScenarioSpec {
    /// A normal (attack-free) scenario.
    pub fn normal(topology: TopologyKind, protocol: ProtocolKind) -> Self {
        ScenarioSpec {
            topology,
            protocol,
            active_wormholes: 0,
            base_seed: DEFAULT_BASE_SEED,
        }
    }

    /// The same scenario with one wormhole active.
    pub fn attacked(topology: TopologyKind, protocol: ProtocolKind) -> Self {
        ScenarioSpec {
            active_wormholes: 1,
            ..Self::normal(topology, protocol)
        }
    }

    /// Same scenario, different number of active wormholes.
    pub fn with_wormholes(mut self, n: usize) -> Self {
        self.active_wormholes = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_all_paper_topologies() {
        for kind in [
            TopologyKind::cluster1(),
            TopologyKind::cluster2(),
            TopologyKind::uniform6x6(),
            TopologyKind::uniform10x6(),
            TopologyKind::Random,
        ] {
            let plan = kind.build(3);
            plan.validate().unwrap();
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn random_kind_varies_with_seed_fixed_kinds_do_not() {
        let a = TopologyKind::Random.build(1);
        let b = TopologyKind::Random.build(2);
        assert_ne!(a.topology.positions()[0].x, b.topology.positions()[0].x);
        let c = TopologyKind::cluster1().build(1);
        let d = TopologyKind::cluster1().build(2);
        assert_eq!(c.topology.positions(), d.topology.positions());
    }

    #[test]
    fn derive_seed_spreads_runs() {
        let s: Vec<u64> = (0..10).map(|i| derive_seed(42, i)).collect();
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 10);
    }

    #[test]
    fn endpoints_come_from_pools_and_are_deterministic() {
        let plan = TopologyKind::cluster1().build(0);
        let (s1, d1) = draw_endpoints(&plan, 7);
        let (s2, d2) = draw_endpoints(&plan, 7);
        assert_eq!((s1, d1), (s2, d2));
        assert!(plan.src_pool.contains(&s1));
        assert!(plan.dst_pool.contains(&d1));
        let (s3, d3) = draw_endpoints(&plan, 8);
        assert!(
            s3 != s1 || d3 != d1,
            "different run, different draw (w.h.p.)"
        );
    }

    #[test]
    fn spec_constructors() {
        let n = ScenarioSpec::normal(TopologyKind::cluster1(), ProtocolKind::Mr);
        assert_eq!(n.active_wormholes, 0);
        let a = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
        assert_eq!(a.active_wormholes, 1);
        assert_eq!(a.base_seed, n.base_seed, "paired seeds");
        assert_eq!(n.with_wormholes(2).active_wormholes, 2);
    }
}
