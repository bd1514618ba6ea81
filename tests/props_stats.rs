//! Property-based tests for SAM's statistical core: link statistics,
//! PMFs, and profile math. These are the invariants the detector's
//! correctness rests on, exercised over arbitrary route sets.

use proptest::prelude::*;
use wormhole_sam::prelude::*;

/// Strategy: a loop-free route over node ids `0..pool` with 2..=len nodes.
fn arb_route(pool: u32, max_len: usize) -> impl Strategy<Value = Route> {
    proptest::sample::subsequence((0..pool).collect::<Vec<u32>>(), 2..=max_len.max(2))
        .prop_shuffle()
        .prop_map(|ids| {
            Route::new(ids.into_iter().map(NodeId).collect()).expect("subsequence is loop-free")
        })
}

/// Strategy: a route set of 1..=n routes.
fn arb_route_set(routes: usize) -> impl Strategy<Value = Vec<Route>> {
    proptest::collection::vec(arb_route(24, 8), 1..=routes)
}

/// Strategy: a route set of 1..=n routes over a small pool of nodes
/// (6–8 in use), so routes overlap heavily and a removed route often
/// holds the most frequent links.
fn arb_small_pool_route_set(pool: u32, routes: usize) -> impl Strategy<Value = Vec<Route>> {
    proptest::collection::vec(arb_route(pool, pool as usize), 1..=routes)
}

/// Check the shared-table leave-one-out against re-tabulating the set
/// without each route in turn, bit for bit.
fn check_leave_one_out(routes: &[Route]) {
    let stats = LinkStats::from_routes(routes);
    let loo = stats.leave_one_out();
    for (i, route) in routes.iter().enumerate() {
        let mut rest = routes.to_vec();
        rest.remove(i);
        let naive = LinkStats::from_routes(&rest);
        let (p_max, delta) = loo.without(route);
        prop_assert_eq!(
            p_max.to_bits(),
            naive.p_max().to_bits(),
            "p_max without route {}",
            i
        );
        prop_assert_eq!(
            delta.to_bits(),
            naive.delta().to_bits(),
            "Δ without route {}",
            i
        );
    }
}

proptest! {
    #[test]
    fn leave_one_out_matches_retabulating_the_rest(routes in arb_route_set(16)) {
        check_leave_one_out(&routes);
    }

    #[test]
    fn leave_one_out_matches_on_heavily_overlapping_sets(
        six in arb_small_pool_route_set(6, 16),
        seven in arb_small_pool_route_set(7, 16),
        eight in arb_small_pool_route_set(8, 16),
    ) {
        check_leave_one_out(&six);
        check_leave_one_out(&seven);
        check_leave_one_out(&eight);
    }

    #[test]
    fn leave_one_out_of_a_single_route_set_is_empty(route in arb_route(8, 8)) {
        let routes = [route];
        let stats = LinkStats::from_routes(&routes);
        let (p_max, delta) = stats.leave_one_out().without(&routes[0]);
        prop_assert_eq!(p_max.to_bits(), 0.0f64.to_bits());
        prop_assert_eq!(delta.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn relative_frequencies_form_a_distribution(routes in arb_route_set(20)) {
        let stats = LinkStats::from_routes(&routes);
        let freqs = stats.relative_frequencies();
        prop_assert_eq!(freqs.len(), stats.distinct_links());
        let sum: f64 = freqs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
        for f in freqs {
            prop_assert!(f > 0.0 && f <= 1.0);
        }
    }

    #[test]
    fn total_links_equals_sum_of_hops(routes in arb_route_set(20)) {
        let stats = LinkStats::from_routes(&routes);
        let hops: usize = routes.iter().map(Route::hops).sum();
        prop_assert_eq!(stats.total_links(), hops as u64);
        prop_assert_eq!(stats.route_count(), routes.len());
    }

    #[test]
    fn p_max_and_delta_are_bounded(routes in arb_route_set(20)) {
        let stats = LinkStats::from_routes(&routes);
        prop_assert!(stats.p_max() > 0.0 && stats.p_max() <= 1.0);
        prop_assert!((0.0..=1.0).contains(&stats.delta()));
    }

    #[test]
    fn suspect_link_has_the_max_count(routes in arb_route_set(20)) {
        let stats = LinkStats::from_routes(&routes);
        let suspect = stats.suspect_link().expect("non-empty set has a mode");
        let (n_max, _) = stats.top_two();
        prop_assert_eq!(stats.count(suspect), n_max);
    }

    #[test]
    fn stats_are_route_order_invariant(mut routes in arb_route_set(12), seed in any::<u64>()) {
        let before = LinkStats::from_routes(&routes);
        // Deterministic shuffle from the seed.
        let n = routes.len();
        for i in (1..n).rev() {
            let j = (seed as usize).wrapping_mul(i).wrapping_add(i) % (i + 1);
            routes.swap(i, j);
        }
        let after = LinkStats::from_routes(&routes);
        prop_assert_eq!(before.p_max(), after.p_max());
        prop_assert_eq!(before.delta(), after.delta());
        prop_assert_eq!(before.total_links(), after.total_links());
    }

    #[test]
    fn stats_are_route_direction_invariant(routes in arb_route_set(12)) {
        let forward = LinkStats::from_routes(&routes);
        let reversed: Vec<Route> = routes.iter().map(Route::reversed).collect();
        let backward = LinkStats::from_routes(&reversed);
        prop_assert_eq!(forward.p_max(), backward.p_max());
        prop_assert_eq!(forward.delta(), backward.delta());
        prop_assert_eq!(forward.suspect_link(), backward.suspect_link());
    }

    #[test]
    fn duplicating_the_set_preserves_relative_stats(routes in arb_route_set(10)) {
        let single = LinkStats::from_routes(&routes);
        let mut doubled = routes.clone();
        doubled.extend(routes.iter().cloned());
        let double = LinkStats::from_routes(&doubled);
        prop_assert!((single.p_max() - double.p_max()).abs() < 1e-12);
        prop_assert!((single.delta() - double.delta()).abs() < 1e-12);
        prop_assert_eq!(double.total_links(), 2 * single.total_links());
    }

    #[test]
    fn top_links_excluding_never_contains_excluded(routes in arb_route_set(15)) {
        let stats = LinkStats::from_routes(&routes);
        let exclude = [routes[0].src()];
        let top = stats.top_links_excluding(&exclude);
        // Either the fallback fired (all links touch the excluded node) or
        // no returned link touches it.
        let all_touch = stats.counts().all(|(l, _)| l.touches(exclude[0]));
        if !all_touch {
            for l in top {
                prop_assert!(!l.touches(exclude[0]), "{l} touches excluded");
            }
        }
    }

    #[test]
    fn pmf_masses_sum_to_one(samples in proptest::collection::vec(0.0f64..1.0, 1..200), bins in 2usize..40) {
        let pmf = Pmf::from_samples(bins, &samples);
        let sum: f64 = pmf.masses().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert_eq!(pmf.sample_count(), samples.len() as u64);
    }

    #[test]
    fn pmf_total_variation_is_a_metric_ish(
        a in proptest::collection::vec(0.0f64..1.0, 1..100),
        b in proptest::collection::vec(0.0f64..1.0, 1..100),
    ) {
        let pa = Pmf::from_samples(16, &a);
        let pb = Pmf::from_samples(16, &b);
        let d_ab = pa.total_variation(&pb);
        let d_ba = pb.total_variation(&pa);
        prop_assert!((d_ab - d_ba).abs() < 1e-12, "symmetry");
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d_ab), "bounded");
        prop_assert!(pa.total_variation(&pa) < 1e-12, "identity");
    }

    #[test]
    fn pmf_support_max_bounds_all_samples(samples in proptest::collection::vec(0.0f64..1.0, 1..100)) {
        let pmf = Pmf::from_samples(20, &samples);
        let support = pmf.support_max();
        for &s in &samples {
            prop_assert!(s <= support + 1e-12, "sample {s} beyond support {support}");
        }
    }

    #[test]
    fn forgetting_update_is_a_convex_combination(
        old in -10.0f64..10.0,
        new in -10.0f64..10.0,
        lambda in 0.0f64..1.0,
        beta in 0.0f64..1.0,
    ) {
        let v = forgetting_update(old, new, lambda, beta);
        let lo = old.min(new) - 1e-12;
        let hi = old.max(new) + 1e-12;
        prop_assert!((lo..=hi).contains(&v), "{v} outside [{lo}, {hi}]");
    }

    #[test]
    fn feature_stat_mean_between_min_and_max(samples in proptest::collection::vec(0.0f64..1.0, 1..50)) {
        let s = FeatureStat::from_samples(&samples);
        let min = samples.iter().copied().fold(f64::MAX, f64::min);
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        prop_assert!(s.mean >= min - 1e-12 && s.mean <= max + 1e-12);
        prop_assert!(s.std >= 0.0);
        prop_assert_eq!(s.max, max);
        prop_assert_eq!(s.n, samples.len());
    }

    #[test]
    fn lambda_is_bounded_and_monotone(z1 in -20.0f64..20.0, z2 in -20.0f64..20.0) {
        let d = SamDetector::default();
        let l1 = d.lambda_of_z(z1);
        let l2 = d.lambda_of_z(z2);
        prop_assert!((0.0..=1.0).contains(&l1));
        if z1 < z2 {
            prop_assert!(l1 >= l2, "λ must be non-increasing in z");
        }
    }
}
