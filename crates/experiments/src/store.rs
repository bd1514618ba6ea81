//! The run store: every simulated run an experiment needs, keyed by its
//! full input and filled in parallel.
//!
//! A run is a pure function of its [`RunKey`] (the simulator's
//! determinism contract). An experiment lists the keys it needs,
//! [`RunStore::fetch`] simulates each missing key once on a scoped
//! worker pool, and the experiment folds the results in run order.
//! Workers decide only *when* a run is simulated, never what it returns
//! or the order a sum sees it in, so tables are byte-identical whatever
//! the worker count. One store lives for a whole `reproduce`
//! invocation: a run shared by several tables is simulated once.
//!
//! Work that is not a plain run (a probed procedure, a perturbed
//! topology, a lossy radio) goes through the same pool with
//! [`RunStore::map`].

use crate::runner::{default_jobs, run_once_faulted, RunRecord};
use crate::scenario::{ScenarioSpec, TopologyKind};
use manet_attacks::{DropPolicy, TunnelPolicy, WormholeConfig, WormholeMode};
use manet_routing::{ProtocolKind, Route, RouterConfig};
use manet_sim::SimDuration;
use sam_faults::{ChurnEvent, ChurnKind, FaultPlan, JitterSpec, LossBurst, Region};
use sam_telemetry::SpanParent;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One simulated run: its record and the discovered route set, shared
/// by every experiment that asks for the same key.
pub type Run = Arc<(RunRecord, Vec<Route>)>;

/// Everything one simulated run depends on: scenario, run index, router
/// and wormhole configuration, and an optional fault plan.
///
/// Equality and hashing read a canonical encoding of every field (floats
/// by `to_bits`). The encoders destructure each input without `..`, so a
/// new configuration field does not compile until the key covers it and
/// two different runs can never share a key.
#[derive(Clone, Debug)]
pub struct RunKey {
    spec: ScenarioSpec,
    run: u64,
    router: RouterConfig,
    worm: WormholeConfig,
    faults: Option<FaultPlan>,
    words: Box<[u64]>,
}

impl RunKey {
    /// The key of one run with explicit configurations.
    pub fn new(
        spec: ScenarioSpec,
        run: u64,
        router: RouterConfig,
        worm: WormholeConfig,
        faults: Option<FaultPlan>,
    ) -> RunKey {
        let mut words = Vec::new();
        spec.encode(&mut words);
        run.encode(&mut words);
        router.encode(&mut words);
        worm.encode(&mut words);
        faults.encode(&mut words);
        RunKey {
            spec,
            run,
            router,
            worm,
            faults,
            words: words.into_boxed_slice(),
        }
    }

    /// Run `run` of `spec` under `router` and `worm`, without faults.
    pub fn configured(
        spec: &ScenarioSpec,
        run: u64,
        router: &RouterConfig,
        worm: WormholeConfig,
    ) -> RunKey {
        RunKey::new(*spec, run, router.clone(), worm, None)
    }

    /// Run `run` of `spec` with the protocol's default router, the
    /// paper's wormhole and no faults.
    pub fn plain(spec: &ScenarioSpec, run: u64) -> RunKey {
        RunKey::configured(
            spec,
            run,
            &RouterConfig::new(spec.protocol),
            WormholeConfig::default(),
        )
    }

    fn simulate(&self) -> (RunRecord, Vec<Route>) {
        run_once_faulted(
            &self.spec,
            self.run,
            &self.router,
            self.worm,
            self.faults.as_ref(),
        )
    }
}

impl PartialEq for RunKey {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl Eq for RunKey {}

impl Hash for RunKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words.hash(state);
    }
}

/// Simulated runs by key, plus the worker count that fills them.
pub struct RunStore {
    jobs: usize,
    runs: HashMap<RunKey, Run>,
}

impl Default for RunStore {
    /// A store with one worker per available core.
    fn default() -> Self {
        RunStore::new(default_jobs())
    }
}

impl RunStore {
    /// An empty store that simulates on `jobs` workers (at least one).
    pub fn new(jobs: usize) -> RunStore {
        RunStore {
            jobs: jobs.max(1),
            runs: HashMap::new(),
        }
    }

    /// The runs of `keys`, in request order. Each key not yet in the
    /// store is simulated once, in parallel; the rest (including
    /// repeats within `keys`) count as `discovery.cache_hits`.
    pub fn fetch(&mut self, keys: &[RunKey]) -> Vec<Run> {
        let mut queued = HashSet::new();
        let missing: Vec<&RunKey> = keys
            .iter()
            .filter(|&key| !self.runs.contains_key(key) && queued.insert(key))
            .collect();
        let hits = keys.len() - missing.len();
        if hits > 0 {
            if let Some(tel) = sam_telemetry::global() {
                tel.registry()
                    .counter("discovery.cache_hits")
                    .add(hits as u64);
            }
        }
        let simulated = self.map(&missing, |key| key.simulate());
        for (key, run) in missing.into_iter().zip(simulated) {
            self.runs.insert(key.clone(), Arc::new(run));
        }
        keys.iter().map(|key| self.runs[key].clone()).collect()
    }

    /// [`fetch`](Self::fetch) runs `0..n` of every family as one batch;
    /// `key(family, run)` names each run. One `Vec` per family, in run
    /// order.
    pub(crate) fn fetch_series<F>(
        &mut self,
        families: &[F],
        n: u64,
        key: impl Fn(&F, u64) -> RunKey,
    ) -> Vec<Vec<Run>> {
        let keys: Vec<RunKey> = families
            .iter()
            .flat_map(|family| (0..n).map(|run| key(family, run)).collect::<Vec<_>>())
            .collect();
        let mut runs = self.fetch(&keys).into_iter();
        families
            .iter()
            .map(|_| runs.by_ref().take(n as usize).collect())
            .collect()
    }

    /// Records of runs `0..n` of every spec (see [`RunKey::plain`]),
    /// fetched as one batch. One `Vec` per spec, in run order.
    pub fn series(&mut self, specs: &[ScenarioSpec], n: u64) -> Vec<Vec<RunRecord>> {
        self.fetch_series(specs, n, RunKey::plain)
            .into_iter()
            .map(|runs| runs.iter().map(|run| run.0.clone()).collect())
            .collect()
    }

    /// `f` over `items` on the store's workers, results in item order.
    /// Spans opened by `f` nest under the caller's innermost span. With
    /// one worker or at most one item, `f` runs on the calling thread.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let threads = self.jobs.min(items.len());
        if threads <= 1 {
            return items.iter().map(f).collect();
        }
        let parent = SpanParent::current();
        let cursor = AtomicUsize::new(0);
        let (cursor, f) = (&cursor, &f);
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(move || {
                        let _parent = parent.map(SpanParent::enter);
                        let mut done = Vec::new();
                        loop {
                            // Relaxed: the cursor only hands out indices;
                            // results travel back through `join`.
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else {
                                return done;
                            };
                            done.push((i, f(item)));
                        }
                    })
                })
                .collect();
            for worker in workers {
                let done = worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (i, result) in done {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every item mapped"))
            .collect()
    }
}

/// Canonical encoding of a run input as `u64` words: floats by
/// `to_bits`, enum variants by a leading tag, variable-length parts by a
/// leading length, so distinct inputs never encode alike.
trait Encode {
    fn encode(&self, out: &mut Vec<u64>);
}

/// Integers, booleans and fieldless enums: one word each (a variant
/// that gains data stops the cast from compiling).
macro_rules! encode_as_word {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u64>) {
                out.push(*self as u64);
            }
        }
    )*};
}

encode_as_word!(
    u64,
    u32,
    u8,
    usize,
    bool,
    ProtocolKind,
    WormholeMode,
    ChurnKind
);

/// Structs: every field in order. The pattern names each field without
/// `..`, so a new field does not compile until it is listed here.
macro_rules! encode_fields {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u64>) {
                let $ty { $($field),* } = self;
                $($field.encode(out);)*
            }
        }
    )*};
}

encode_fields! {
    ScenarioSpec { topology, protocol, active_wormholes, base_seed }
    RouterConfig { protocol, collection_window, max_forwards, rrep_routes, reference_stores }
    WormholeConfig { mode, tunnel_latency, drop, tunneling }
    FaultPlan { name, loss_bursts, churn, jitter }
    LossBurst { start_us, end_us, prob, region }
    Region { x, y, radius }
    ChurnEvent { at_us, node, kind }
    JitterSpec { dup_prob, dup_delay_us, reorder_prob, reorder_delay_us }
}

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.to_bits());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u64>) {
        self.len().encode(out);
        for chunk in self.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            out.push(u64::from_le_bytes(word));
        }
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u64>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.encode(out);
            }
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u64>) {
        self.len().encode(out);
        for x in self {
            x.encode(out);
        }
    }
}

impl Encode for SimDuration {
    fn encode(&self, out: &mut Vec<u64>) {
        let SimDuration(micros) = self;
        micros.encode(out);
    }
}

impl Encode for TopologyKind {
    fn encode(&self, out: &mut Vec<u64>) {
        match self {
            TopologyKind::Cluster { tier } => {
                out.push(0);
                tier.encode(out);
            }
            TopologyKind::Uniform { cols, rows, tier } => {
                out.push(1);
                cols.encode(out);
                rows.encode(out);
                tier.encode(out);
            }
            TopologyKind::Random => out.push(2),
        }
    }
}

impl Encode for DropPolicy {
    fn encode(&self, out: &mut Vec<u64>) {
        match self {
            DropPolicy::Relay => out.push(0),
            DropPolicy::Blackhole => out.push(1),
            DropPolicy::Grayhole(p) => {
                out.push(2);
                p.encode(out);
            }
        }
    }
}

impl Encode for TunnelPolicy {
    fn encode(&self, out: &mut Vec<u64>) {
        match self {
            TunnelPolicy::Always => out.push(0),
            TunnelPolicy::Selective(p) => {
                out.push(1);
                p.encode(out);
            }
            TunnelPolicy::DutyCycle { period_us, on_us } => {
                out.push(2);
                period_us.encode(out);
                on_us.encode(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(key: &RunKey) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    fn base() -> RunKey {
        let spec = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
        RunKey::new(
            spec,
            3,
            RouterConfig::new(ProtocolKind::Mr),
            WormholeConfig::default(),
            Some(FaultPlan::constant_loss(0.1)),
        )
    }

    /// `base()` with one input changed by `edit`.
    fn edited(edit: impl FnOnce(&mut RunKey)) -> RunKey {
        let mut key = base();
        edit(&mut key);
        RunKey::new(key.spec, key.run, key.router, key.worm, key.faults)
    }

    #[test]
    fn equal_inputs_give_equal_keys_and_hashes() {
        let (a, b) = (base(), base());
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        let plain = ScenarioSpec::normal(TopologyKind::uniform6x6(), ProtocolKind::Dsr);
        assert_eq!(
            RunKey::plain(&plain, 2),
            RunKey::configured(
                &plain,
                2,
                &RouterConfig::new(ProtocolKind::Dsr),
                WormholeConfig::default()
            )
        );
    }

    #[test]
    fn keys_differing_in_any_one_field_are_unequal() {
        let variants: Vec<(&str, RunKey)> = vec![
            ("run", edited(|k| k.run = 4)),
            (
                "topology",
                edited(|k| k.spec.topology = TopologyKind::cluster2()),
            ),
            (
                "spec protocol",
                edited(|k| k.spec.protocol = ProtocolKind::Dsr),
            ),
            ("active_wormholes", edited(|k| k.spec.active_wormholes = 2)),
            ("base_seed", edited(|k| k.spec.base_seed += 1)),
            (
                "router protocol",
                edited(|k| k.router.protocol = ProtocolKind::Smr),
            ),
            (
                "collection_window",
                edited(|k| k.router.collection_window = SimDuration::from_millis(25)),
            ),
            ("max_forwards", edited(|k| k.router.max_forwards = 63)),
            ("rrep_routes", edited(|k| k.router.rrep_routes = 4)),
            (
                "reference_stores",
                edited(|k| k.router.reference_stores = true),
            ),
            ("mode", edited(|k| k.worm.mode = WormholeMode::Hidden)),
            (
                "tunnel_latency",
                edited(|k| k.worm.tunnel_latency = SimDuration::from_micros(201)),
            ),
            ("drop", edited(|k| k.worm.drop = DropPolicy::Blackhole)),
            (
                "drop prob",
                edited(|k| k.worm.drop = DropPolicy::Grayhole(0.0)),
            ),
            (
                "tunneling",
                edited(|k| k.worm.tunneling = TunnelPolicy::Selective(1.0)),
            ),
            (
                "selective p",
                edited(|k| {
                    k.worm.tunneling = TunnelPolicy::Selective(f64::from_bits(1.0f64.to_bits() - 1))
                }),
            ),
            (
                "duty cycle",
                edited(|k| {
                    k.worm.tunneling = TunnelPolicy::DutyCycle {
                        period_us: 4_000,
                        on_us: 2_001,
                    }
                }),
            ),
            ("no faults", edited(|k| k.faults = None)),
            (
                "fault prob",
                edited(|k| {
                    let plan = k.faults.as_mut().unwrap();
                    plan.loss_bursts[0].prob = f64::from_bits(0.1f64.to_bits() + 1);
                }),
            ),
            (
                "fault region",
                edited(|k| {
                    let plan = k.faults.take().unwrap();
                    k.faults = Some(FaultPlan {
                        loss_bursts: vec![plan.loss_bursts[0].in_region(0.0, 0.0, 1.0)],
                        ..plan
                    });
                }),
            ),
            (
                "fault name",
                edited(|k| {
                    let plan = k.faults.take().unwrap();
                    k.faults = Some(plan.named("other"));
                }),
            ),
            (
                "churn",
                edited(|k| {
                    let plan = k.faults.take().unwrap();
                    k.faults = Some(plan.with_churn(5_000, 5, ChurnKind::Crash));
                }),
            ),
            (
                "jitter",
                edited(|k| k.faults.as_mut().unwrap().jitter = Some(JitterSpec::none())),
            ),
        ];
        let base = base();
        for (field, key) in &variants {
            assert_ne!(&base, key, "{field} must enter the key");
        }
        for (i, (a, ka)) in variants.iter().enumerate() {
            for (b, kb) in &variants[i + 1..] {
                assert_ne!(ka, kb, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn negative_zero_is_a_different_input() {
        // `0.0 == -0.0` as floats, but the bits differ, and so may the
        // simulation: keys compare bits.
        let a = edited(|k| k.worm.drop = DropPolicy::Grayhole(0.0));
        let b = edited(|k| k.worm.drop = DropPolicy::Grayhole(-0.0));
        assert_ne!(a, b);
    }

    #[test]
    fn fetch_dedups_and_returns_request_order() {
        let spec = ScenarioSpec::attacked(TopologyKind::uniform6x6(), ProtocolKind::Mr);
        let keys: Vec<RunKey> = [2u64, 0, 2, 1]
            .iter()
            .map(|&r| RunKey::plain(&spec, r))
            .collect();
        let mut store = RunStore::new(3);
        let runs = store.fetch(&keys);
        assert_eq!(store.runs.len(), 3, "the repeated key simulates once");
        let order: Vec<u64> = runs.iter().map(|r| r.0.run).collect();
        assert_eq!(order, [2, 0, 2, 1]);
        assert!(Arc::ptr_eq(&runs[0], &runs[2]));
        let again = store.fetch(&keys[1..2]);
        assert!(Arc::ptr_eq(&again[0], &runs[1]), "served from the store");
    }

    #[test]
    fn map_preserves_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        for jobs in [1, 2, 5, 64] {
            let out = RunStore::new(jobs).map(&items, |&x| x * x);
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
        assert!(RunStore::new(4).map(&[] as &[u64], |&x| x).is_empty());
    }

    #[test]
    fn series_records_are_invariant_in_job_count() {
        let specs = [
            ScenarioSpec::attacked(TopologyKind::uniform6x6(), ProtocolKind::Mr),
            ScenarioSpec::normal(TopologyKind::cluster1(), ProtocolKind::Dsr),
        ];
        let one = RunStore::new(1).series(&specs, 4);
        for jobs in [2, 8] {
            let many = RunStore::new(jobs).series(&specs, 4);
            for (a, b) in one.iter().flatten().zip(many.iter().flatten()) {
                assert_eq!(a.run, b.run);
                assert_eq!(a.p_max.to_bits(), b.p_max.to_bits());
                assert_eq!(a.delta.to_bits(), b.delta.to_bits());
                assert_eq!(a.overhead, b.overhead);
            }
        }
        assert_eq!(one[1][3].run, 3);
        assert!(RunStore::new(2).series(&specs, 0).iter().all(Vec::is_empty));
    }
}
