//! Differential tests of the tiered unranker (DESIGN.md §11).
//!
//! Every unrank and sample entry point runs the one mixed-radix
//! unranker on the fastest rung of the tier ladder the space qualifies
//! for — `u64` when every count fits one limb, `u128` when every count
//! fits two, exact `Nat` beyond that. Correctness here is entirely
//! differential against the test-owned recursive exact-`Nat` reference
//! (`common::reference_unrank`, which shares no code with the library):
//! on the *same seed*, `sample_batch_flat` and `sample_batch` must
//! reproduce the reference's plans bit for bit —
//!
//! * on random optimizer-built join-graph topologies (all single-limb
//!   at these sizes, so the `u64` tier is what's exercised);
//! * on the same spaces *forced* down the ladder with
//!   [`PlanSpace::force_tier`] — the `u128` rung and the `Nat` rung
//!   must emit the identical batches, across 1/2/4 threads;
//! * on directly synthesized spaces straddling the tier boundaries:
//!   chain/cycle graphs around the single-limb edge, clique-9 (the
//!   smallest clique past one limb, now served by the `u128` tier), and
//!   a chain long enough that its total genuinely needs three limbs
//!   (the remaining `Nat` regime);
//! * and the criteria themselves are pinned: `tier()` must reflect
//!   exactly whether every count fits one / two limbs.
//!
//! `unrank`, `unrank_rooted` and `sample_rooted` are held to the same
//! reference on every expression of the paper example and of a
//! 5-relation space, forced onto each tier.
//!
//! clique-10 (the bench's u128 regime) is covered when
//! `PLANSAMPLE_STATISTICAL=1` — its debug-mode memo synthesis is too
//! slow for the fast test tier.

mod common;

use common::{reference_sample, reference_unrank, reference_unrank_rooted};
use plansample::{paper_example, CountTier, PlanBatch, PlanSpace};
use plansample_bignum::Nat;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_optimizer::{optimize, OptimizerConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Draws `k` plans through both batch samplers on `seed` and asserts
/// each equals the reference's plans from the same seed.
fn assert_flat_matches_tree(space: &PlanSpace, seed: u64, k: usize) {
    let reference = reference_sample(space, seed, k);
    assert_batches_match(space, seed, &reference, "");
}

/// `sample_batch_flat` and `sample_batch` on `seed` both reproduce
/// `reference` draw for draw.
fn assert_batches_match(
    space: &PlanSpace,
    seed: u64,
    reference: &[plansample_memo::PlanNode],
    at: &str,
) {
    let mut flat = PlanBatch::new();
    let mut rng = StdRng::seed_from_u64(seed);
    space.sample_batch_flat(&mut rng, reference.len(), &mut flat);
    assert_eq!(flat.len(), reference.len());
    for (i, (ids, tree)) in flat.iter().zip(reference).enumerate() {
        assert_eq!(
            ids,
            tree.preorder_ids().as_slice(),
            "flat draw {i} diverged (tier={}{at})",
            space.counts().tier()
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let trees = space.sample_batch(&mut rng, reference.len());
    for (i, (tree, expect)) in trees.iter().zip(reference).enumerate() {
        assert_eq!(
            tree,
            expect,
            "tree draw {i} diverged (tier={}{at})",
            space.counts().tier()
        );
    }
}

/// `assert_flat_matches_tree` at every tier the space can be forced
/// onto, at 1, 2, and 4 worker threads — `k` is chosen large enough
/// (≥ 512) that multi-thread runs take the parallel shard path. The
/// reference plans are drawn once; every (tier, threads) combination
/// must reproduce them.
fn assert_tiers_and_threads_agree(space: &PlanSpace, seed: u64, k: usize) {
    let reference = reference_sample(space, seed, k);
    for tier in [CountTier::U64, CountTier::U128, CountTier::Nat] {
        let mut forced = space.clone();
        forced.force_tier(tier);
        for threads in [1usize, 2, 4] {
            let at = format!(", forced tier={tier}, {threads} threads");
            threadpool::with_threads(threads, || {
                assert_batches_match(&forced, seed, &reference, &at)
            });
        }
    }
}

/// `unrank`, `unrank_rooted` and `sample_rooted` against the reference,
/// with `space` forced onto each tier in turn: every expression with a
/// non-empty sub-space, at its first, middle and last rank (every rank
/// when the sub-space has at most `exhaustive` plans), plus one rooted
/// sample per expression and whole-space ranks.
fn assert_single_plan_paths_match(space: &PlanSpace, seed: u64, exhaustive: u64) {
    for tier in [CountTier::U64, CountTier::U128, CountTier::Nat] {
        let mut forced = space.clone();
        forced.force_tier(tier);
        let tier = forced.counts().tier();
        let probes = |n: &Nat| -> Vec<Nat> {
            match n.to_u64() {
                Some(n) if n <= exhaustive => (0..n).map(Nat::from).collect(),
                _ => {
                    let last = n.checked_sub(&Nat::one()).expect("non-empty");
                    let (mid, _) = n.div_rem(&Nat::from(2u64));
                    vec![Nat::zero(), mid, last]
                }
            }
        };
        for rank in probes(forced.total()) {
            assert_eq!(
                forced.unrank(&rank).unwrap(),
                reference_unrank(space, &rank),
                "unrank({rank}) diverged (tier={tier})"
            );
        }
        for (i, v) in space.links().all_ids().enumerate() {
            let n = space.count_rooted(v);
            if n.is_zero() {
                continue;
            }
            for rank in probes(n) {
                assert_eq!(
                    forced.unrank_rooted(v, &rank).unwrap(),
                    reference_unrank_rooted(space, v, &rank),
                    "unrank_rooted({v}, {rank}) diverged (tier={tier})"
                );
            }
            let seed = seed ^ i as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let expect = reference_unrank_rooted(space, v, &Nat::random_below(&mut rng, n));
            let mut rng = StdRng::seed_from_u64(seed);
            assert_eq!(
                forced.sample_rooted(&mut rng, v),
                expect,
                "sample_rooted({v}) diverged (tier={tier})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random topology × size × seed over optimizer-built memos: the
    /// flat sampler is indistinguishable from the tree sampler.
    #[test]
    fn fast_path_matches_nat_path_on_random_topologies(
        topo_sel in 0usize..4,
        rels in 3usize..6,
        seed in 0u64..1000,
    ) {
        let spec = JoinGraphSpec::new(Topology::ALL[topo_sel], rels, seed);
        let (catalog, query) = spec.build();
        let optimized = optimize(&catalog, &query, &OptimizerConfig::default())
            .expect("synthetic queries optimize");
        let space = PlanSpace::build_shared(Arc::new(optimized.memo), Arc::new(query))
            .expect("acyclic memo");
        prop_assert_eq!(
            space.counts().tier(),
            CountTier::U64,
            "spaces this small must stay single-limb"
        );
        assert_flat_matches_tree(&space, seed ^ 0xFA57, 128);
    }

    /// Directly synthesized chains and cycles across the single-limb
    /// boundary: small ones take the fast path, large ones step down
    /// the ladder, and every tier produces identical batches.
    #[test]
    fn fallback_boundary_is_exact_and_differential(
        cycle in any::<bool>(),
        rels in 5usize..15,
        seed in 0u64..100,
    ) {
        let topo = if cycle { Topology::Cycle } else { Topology::Chain };
        let (_, query, memo) = JoinGraphSpec::new(topo, rels, 20000 + seed).build_memo();
        let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query))
            .expect("synthetic memo is acyclic");
        // The criteria are the space's own counts, nothing heuristic:
        // each fixed-width tier applies iff every count fits its width.
        let all_fit_u64 = space.links().all_ids().all(|id|
            space.count_rooted(id).to_u64().is_some())
            && space.total().to_u64().is_some();
        let all_fit_u128 = space.links().all_ids().all(|id|
            space.count_rooted(id).to_u128().is_some())
            && space.total().to_u128().is_some();
        let expect = if all_fit_u64 {
            CountTier::U64
        } else if all_fit_u128 {
            CountTier::U128
        } else {
            CountTier::Nat
        };
        prop_assert_eq!(space.counts().tier(), expect);
        assert_flat_matches_tree(&space, seed ^ 0xB0B, 64);
    }

    /// Forced-tier sweep on small optimizer-built spaces: the `u64`,
    /// `u128`, and exact-`Nat` unrankers emit bit-identical batches at
    /// 1, 2, and 4 threads, with a batch size that exercises the
    /// parallel shard fill.
    #[test]
    fn forced_tiers_match_across_thread_counts(
        topo_sel in 0usize..4,
        seed in 0u64..100,
    ) {
        let spec = JoinGraphSpec::new(Topology::ALL[topo_sel], 5, seed);
        let (catalog, query) = spec.build();
        let optimized = optimize(&catalog, &query, &OptimizerConfig::default())
            .expect("synthetic queries optimize");
        let space = PlanSpace::build_shared(Arc::new(optimized.memo), Arc::new(query))
            .expect("acyclic memo");
        prop_assert_eq!(space.counts().tier(), CountTier::U64);
        assert_tiers_and_threads_agree(&space, seed ^ 0x7143, 600);
    }
}

/// clique-9: the smallest clique whose total overflows one limb — it
/// must land on the `u128` tier (not the exact fallback) and still
/// match the tree sampler draw for draw, including when forced down to
/// `Nat` and across thread counts.
#[test]
fn clique9_takes_the_u128_tier_and_matches() {
    let (_, query, memo) = JoinGraphSpec::new(Topology::Clique, 9, 20000).build_memo();
    let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("clique-9 builds");
    assert_eq!(
        space.counts().tier(),
        CountTier::U128,
        "clique-9 total {} must fit two limbs but not one",
        space.total()
    );
    assert!(space.total().limbs().len() >= 2);
    assert_flat_matches_tree(&space, 0x911, 48);

    // Past the tier boundary on the same space: forcing the exact path
    // changes throughput only, never content.
    let mut nat = space.clone();
    nat.force_tier(CountTier::Nat);
    assert_eq!(nat.counts().tier(), CountTier::Nat);
    let mut a = PlanBatch::new();
    let mut b = PlanBatch::new();
    let mut rng = StdRng::seed_from_u64(0x911);
    space.sample_batch_flat(&mut rng, 48, &mut a);
    let mut rng = StdRng::seed_from_u64(0x911);
    nat.sample_batch_flat(&mut rng, 48, &mut b);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x, y, "u128 tier diverged from forced-Nat");
    }
}

/// A genuinely 3-limb space — a chain long enough that its total
/// overflows `u128` — exercises the remaining exact-`Nat` regime of
/// `sample_batch_flat` with no forcing involved.
#[test]
fn three_limb_chains_use_the_exact_fallback_and_match() {
    // Chain plan spaces grow fast; scan upward to the first 3-limb one
    // so the test stays pinned to the boundary rather than a magic size.
    for rels in 15..40 {
        let (_, query, memo) = JoinGraphSpec::new(Topology::Chain, rels, 20000).build_memo();
        let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("chain builds");
        if space.total().limbs().len() < 3 {
            continue;
        }
        assert_eq!(space.counts().tier(), CountTier::Nat);
        assert_flat_matches_tree(&space, 0x3113, 32);
        return;
    }
    panic!("no chain under 40 relations needed three limbs");
}

/// clique-10 (the sampling bench's u128 regime), in the slow tier
/// only.
#[test]
fn clique10_u128_tier_matches_in_the_statistical_tier() {
    if std::env::var("PLANSAMPLE_STATISTICAL").is_err() {
        eprintln!("skipping clique-10 tier check (set PLANSAMPLE_STATISTICAL=1)");
        return;
    }
    let (_, query, memo) = JoinGraphSpec::new(Topology::Clique, 10, 20000).build_memo();
    let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("clique-10 builds");
    assert_eq!(space.counts().tier(), CountTier::U128);
    assert_flat_matches_tree(&space, 0x1010, 32);
}

/// The single-plan entry points — `unrank`, `unrank_rooted`,
/// `sample_rooted` — on the paper example (every rank of every
/// expression) and on an optimizer-built 5-relation space, forced onto
/// each tier: all equal the reference.
#[test]
fn single_plan_paths_match_the_reference_on_every_tier() {
    let ex = paper_example::build();
    let space = PlanSpace::build(&ex.memo, &ex.query).expect("paper example builds");
    assert_single_plan_paths_match(&space, 0x5EED, u64::MAX);

    let spec = JoinGraphSpec::new(Topology::Star, 5, 7);
    let (catalog, query) = spec.build();
    let optimized = optimize(&catalog, &query, &OptimizerConfig::default())
        .expect("synthetic queries optimize");
    let space =
        PlanSpace::build_shared(Arc::new(optimized.memo), Arc::new(query)).expect("acyclic memo");
    assert_single_plan_paths_match(&space, 0x5EED5, 16);
}
