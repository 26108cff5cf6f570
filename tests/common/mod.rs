//! Shared helpers for the statistical validation suites: building
//! synthetic spaces and collecting sampling frequency spectra, plus the
//! test-owned reference unranker the differential suites compare the
//! library's tiered unranker against.

#![allow(dead_code)] // each test binary uses a different subset

use plansample::PlanSpace;
use plansample_bignum::Nat;
use plansample_catalog::Catalog;
use plansample_datagen::joingraph::JoinGraphSpec;
use plansample_memo::{DenseId, Memo, PhysId, PlanNode};
use plansample_optimizer::{optimize, OptimizerConfig};
use plansample_query::QuerySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A synthetic join-graph query optimized into a memo, with the plan
/// space built exactly once (the expensive counting pass is shared by
/// every measurement on the fixture). The memo lives solely inside the
/// space's `Arc` — no second copy.
pub struct SynthSpace {
    pub catalog: Catalog,
    pub query: QuerySpec,
    pub best_cost: f64,
    pub label: String,
    space: PlanSpace,
}

impl SynthSpace {
    /// Generates, optimizes, and wraps the spec's query.
    pub fn build(spec: JoinGraphSpec) -> SynthSpace {
        let (catalog, query) = spec.build();
        let optimized = optimize(&catalog, &query, &OptimizerConfig::default())
            .expect("synthetic queries optimize");
        let space = PlanSpace::build_shared(
            std::sync::Arc::new(optimized.memo),
            std::sync::Arc::new(query.clone()),
        )
        .expect("optimizer memos are acyclic");
        SynthSpace {
            catalog,
            query,
            best_cost: optimized.best_cost,
            label: spec.label(),
            space,
        }
    }

    /// The optimized memo (owned by the shared plan space).
    pub fn memo(&self) -> &Memo {
        self.space.memo()
    }

    /// The plan space over this memo, built once at fixture
    /// construction.
    pub fn space(&self) -> &PlanSpace {
        &self.space
    }
}

/// Which sampler to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampler {
    /// The paper's rank-based uniform sampler.
    Unranking,
    /// The biased uniform-per-step random walk baseline.
    NaiveWalk,
}

/// Draws `draws` plans and tallies them per exact rank. Only for spaces
/// whose total fits comfortably in memory as one bucket per plan.
pub fn rank_spectrum(
    space: &PlanSpace,
    sampler: Sampler,
    draws: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let n = space
        .total()
        .to_u64()
        .expect("per-rank spectrum needs a u64-sized space") as usize;
    let mut freq = vec![0usize; n];
    for _ in 0..draws {
        let rank = sample_rank(space, sampler, rng);
        freq[rank.to_u64().unwrap() as usize] += 1;
    }
    freq
}

/// One draw through the full sampler pipeline: both arms materialize a
/// plan and rank it back, so `random_below`, `unrank`, and `rank` are
/// all exercised (not just the RNG).
fn sample_rank(space: &PlanSpace, sampler: Sampler, rng: &mut StdRng) -> Nat {
    let plan = match sampler {
        Sampler::Unranking => space.sample(rng),
        Sampler::NaiveWalk => space.sample_naive_walk(rng).expect("complete space"),
    };
    space.rank(&plan).expect("sampled plans are members")
}

/// Draws `draws` plans and tallies them into `buckets` equal rank
/// intervals — the scalable spectrum for spaces too large to tally per
/// plan (uniform ranks stay uniform over equal rank intervals).
pub fn bucket_spectrum(
    space: &PlanSpace,
    sampler: Sampler,
    buckets: usize,
    draws: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut freq = vec![0usize; buckets];
    let b = Nat::from(buckets);
    for _ in 0..draws {
        let rank = sample_rank(space, sampler, rng);
        let (bucket, _) = (&rank * &b).div_rem(space.total());
        freq[bucket.to_u64().expect("bucket < buckets") as usize] += 1;
    }
    freq
}

/// Picks sub-space roots for uniformity tests: up to two physical
/// expressions from the memo's root group plus one from an interior
/// (non-root) join group, all with rooted counts inside `range`.
pub fn pick_subspace_roots(
    memo: &Memo,
    space: &PlanSpace,
    n_rels: usize,
    range: std::ops::RangeInclusive<u64>,
) -> Vec<plansample_memo::PhysId> {
    use plansample_memo::GroupId;
    let in_range = |id: plansample_memo::PhysId| {
        space
            .count_rooted(id)
            .to_u64()
            .is_some_and(|c| range.contains(&c))
    };
    let mut roots: Vec<_> = memo
        .group(memo.root())
        .phys_iter()
        .map(|(id, _)| id)
        .filter(|&id| in_range(id))
        .take(2)
        .collect();
    let interior = (0..memo.num_groups() as u32)
        .map(GroupId)
        .filter(|&g| g != memo.root())
        .filter(|&g| {
            memo.group(g)
                .key
                .rels()
                .is_some_and(|s| s.len() >= 2 && s.len() < n_rels)
        })
        .flat_map(|g| memo.group(g).phys_iter().map(|(id, _)| id))
        .find(|&id| in_range(id));
    roots.extend(interior);
    roots
}

/// Per-local-rank spectrum of the sub-space rooted at `v` under
/// `sample_rooted`.
pub fn rooted_spectrum(
    space: &PlanSpace,
    v: plansample_memo::PhysId,
    draws: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let n = space
        .count_rooted(v)
        .to_u64()
        .expect("per-rank spectrum needs a u64-sized sub-space") as usize;
    let mut freq = vec![0usize; n];
    for _ in 0..draws {
        let plan = space.sample_rooted(rng, v);
        assert_eq!(plan.id, v, "sub-space root is pinned");
        let r = space.rank_rooted(&plan).expect("rooted plans rank");
        freq[r.to_u64().unwrap() as usize] += 1;
    }
    freq
}

/// Scaled plan costs (optimum = 1.0) for `draws` uniform samples.
/// Takes the caller's already-built `space` — `PlanSpace::build` is the
/// expensive step on large memos, so it must not be repeated per call.
pub fn sampled_scaled_costs(
    synth: &SynthSpace,
    space: &PlanSpace,
    draws: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    (0..draws)
        .map(|_| space.sample(rng).total_cost(synth.memo()) / synth.best_cost)
        .collect()
}

/// The fixed seed for the statistical suites, overridable via
/// `PLANSAMPLE_STATS_SEED` (the CI statistical-tests job pins it).
pub fn stats_seed() -> u64 {
    std::env::var("PLANSAMPLE_STATS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20000)
}

/// Derives a per-test rng so suites stay independent of test ordering.
pub fn seeded_rng(salt: u64) -> StdRng {
    StdRng::seed_from_u64(stats_seed() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `true` when the slow statistical suites should run: the
/// `PLANSAMPLE_STATISTICAL` environment variable is set non-empty and
/// not `"0"` (the dedicated CI job sets it; tier-1 `cargo test` skips).
pub fn statistical_enabled() -> bool {
    std::env::var("PLANSAMPLE_STATISTICAL").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Standard skip preamble for gated tests; returns `true` to proceed.
pub fn gate(test: &str) -> bool {
    if statistical_enabled() {
        true
    } else {
        eprintln!("{test}: skipped (set PLANSAMPLE_STATISTICAL=1 to run)");
        false
    }
}

/// Reference unranker: paper §3.3 as a plain recursion in exact `Nat`
/// arithmetic over the public API — select the operator by prefix sums
/// over [`plansample::Counts::rooted`], split the local rank into one
/// mixed-radix digit per slot, recurse. It shares no code with the
/// library's unranker, so the differential suites can hold every tier
/// of that unranker to it.
pub fn reference_unrank(space: &PlanSpace, rank: &Nat) -> PlanNode {
    let links = space.links();
    reference_in(space, links.list(links.root_list()), rank.clone())
}

/// [`reference_unrank`] within the sub-space rooted at `v`.
pub fn reference_unrank_rooted(space: &PlanSpace, v: PhysId, rank: &Nat) -> PlanNode {
    reference_expr(space, space.links().ids().dense(v), rank.clone())
}

/// Step 1: operator selection within an alternative list.
fn reference_in(space: &PlanSpace, alternatives: &[DenseId], mut rank: Nat) -> PlanNode {
    for &v in alternatives {
        let n = space.counts().rooted(v);
        if &rank < n {
            return reference_expr(space, v, rank);
        }
        rank -= n;
    }
    unreachable!("rank below the alternative total by construction")
}

/// Steps 2–3: sub-rank decomposition and recursive assembly.
fn reference_expr(space: &PlanSpace, v: DenseId, local_rank: Nat) -> PlanNode {
    let links = space.links();
    let mut rest = local_rank;
    let children = links
        .slot_lists(v)
        .iter()
        .map(|&l| {
            // digit s_v(i) = rest mod b_v(i); carry rest / b_v(i) onward.
            let (q, s) = rest.div_rem(space.counts().list_total(l));
            rest = q;
            reference_in(space, links.list(l), s)
        })
        .collect();
    assert!(rest.is_zero(), "local rank exceeded B_v(|v|)");
    PlanNode {
        id: links.ids().phys(v),
        children,
    }
}

/// `k` reference plans from `seed`: each rank drawn by
/// [`Nat::random_below`] on one fresh rng, then unranked by
/// [`reference_unrank`] — what every sampler must reproduce on the same
/// seed.
pub fn reference_sample(space: &PlanSpace, seed: u64, k: usize) -> Vec<PlanNode> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| reference_unrank(space, &Nat::random_below(&mut rng, space.total())))
        .collect()
}
