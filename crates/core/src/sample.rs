//! Uniform random sampling of execution plans (§1, §3).
//!
//! "Once an unranking mechanism is available, uniform sampling of
//! elements in the space reduces to random generation of numbers in the
//! range 0, …, N−1." [`PlanSpace::sample`] draws a uniform rank with
//! [`Nat::random_below`] and unranks it — every plan has probability
//! exactly `1/N`.
//!
//! Batches draw every rank with the space's own tier arithmetic
//! ([`Nat::random_below_u64`] / [`Nat::random_below_u128`] replay
//! `random_below`'s RNG consumption) and run the one unranker of
//! `unrank.rs` into a flat [`PlanBatch`]: [`PlanSpace::sample_batch_flat`]
//! is written once, generic over the tier, and dispatched once per call;
//! [`PlanSpace::sample_batch`] is that fill plus a tree per plan.
//!
//! [`PlanSpace::sample_naive_walk`] is the obvious-but-wrong alternative
//! kept as a measurable baseline: walk the memo top-down picking
//! *operators* uniformly at each step. Because a subtree's probability
//! is then the product of per-step choices rather than `1/N`, plans in
//! bushy, asymmetric regions of the space are systematically
//! over-sampled. The statistical tests show a chi-square uniformity test
//! accepts the unranking sampler and rejects the naive walk — the reason
//! the paper needs the counting machinery at all.

use crate::count::Sidecar;
use crate::unrank::Count;
use crate::{PlanBatch, PlanSpace};
use plansample_bignum::Nat;
use plansample_memo::{DenseId, PlanNode};
use rand::Rng;

impl PlanSpace {
    /// Draws one plan uniformly from the space.
    ///
    /// # Panics
    /// Panics if the space is empty (`total() == 0`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> PlanNode {
        assert!(
            !self.total().is_zero(),
            "cannot sample from an empty plan space"
        );
        let rank = Nat::random_below(rng, self.total());
        self.unrank(&rank).expect("rank drawn below the total")
    }

    /// Smallest number of draws per worker thread worth forking the
    /// unranking across the pool.
    const PAR_MIN_DRAWS: usize = 256;

    /// Draws `k` plans uniformly and independently (with replacement),
    /// as in the paper's 10 000-plan experiments. The batched entry
    /// point of the prepared-query serving surface: amortizes the memo
    /// preparation over arbitrarily many draws.
    ///
    /// The plans are exactly [`sample_batch_flat`](Self::sample_batch_flat)'s
    /// on the same RNG, rebuilt as trees (in parallel for large
    /// batches), so the batch is identical at every thread count and on
    /// every tier.
    ///
    /// # Panics
    /// Panics if `k > 0` and the space is empty.
    pub fn sample_batch<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> Vec<PlanNode> {
        let mut batch = PlanBatch::new();
        self.sample_batch_flat(rng, k, &mut batch);
        threadpool::parallel_map(k, Self::PAR_MIN_DRAWS, |i| self.build_tree(batch.plan(i)))
    }

    /// Draws `k` plans uniformly into a reusable flat batch — the
    /// zero-allocation serving path.
    ///
    /// The fill runs on the fastest rung of the tier ladder the space
    /// qualifies for (see [`crate::Counts::tier`]): single-limb spaces
    /// unrank in `u64`, two-limb spaces (clique-9/10 scale) in `u128`,
    /// and only wider spaces pay exact [`Nat`] arithmetic. Each draw is a
    /// rejection-sampled rank plus the mixed-radix unrank appended
    /// straight into `out`'s buffers: on both fixed-width tiers, once
    /// those are at capacity, a steady-state fill performs **zero heap
    /// allocations per draw** (asserted by `tests/alloc_counting.rs`).
    ///
    /// The RNG is consumed exactly as [`Nat::random_below`] consumes it
    /// on every tier ([`Nat::random_below_u64`] and
    /// [`Nat::random_below_u128`] replay its draw sequence limb for
    /// limb), and large batches fan the unranking out in fixed-size
    /// chunks over the persistent worker pool — written into `out`'s own
    /// per-chunk shard batches and merged in draw order — so the batch
    /// content is bit-identical on every tier and at every thread count,
    /// and parallel fills stay allocation-free in steady state too.
    ///
    /// # Panics
    /// Panics if `k > 0` and the space is empty.
    pub fn sample_batch_flat<R: Rng + ?Sized>(&self, rng: &mut R, k: usize, out: &mut PlanBatch) {
        assert!(
            k == 0 || !self.total().is_zero(),
            "cannot sample from an empty plan space"
        );
        out.start_fill();
        let inline = threadpool::num_threads() == 1 || k < 2 * Self::PAR_MIN_DRAWS;
        match self.counts.sidecar() {
            Some(Sidecar::U64(t)) => self.fill::<u64, R>(t, rng, k, out, inline),
            Some(Sidecar::U128(t)) => self.fill::<u128, R>(t, rng, k, out, inline),
            None => self.fill::<Nat, R>(&self.counts, rng, k, out, inline),
        }
    }

    /// The body of [`sample_batch_flat`](Self::sample_batch_flat) in one
    /// tier's arithmetic `C`.
    fn fill<C: Count, R: Rng + ?Sized>(
        &self,
        table: &C::Table,
        rng: &mut R,
        k: usize,
        out: &mut PlanBatch,
        inline: bool,
    ) {
        let total = C::narrow(self.total());
        if inline {
            // Inline fill: draw and unrank per plan, nothing but `out`'s
            // own (reused) buffers touched.
            let mut stack = std::mem::take(&mut C::scratch(out).stack);
            for _ in 0..k {
                let rank = C::draw(rng, &total);
                self.unrank_flat(table, None, rank, out.ids_mut(), &mut stack);
                out.finish_plan();
            }
            C::scratch(out).stack = stack;
            return;
        }
        // Parallel fill: ranks up front (same RNG order as above), then
        // fixed-size chunks unranked concurrently into `out`'s
        // persistent shards and merged in draw order. The chunk size is
        // independent of the worker count, so the merged content never
        // depends on it.
        let mut ranks = std::mem::take(&mut C::scratch(out).ranks);
        ranks.extend((0..k).map(|_| C::draw(rng, &total)));
        Self::fill_shards(k, out, |part, c| {
            part.start_fill();
            let mut stack = std::mem::take(&mut C::scratch(part).stack);
            let lo = c * Self::PAR_MIN_DRAWS;
            for rank in &ranks[lo..(lo + Self::PAR_MIN_DRAWS).min(k)] {
                self.unrank_flat(table, None, rank.clone(), part.ids_mut(), &mut stack);
                part.finish_plan();
            }
            C::scratch(part).stack = stack;
        });
        ranks.clear();
        C::scratch(out).ranks = ranks;
    }

    /// Fans a parallel flat fill out over `out`'s persistent shard
    /// batches. Chunk `c` always covers draws
    /// `[c·PAR_MIN_DRAWS, (c+1)·PAR_MIN_DRAWS)` — a fixed mapping
    /// independent of how the pool splits the chunk range across
    /// workers — and the shards merge into `out` in chunk order, so the
    /// result is identical at every thread count. Shards (and their
    /// unrank scratch) live in `out` and keep their capacity across
    /// fills, which is what makes the *parallel* steady state
    /// allocation-free, not just the inline one.
    fn fill_shards<F: Fn(&mut PlanBatch, usize) + Sync>(
        k: usize,
        out: &mut PlanBatch,
        fill_chunk: F,
    ) {
        let chunks = k.div_ceil(Self::PAR_MIN_DRAWS);
        let mut shards = std::mem::take(&mut out.shards);
        if shards.len() < chunks {
            shards.resize_with(chunks, PlanBatch::new);
        }
        struct Shards(*mut PlanBatch);
        unsafe impl Sync for Shards {}
        impl Shards {
            /// SAFETY: the caller must hold the only live access to
            /// shard `c` (here: `parallel_for` hands each index to
            /// exactly one worker) and `c` must be in bounds.
            #[allow(clippy::mut_from_ref)]
            unsafe fn shard(&self, c: usize) -> &mut PlanBatch {
                &mut *self.0.add(c)
            }
        }
        let base = Shards(shards.as_mut_ptr());
        threadpool::parallel_for(chunks, 1, |range| {
            for c in range {
                // SAFETY: `c < chunks ≤ shards.len()`, and `parallel_for`
                // hands each index to exactly one worker, so every shard
                // borrow is in bounds and exclusive.
                let part = unsafe { base.shard(c) };
                fill_chunk(part, c);
            }
        });
        for part in &shards[..chunks] {
            out.append_flat(part);
        }
        out.shards = shards;
    }

    /// Biased baseline: pick an operator uniformly among the group's (or
    /// slot's) alternatives at every step, ignoring subtree counts.
    /// Returns `None` if the walk reaches an operator with an
    /// unsatisfiable slot (possible in pruned memos).
    pub fn sample_naive_walk<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<PlanNode> {
        self.naive_pick(rng, self.links.list(self.links.root_list()))
    }

    fn naive_pick<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        alternatives: &[DenseId],
    ) -> Option<PlanNode> {
        if alternatives.is_empty() {
            return None;
        }
        let v = alternatives[rng.gen_range(0..alternatives.len())];
        let children = self
            .links
            .slot_lists(v)
            .iter()
            .map(|&l| self.naive_pick(rng, self.links.list(l)))
            .collect::<Option<Vec<_>>>()?;
        Some(PlanNode {
            id: self.links.ids().phys(v),
            children,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::paper_example;
    use crate::PlanSpace;
    use plansample_bignum::Nat;
    use plansample_memo::validate_plan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn samples_are_valid_plans() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for plan in space.sample_batch(&mut rng, 200) {
            assert!(validate_plan(&ex.memo, &ex.query, &plan).is_empty());
        }
    }

    #[test]
    fn uniform_sampler_covers_the_space_evenly() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let draws = 32_000usize;
        let mut freq: HashMap<u64, usize> = HashMap::new();
        for _ in 0..draws {
            let plan = space.sample(&mut rng);
            let r = space.rank(&plan).unwrap().to_u64().unwrap();
            *freq.entry(r).or_default() += 1;
        }
        assert_eq!(freq.len(), 32, "all 32 plans appear");
        // Expected 1000 per plan; chi-square with 31 dof, p=0.001
        // critical value ≈ 61.1.
        let expected = draws as f64 / 32.0;
        let chi2: f64 = (0..32u64)
            .map(|r| {
                let o = *freq.get(&r).unwrap_or(&0) as f64;
                (o - expected).powi(2) / expected
            })
            .sum();
        assert!(chi2 < 61.1, "chi-square {chi2} rejects uniformity");
    }

    #[test]
    fn naive_walk_is_measurably_biased() {
        // In the fixture, plan rank 16 (root 7.8 with first choices) is
        // reached by the naive walk with probability 1/2 · 1/3 · 1/2 ·
        // 1/2 · … while uniform gives 1/32; aggregate: the chi-square
        // statistic across all 32 plans must blow past the critical
        // value.
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let draws = 32_000usize;
        let mut freq: HashMap<u64, usize> = HashMap::new();
        for _ in 0..draws {
            let plan = space.sample_naive_walk(&mut rng).unwrap();
            let r = space.rank(&plan).unwrap().to_u64().unwrap();
            *freq.entry(r).or_default() += 1;
        }
        let expected = draws as f64 / 32.0;
        let chi2: f64 = (0..32u64)
            .map(|r| {
                let o = *freq.get(&r).unwrap_or(&0) as f64;
                (o - expected).powi(2) / expected
            })
            .sum();
        assert!(chi2 > 61.1, "naive walk unexpectedly uniform: chi2={chi2}");
    }

    #[test]
    fn sampling_respects_the_seed() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let a: Vec<Nat> = {
            let mut rng = StdRng::seed_from_u64(1);
            space
                .sample_batch(&mut rng, 10)
                .iter()
                .map(|p| space.rank(p).unwrap())
                .collect()
        };
        let b: Vec<Nat> = {
            let mut rng = StdRng::seed_from_u64(1);
            space
                .sample_batch(&mut rng, 10)
                .iter()
                .map(|p| space.rank(p).unwrap())
                .collect()
        };
        assert_eq!(a, b);
    }
}
