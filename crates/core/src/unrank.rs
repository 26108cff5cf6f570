//! §3.3 — Unranking: constructing plan number `r`.
//!
//! Given `(r, G)`:
//!
//! 1. choose the operator `v_k` of `G` by prefix sums — the first
//!    operator covers ranks `0 … N(v_1)-1`, the second
//!    `N(v_1) … N(v_1)+N(v_2)-1`, and so on — and compute the local rank
//!    `r_l = r − Σ_{i<k} N(v_i)`;
//! 2. decompose `r_l` into per-slot sub-ranks. The paper writes this with
//!    the recurrences `R_v(|v|) = r_l`, `R_v(i) = R_v(i+1) mod B_v(i)`,
//!    `s_v(i) = ⌊R_v(i) / B_v(i−1)⌋` (and `s_v(1) = R_v(1)`); since
//!    `B_v(i) = Π_{j≤i} b_v(j)`, these `s_v(i)` are exactly the digits of
//!    `r_l` in the mixed-radix system with bases `b_v(1), b_v(2), …` —
//!    which is how we compute them, one `div_rem` per slot;
//! 3. recurse: sub-rank `s_v(i)` is unranked within slot `i`'s
//!    alternative list.
//!
//! Unranking visits one operator per plan node and performs arithmetic
//! linear in the plan size — "a small fraction of the time needed for
//! counting", reproduced by the `unranking` bench. Every `b_v(i)` the
//! mixed-radix decomposition divides by is precomputed per interned
//! alternative list ([`crate::Counts::list_total`]), so no step re-sums
//! alternative counts.
//!
//! There is one unranker, [`PlanSpace::unrank_flat`]: step 3 runs on an
//! explicit stack and the plan comes out as preorder ids. It is generic
//! over [`Count`], one rung of the tier ladder (DESIGN.md §11). Every
//! tree-returning entry point (`unrank`, `unrank_rooted`, `sample`,
//! `sample_rooted`, `sample_batch`, the enumeration cursor) is that flat
//! unrank plus [`PlanSpace::build_tree`].

use crate::count::{Sidecar, TierCounts};
use crate::links::ListId;
use crate::{batch::Scratch, Counts, Links, PlanBatch, PlanSpace, SpaceError};
use plansample_bignum::Nat;
use plansample_memo::{DenseId, PhysId, PlanNode};
use rand::Rng;
use std::ops::{Add, Mul, Sub};

/// Operator selection over one list's contiguous pool-aligned
/// fixed-width counts: returns the chosen index and the residual rank
/// within it.
///
/// Instead of the naive per-element `if rank < n {break} rank -= n`
/// (one unpredictable branch per alternative), the scan works in
/// chunks of 8: an unrolled pairwise sum decides in one predictable
/// branch whether the chosen element lies in the chunk; misses skip 8
/// elements with a single subtraction, and the hit chunk resolves its
/// element **branch-free** — `take = (rank >= prefix) as int` arithmetic
/// with no data-dependent jumps, so wide lists stop paying a
/// mispredict per element. Chunk sums cannot overflow: every partial
/// sum is bounded by the list total, which fits the tier's width by
/// construction. A scalar tail handles the last `len % 8` elements.
///
/// Callers guarantee `rank < Σ counts`. Zero-count (dead) alternatives
/// are skipped exactly as the scalar scan skips them, so the chosen
/// index is identical — differential-tested below against the scalar
/// reference.
#[inline]
fn chunked_select<T>(counts: &[T], mut rank: T) -> (usize, T)
where
    T: Copy + Ord + Default + From<bool> + Add<Output = T> + Sub<Output = T> + Mul<Output = T>,
{
    let mut base = 0usize;
    let mut chunks = counts.chunks_exact(8);
    for c in &mut chunks {
        let sum = ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]));
        if rank < sum {
            let mut acc = T::default();
            let mut idx = 0usize;
            let mut below = T::default();
            for &n in c {
                acc = acc + n;
                let take = rank >= acc;
                idx += take as usize;
                below = below + n * T::from(take);
            }
            return (base + idx, rank - below);
        }
        rank = rank - sum;
        base += 8;
    }
    let tail = chunks.remainder();
    let mut i = 0usize;
    while rank >= tail[i] {
        rank = rank - tail[i];
        i += 1;
    }
    (base + i, rank)
}

/// The arithmetic of one rung of the tier ladder — `u64`, `u128` or
/// exact [`Nat`]: each method is one step of the algorithm above, so
/// the unranker itself is written once.
pub(crate) trait Count: Clone + Default + PartialEq + Send + Sync {
    /// Where the rung reads counts: a pool-aligned [`TierCounts`]
    /// mirror on the fixed widths, the exact [`Counts`] on `Nat`.
    type Table: Sync;
    /// A value known to fit the rung (all counts do, by construction).
    fn narrow(n: &Nat) -> Self;
    /// A uniform rank below `bound`, with [`Nat::random_below`]'s exact
    /// RNG consumption.
    fn draw<R: Rng + ?Sized>(rng: &mut R, bound: &Self) -> Self;
    /// Step 1: the member of list `l` that `rank` falls in, and the rank
    /// left within it.
    fn select(table: &Self::Table, links: &Links, l: ListId, rank: Self) -> (usize, Self);
    /// `b` of list `l`, the radix of its slot's digit.
    fn list_total(table: &Self::Table, l: ListId) -> &Self;
    /// Step 2, one digit: leaves `self / b` in place, returns `self % b`.
    fn div_rem_assign(&mut self, b: &Self) -> Self;
    /// The rung's reusable buffers in a [`PlanBatch`].
    fn scratch(batch: &mut PlanBatch) -> &mut Scratch<Self>;
}

/// The two fixed-width rungs, identical up to width.
macro_rules! fixed_width_count {
    ($t:ty, $narrow:ident, $draw:ident, $scratch:ident) => {
        impl Count for $t {
            type Table = TierCounts<$t>;
            fn narrow(n: &Nat) -> $t {
                n.$narrow()
                    .expect("a fixed-width sidecar implies every count fits")
            }
            #[inline]
            fn draw<R: Rng + ?Sized>(rng: &mut R, bound: &$t) -> $t {
                Nat::$draw(rng, *bound)
            }
            #[inline]
            fn select(table: &TierCounts<$t>, links: &Links, l: ListId, rank: $t) -> (usize, $t) {
                chunked_select(table.pool_counts(links.list_range(l)), rank)
            }
            #[inline]
            fn list_total(table: &TierCounts<$t>, l: ListId) -> &$t {
                table.list_total(l)
            }
            #[inline]
            fn div_rem_assign(&mut self, b: &$t) -> $t {
                let digit = *self % b;
                *self /= b;
                digit
            }
            fn scratch(batch: &mut PlanBatch) -> &mut Scratch<$t> {
                &mut batch.$scratch
            }
        }
    };
}

fixed_width_count!(u64, to_u64, random_below_u64, scratch_u64);
fixed_width_count!(u128, to_u128, random_below_u128, scratch_u128);

impl Count for Nat {
    type Table = Counts;
    fn narrow(n: &Nat) -> Nat {
        n.clone()
    }
    fn draw<R: Rng + ?Sized>(rng: &mut R, bound: &Nat) -> Nat {
        Nat::random_below(rng, bound)
    }
    /// A scalar scan: the members' counts are not contiguous here.
    fn select(counts: &Counts, links: &Links, l: ListId, mut rank: Nat) -> (usize, Nat) {
        for (i, &w) in links.list(l).iter().enumerate() {
            let n = counts.rooted(w);
            if &rank < n {
                return (i, rank);
            }
            rank -= n;
        }
        unreachable!("rank below the list total by construction")
    }
    fn list_total(counts: &Counts, l: ListId) -> &Nat {
        counts.list_total(l)
    }
    fn div_rem_assign(&mut self, b: &Nat) -> Nat {
        let (quotient, digit) = Nat::div_rem(self, b);
        *self = quotient;
        digit
    }
    fn scratch(batch: &mut PlanBatch) -> &mut Scratch<Nat> {
        &mut batch.scratch_nat
    }
}

impl PlanSpace {
    /// Builds plan number `rank` (0-based, `rank < total()`).
    pub fn unrank(&self, rank: &Nat) -> Result<PlanNode, SpaceError> {
        if rank >= self.counts.total() {
            return Err(SpaceError::RankOutOfRange {
                rank: rank.clone(),
                total: self.counts.total().clone(),
            });
        }
        Ok(self.unrank_tree(None, rank))
    }

    /// [`unrank_flat`](Self::unrank_flat) on the space's own tier, then
    /// the tree. The caller guarantees `rank` is in range.
    pub(crate) fn unrank_tree(&self, root: Option<DenseId>, rank: &Nat) -> PlanNode {
        let mut ids = Vec::new();
        match self.counts.sidecar() {
            Some(Sidecar::U64(t)) => {
                self.unrank_flat(t, root, u64::narrow(rank), &mut ids, &mut vec![])
            }
            Some(Sidecar::U128(t)) => {
                self.unrank_flat(t, root, u128::narrow(rank), &mut ids, &mut vec![])
            }
            None => self.unrank_flat(&self.counts, root, rank.clone(), &mut ids, &mut vec![]),
        }
        self.build_tree(&ids)
    }

    /// The unranker: the three steps above in `C`'s arithmetic, on an
    /// explicit stack, appending the plan's **preorder ids** to `ids`.
    /// `root` pins the root expression (the rooted sub-space API);
    /// `None` unranks over the whole space. On the fixed-width rungs,
    /// with `ids` and `stack` at capacity, this allocates nothing
    /// (asserted by `tests/alloc_counting.rs`). Every rung yields the
    /// same plan for the same rank — the same values in the same order,
    /// only in different widths — differential-tested against a
    /// recursive exact-`Nat` reference in `tests/unrank_fast_path.rs`.
    pub(crate) fn unrank_flat<C: Count>(
        &self,
        table: &C::Table,
        root: Option<DenseId>,
        rank: C,
        ids: &mut Vec<PhysId>,
        stack: &mut Vec<(ListId, C)>,
    ) {
        // Step 1: operator selection within a list.
        let pick = |list: ListId, rank: C| {
            let (idx, rank) = C::select(table, &self.links, list, rank);
            (self.links.list(list)[idx], rank)
        };
        let (mut v, mut rank) = match root {
            Some(v) => (v, rank),
            None => pick(self.links.root_list(), rank),
        };
        stack.clear();
        loop {
            ids.push(self.links.ids().phys(v));
            // Step 2: one mixed-radix digit per slot. Children are
            // emitted depth-first in slot order, so the (list, digit)
            // frames go on the stack reversed — slot 0 pops first and its
            // whole subtree lands before slot 1's.
            let base = stack.len();
            for &l in self.links.slot_lists(v) {
                let digit = rank.div_rem_assign(C::list_total(table, l));
                stack.push((l, digit));
            }
            debug_assert!(rank == C::default(), "local rank exceeded B_v(|v|)");
            stack[base..].reverse();
            // Step 3: the next digit, unranked within its slot's list.
            let Some((list, digit)) = stack.pop() else {
                return;
            };
            (v, rank) = pick(list, digit);
        }
    }

    /// Rebuilds the tree of one preorder id sequence; each operator's
    /// arity ([`Links::arity_of`]) says how many subtrees follow it.
    pub(crate) fn build_tree(&self, ids: &[PhysId]) -> PlanNode {
        fn node(links: &Links, ids: &mut std::slice::Iter<'_, PhysId>) -> PlanNode {
            let id = *ids.next().expect("a preorder listing fills every slot");
            let children = (0..links.arity_of(id)).map(|_| node(links, ids)).collect();
            PlanNode { id, children }
        }
        let mut rest = ids.iter();
        let plan = node(&self.links, &mut rest);
        debug_assert!(rest.next().is_none(), "one plan per preorder listing");
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::PlanSpace;
    use plansample_memo::validate_plan;

    #[test]
    fn appendix_example_rank_13() {
        // The paper's appendix unranks (13, group 7) and obtains the
        // operators 7.7, 4.3, 3.4, 2.3, 1.3. In fixture terms: the root
        // HashJoin(C, A⋈B) over SortedIdxScan_C and MergeJoin(A,B) over
        // SortedIdxScan_A / SortedIdxScan_B.
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let plan = space.unrank(&Nat::from(13u64)).unwrap();

        assert_eq!(plan.id, ex.root_c_ab); // 7.7
        assert_eq!(plan.children.len(), 2);
        assert_eq!(plan.children[0].id, ex.idx_scan_c); // 4.3
        let inner = &plan.children[1];
        assert_eq!(inner.id, ex.merge_join_ab); // 3.4
        assert_eq!(inner.children[0].id, ex.idx_scan_a); // 1.3
        assert_eq!(inner.children[1].id, ex.idx_scan_b); // 2.3

        let ids = plan.preorder_ids();
        assert_eq!(
            ids,
            vec![
                ex.root_c_ab,
                ex.idx_scan_c,
                ex.merge_join_ab,
                ex.idx_scan_a,
                ex.idx_scan_b
            ]
        );
    }

    #[test]
    fn every_rank_yields_a_distinct_valid_plan() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let total = space.total().to_u64().unwrap();
        assert_eq!(total, 32);
        let mut seen = std::collections::HashSet::new();
        for r in 0..total {
            let plan = space.unrank(&Nat::from(r)).unwrap();
            assert!(
                validate_plan(&ex.memo, &ex.query, &plan).is_empty(),
                "rank {r} must be a valid plan"
            );
            assert!(
                seen.insert(format!("{:?}", plan.preorder_ids())),
                "rank {r} duplicated a plan"
            );
        }
    }

    #[test]
    fn rank_zero_picks_first_alternatives() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let plan = space.unrank(&Nat::zero()).unwrap();
        assert_eq!(plan.id, ex.root_c_ab);
        assert_eq!(plan.children[0].id, ex.table_scan_c);
        assert_eq!(plan.children[1].id, ex.hash_join_ab);
        assert_eq!(plan.children[1].children[0].id, ex.table_scan_a);
        assert_eq!(plan.children[1].children[1].id, ex.table_scan_b);
    }

    #[test]
    fn out_of_range_rank_is_rejected() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let err = space.unrank(&Nat::from(32u64)).unwrap_err();
        assert!(matches!(err, SpaceError::RankOutOfRange { .. }));
        assert!(space.unrank(&Nat::from(31u64)).is_ok());
    }

    /// The scalar branch-and-subtract reference the chunked scan must
    /// reproduce index-for-index.
    fn select_scalar(counts: &[u128], mut rank: u128) -> (usize, u128) {
        for (i, &n) in counts.iter().enumerate() {
            if rank < n {
                return (i, rank);
            }
            rank -= n;
        }
        unreachable!("rank below the list total by construction")
    }

    #[test]
    fn chunked_select_matches_the_scalar_reference() {
        // Deterministic xorshift so the shapes cover chunk boundaries,
        // zero runs, and tails without a dev-dependency on `rand`.
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for len in [1usize, 2, 7, 8, 9, 15, 16, 17, 40, 101] {
            for _case in 0..50 {
                let counts: Vec<u64> = (0..len)
                    .map(|_| {
                        let r = next();
                        // ~1 in 4 alternatives dead, rest small so every
                        // index is reachable across cases.
                        if r % 4 == 0 {
                            0
                        } else {
                            r % 1000 + 1
                        }
                    })
                    .collect();
                let total: u64 = counts.iter().sum();
                if total == 0 {
                    continue;
                }
                let wide: Vec<u128> = counts.iter().map(|&n| n as u128).collect();
                for probe in 0..total.min(64) {
                    // Stride ranks across the whole range, hitting both
                    // boundaries of every alternative.
                    let rank = (probe * (total / total.clamp(1, 64))).min(total - 1);
                    let expect = select_scalar(&wide, rank as u128);
                    assert_eq!(
                        chunked_select(&counts, rank),
                        (expect.0, expect.1 as u64),
                        "u64 diverged on {counts:?} rank {rank}"
                    );
                    assert_eq!(
                        chunked_select(&wide, rank as u128),
                        expect,
                        "u128 diverged on {counts:?} rank {rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_select_handles_two_limb_counts() {
        let big = u64::MAX as u128 + 5;
        let counts = [0u128, big, 3, 0, big, 1, 0, 0, big, 2];
        let total: u128 = counts.iter().sum();
        for rank in [0u128, 1, big - 1, big, big + 2, big + 3, total - 1] {
            assert_eq!(
                chunked_select(&counts, rank),
                select_scalar(&counts, rank),
                "diverged at rank {rank}"
            );
        }
    }

    #[test]
    fn last_rank_uses_last_root_operator() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let plan = space.unrank(&Nat::from(31u64)).unwrap();
        assert_eq!(plan.id, ex.root_ab_c); // 7.8-analogue covers 16..31
    }

    #[test]
    fn build_tree_inverts_preorder_ids() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        for r in 0..32u64 {
            let plan = space.unrank(&Nat::from(r)).unwrap();
            assert_eq!(space.build_tree(&plan.preorder_ids()), plan, "rank {r}");
        }
    }

    #[test]
    fn every_rung_unranks_every_rank_alike() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let plans: Vec<_> = space.enumerate().collect();
        for tier in [crate::CountTier::U128, crate::CountTier::Nat] {
            let mut forced = space.clone();
            forced.force_tier(tier);
            assert_eq!(forced.counts().tier(), tier);
            assert_eq!(forced.enumerate().collect::<Vec<_>>(), plans, "{tier}");
        }
    }
}
