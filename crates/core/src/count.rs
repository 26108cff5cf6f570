//! §3.2 — Counting query plans.
//!
//! Bottom-up over the materialized links:
//!
//! ```text
//!   b_v(i) = Σ_j N(w_ij)            alternatives for child slot i
//!   B_v(k) = Π_{i≤k} b_v(i)         combined choices of the first k slots
//!   N(v)   = 1 if |v| = 0,  else B_v(|v|)
//!   N      = Σ_{v ∈ G_root} N(v)
//! ```
//!
//! Counts are exact [`Nat`]s: Table 1 of the paper reports spaces above
//! 4·10^12, and counts overflow any fixed-width integer as queries grow.
//!
//! The pass is an iterative walk over the topological order the links
//! precomputed (children before parents), filling one flat `Vec<Nat>`
//! indexed by [`DenseId`] — no recursion, no memo-cache clones — and it
//! runs the order's independent *levels* in parallel with a
//! deterministic merge (see [`Counts::compute`]). The per-slot totals
//! `b_v(i)` are computed once per *interned* alternative list and kept
//! ([`Counts::list_total`]), so unranking, ranking, and sampling read
//! them instead of re-summing alternatives on every mixed-radix step.
//! Each expression and each list entry is visited exactly once — the
//! paper's linear-time claim, benchmarked in `plansample-bench`
//! (`build_scaling`).

use crate::{links::ListId, Links, SpaceError};
use plansample_bignum::Nat;
use plansample_memo::DenseId;

/// Exact plan counts for every expression plus the space total and the
/// precomputed per-list slot totals, all in flat dense-indexed buffers.
#[derive(Debug, Clone)]
pub struct Counts {
    /// `N(v)` by dense id.
    per_expr: Vec<Nat>,
    /// `b` of each interned alternative list (the slot totals).
    list_totals: Vec<Nat>,
    /// `N`: the whole-space total.
    total: Nat,
    /// The fixed-width mirror the allocation-free unrank tiers run
    /// on; `None` on the exact-`Nat` rung.
    sidecar: Option<Sidecar>,
}

/// Which fixed-width arithmetic the flat unranking hot path can run in
/// on a given space — the tier ladder `u64` → `u128` → exact [`Nat`].
///
/// The tier is a property of the counts alone: [`CountTier::U64`] iff
/// every count fits one limb, [`CountTier::U128`] iff some count needs
/// two limbs but none needs three, [`CountTier::Nat`] otherwise. In
/// the synthetic suite: everything through Q8+CP is `U64`, clique-9
/// and clique-10 are `U128`, and only spaces past ~3.4·10³⁸ plans pay
/// the exact-arithmetic fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountTier {
    /// Every count fits one machine word: the fastest unranking path.
    U64,
    /// Every count fits two limbs; unranking runs in `u128`.
    U128,
    /// Some count needs three or more limbs; unranking is exact-`Nat`.
    Nat,
}

impl CountTier {
    /// Stable lower-case label (`"u64"` / `"u128"` / `"nat"`) — the
    /// value the benchmark artifacts and CLI output print.
    pub fn as_str(self) -> &'static str {
        match self {
            CountTier::U64 => "u64",
            CountTier::U128 => "u128",
            CountTier::Nat => "nat",
        }
    }
}

impl std::fmt::Display for CountTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Flat fixed-width copies of every count — the operands of the
/// fixed-width mixed-radix decomposition, which replaces per-step `Nat`
/// borrows and comparisons with plain integer arithmetic. One type
/// serves both rungs of the ladder: `TierCounts<u64>` and
/// `TierCounts<u128>`.
///
/// A sidecar is built only when **all** per-expression counts and
/// **all** list totals fit `T`. Per-value gating would be wrong in
/// both directions: a space whose total fits can still be probed at any
/// expression via the rooted sub-space API, and (because a sibling slot
/// with an *empty* list zeroes a parent product) an individual `N(v)`
/// can exceed the space total, so "total fits" does not imply "all
/// values fit". All-or-nothing keeps the criterion one branch per
/// call, decided before the hot loop.
///
/// # Layout
///
/// The per-alternative counts are **pool-aligned**: `pool[i]` is the
/// count of the expression at position `i` of the links' concatenated
/// list pool, so the operator-selection scan over list `l` reads the
/// contiguous slice at [`Links::list_range`] — the layout the chunked
/// prefix scan in `unrank.rs` requires (a dense-id-indexed mirror would
/// force a gather per element). Cost: `size_of::<T>()` bytes per
/// *pooled link* and per interned list, charged to
/// [`Counts::size_bytes`].
#[derive(Debug, Clone)]
pub(crate) struct TierCounts<T> {
    /// `N(w)` of each pooled list member, aligned with the links pool.
    pool: Vec<T>,
    /// `b` of each interned list.
    list_totals: Vec<T>,
}

impl<T: Copy> TierCounts<T> {
    /// Narrows every count with `narrow`; `None` as soon as one does
    /// not fit.
    fn build(
        links: &Links,
        per_expr: &[Nat],
        list_totals: &[Nat],
        narrow: fn(&Nat) -> Option<T>,
    ) -> Option<TierCounts<T>> {
        let per_expr = per_expr.iter().map(narrow).collect::<Option<Vec<T>>>()?;
        Some(TierCounts {
            pool: links
                .pool_exprs()
                .iter()
                .map(|&w| per_expr[w.idx()])
                .collect(),
            list_totals: list_totals.iter().map(narrow).collect::<Option<_>>()?,
        })
    }

    /// The member counts of one interned list as a contiguous slice;
    /// `range` must come from [`Links::list_range`].
    #[inline]
    pub(crate) fn pool_counts(&self, range: std::ops::Range<usize>) -> &[T] {
        &self.pool[range]
    }

    /// `b_v(i)` of one interned list.
    #[inline]
    pub(crate) fn list_total(&self, l: ListId) -> &T {
        &self.list_totals[l.idx()]
    }

    /// Heap bytes of the sidecar buffers (the inline struct is already
    /// part of `size_of::<Counts>()`).
    fn size_bytes(&self) -> usize {
        (self.pool.capacity() + self.list_totals.capacity()) * std::mem::size_of::<T>()
    }
}

/// The fixed-width rung a space's counts fit, if any. One enum rather
/// than two options: the ladder never stores both rungs.
#[derive(Debug, Clone)]
pub(crate) enum Sidecar {
    /// Every count fits one limb.
    U64(TierCounts<u64>),
    /// Some count needs two limbs, none needs three.
    U128(TierCounts<u128>),
}

impl Sidecar {
    /// The fastest rung every count fits: `u64`, else `u128`, else
    /// none (shared by [`Counts::compute`] and [`Counts::from_parts`]
    /// so loaded artifacts get the fixed-width tiers too).
    fn build(links: &Links, per_expr: &[Nat], list_totals: &[Nat]) -> Option<Sidecar> {
        TierCounts::build(links, per_expr, list_totals, Nat::to_u64)
            .map(Sidecar::U64)
            .or_else(|| Self::build_u128(links, per_expr, list_totals))
    }

    fn build_u128(links: &Links, per_expr: &[Nat], list_totals: &[Nat]) -> Option<Sidecar> {
        TierCounts::build(links, per_expr, list_totals, Nat::to_u128).map(Sidecar::U128)
    }
}

impl Counts {
    /// Smallest number of same-level expressions (or lists) worth a
    /// worker thread; below this a stratum is filled inline.
    const PAR_MIN_NODES: usize = 512;

    /// Computes all counts over `links.topo()`.
    ///
    /// The fill processes the topological order in *levels* — independent
    /// strata of the condensed expr↔list DAG, where
    /// `level(list) = 1 + max level(member)` and
    /// `level(expr) = max level(its lists)`. Everything a node reads was
    /// computed in a strictly earlier stratum, so each stratum's sums and
    /// products fan out across the `threadpool` workers; results are
    /// merged back in index order. Every value is produced by exactly one
    /// task using the same operand order as the sequential walk, so
    /// counts are **bit-identical at every thread count** (asserted by
    /// `tests/build_determinism.rs` and the bijection suites).
    pub fn compute(links: &Links) -> Counts {
        let mut per_expr: Vec<Nat> = vec![Nat::zero(); links.num_exprs()];
        let mut list_totals: Vec<Nat> = vec![Nat::zero(); links.num_lists()];

        // One linear pass assigns strata (children before parents, so
        // every referenced node is already levelled).
        let mut expr_level: Vec<u32> = vec![0; links.num_exprs()];
        let mut list_level: Vec<u32> = vec![u32::MAX; links.num_lists()];
        let level_of_list = |l: ListId, expr_level: &[u32], list_level: &mut Vec<u32>| {
            if list_level[l.idx()] == u32::MAX {
                list_level[l.idx()] = 1 + links
                    .list(l)
                    .iter()
                    .map(|&w| expr_level[w.idx()])
                    .max()
                    .unwrap_or(0);
            }
            list_level[l.idx()]
        };
        let mut max_level = 0u32;
        for &d in links.topo() {
            let level = links
                .slot_lists(d)
                .iter()
                .map(|&l| level_of_list(l, &expr_level, &mut list_level))
                .max()
                .unwrap_or(0);
            expr_level[d.idx()] = level;
            max_level = max_level.max(level);
        }
        // The root list is interned like any other but need not be any
        // slot's list; level it too so the stratum loop computes it.
        let root = links.root_list();
        max_level = max_level.max(level_of_list(root, &expr_level, &mut list_level));

        // Bucket nodes by stratum.
        let mut exprs_at = vec![Vec::new(); max_level as usize + 1];
        for &d in links.topo() {
            exprs_at[expr_level[d.idx()] as usize].push(d);
        }
        let mut lists_at = vec![Vec::new(); max_level as usize + 1];
        for l in 0..links.num_lists() as u32 {
            if list_level[l as usize] != u32::MAX {
                lists_at[list_level[l as usize] as usize].push(ListId::new(l));
            }
        }

        // Fill stratum by stratum: first each level's list totals b (sums
        // of already-counted members), then its expression counts N
        // (products of already-computed b's).
        for level in 0..=max_level as usize {
            let lists = &lists_at[level];
            let totals = threadpool::parallel_map(lists.len(), Self::PAR_MIN_NODES, |i| {
                links
                    .list(lists[i])
                    .iter()
                    .map(|&w| &per_expr[w.idx()])
                    .sum::<Nat>()
            });
            for (&l, b) in lists.iter().zip(totals) {
                list_totals[l.idx()] = b;
            }

            let exprs = &exprs_at[level];
            let counts = threadpool::parallel_map(exprs.len(), Self::PAR_MIN_NODES, |i| {
                let slots = links.slot_lists(exprs[i]);
                if slots.is_empty() {
                    Nat::one()
                } else {
                    let mut product = Nat::one();
                    for &l in slots {
                        product *= &list_totals[l.idx()]; // b = 0 ⇒ no completable plan here
                    }
                    product
                }
            });
            for (&d, n) in exprs.iter().zip(counts) {
                per_expr[d.idx()] = n;
            }
        }

        let total = list_totals[root.idx()].clone();
        let sidecar = Sidecar::build(links, &per_expr, &list_totals);
        Counts {
            per_expr,
            list_totals,
            total,
            sidecar,
        }
    }

    /// Reassembles counts from raw vectors (the artifact load path).
    /// Validates the shapes against `links` and re-derives the space
    /// total from the root list so the three fields cannot disagree.
    /// Numeric *values* are vouched for by the artifact checksum, not
    /// re-counted here — that is the whole point of loading.
    pub fn from_parts(
        links: &Links,
        per_expr: Vec<Nat>,
        list_totals: Vec<Nat>,
    ) -> Result<Counts, SpaceError> {
        if per_expr.len() != links.num_exprs() {
            return Err(SpaceError::MalformedParts {
                reason: "per-expression counts must cover every expression".to_string(),
            });
        }
        if list_totals.len() != links.num_lists() {
            return Err(SpaceError::MalformedParts {
                reason: "list totals must cover every interned list".to_string(),
            });
        }
        let total = list_totals[links.root_list().idx()].clone();
        let sidecar = Sidecar::build(links, &per_expr, &list_totals);
        Ok(Counts {
            per_expr,
            list_totals,
            total,
            sidecar,
        })
    }

    /// `N(v)` for every expression, dense-indexed — the serialization
    /// view (see `plansample-artifact`).
    pub fn per_expr(&self) -> &[Nat] {
        &self.per_expr
    }

    /// `b` of every interned list, list-indexed — the serialization
    /// view.
    pub fn list_totals(&self) -> &[Nat] {
        &self.list_totals
    }

    /// `N(v)`: plans rooted in expression `d`.
    #[inline]
    pub fn rooted(&self, d: DenseId) -> &Nat {
        &self.per_expr[d.idx()]
    }

    /// `b_v(i)`: total alternatives of one interned child list (the sum
    /// of the counts of its eligible children), precomputed at build
    /// time.
    #[inline]
    pub fn list_total(&self, l: ListId) -> &Nat {
        &self.list_totals[l.idx()]
    }

    /// `N`: plans rooted in any root-group expression — the size of the
    /// complete search space.
    pub fn total(&self) -> &Nat {
        &self.total
    }

    /// Which rung of the tier ladder this space's unranker runs on.
    pub fn tier(&self) -> CountTier {
        match self.sidecar {
            Some(Sidecar::U64(_)) => CountTier::U64,
            Some(Sidecar::U128(_)) => CountTier::U128,
            None => CountTier::Nat,
        }
    }

    /// The fixed-width sidecar, when the space sits on one of those
    /// rungs.
    #[inline]
    pub(crate) fn sidecar(&self) -> Option<&Sidecar> {
        self.sidecar.as_ref()
    }

    /// Caps the tier ladder at `tier`, dropping (or rebuilding) the
    /// sidecar as needed — a benchmarking/testing seam for exercising
    /// the slower rungs on spaces that qualify for a faster one.
    /// Forcing `U64` is a no-op (a space that lacks the sidecar cannot
    /// gain it); forcing `U128` replaces a `u64` sidecar with the
    /// two-limb one; forcing `Nat` drops the sidecar.
    pub(crate) fn force_tier(&mut self, links: &Links, tier: CountTier) {
        match tier {
            CountTier::U64 => {}
            CountTier::U128 => {
                if let Some(Sidecar::U64(_)) = self.sidecar {
                    self.sidecar = Sidecar::build_u128(links, &self.per_expr, &self.list_totals);
                }
            }
            CountTier::Nat => self.sidecar = None,
        }
    }

    /// Bytes of memory held by the count buffers, including every limb
    /// allocation and the fixed-width sidecars, capacity-accurate.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.per_expr.iter().map(Nat::size_bytes).sum::<usize>()
            + self.list_totals.iter().map(Nat::size_bytes).sum::<usize>()
            + (self.per_expr.capacity() - self.per_expr.len()) * std::mem::size_of::<Nat>()
            + (self.list_totals.capacity() - self.list_totals.len()) * std::mem::size_of::<Nat>()
            + self.total.size_bytes()
            + match &self.sidecar {
                Some(Sidecar::U64(t)) => t.size_bytes(),
                Some(Sidecar::U128(t)) => t.size_bytes(),
                None => 0,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn paper_example_counts() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let counts = Counts::compute(&links);
        let rooted = |id| counts.rooted(links.ids().dense(id));

        // Leaves count 1.
        for id in [ex.table_scan_a, ex.idx_scan_a, ex.idx_scan_b, ex.idx_scan_c] {
            assert_eq!(rooted(id), &Nat::one(), "{id}");
        }
        // Sort_A has exactly one sortable input (the TableScan).
        assert_eq!(rooted(ex.sort_a).to_u64(), Some(1));
        // HashJoin(A,B) = 3 × 2, MergeJoin(A,B) = 2 × 1.
        assert_eq!(rooted(ex.hash_join_ab).to_u64(), Some(6));
        assert_eq!(rooted(ex.merge_join_ab).to_u64(), Some(2));
        // Roots: 2 × (6+2) = 16 each; space total 32.
        assert_eq!(rooted(ex.root_c_ab).to_u64(), Some(16));
        assert_eq!(rooted(ex.root_ab_c).to_u64(), Some(16));
        assert_eq!(counts.total().to_u64(), Some(32));
    }

    #[test]
    fn slot_totals_are_precomputed_per_list() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let counts = Counts::compute(&links);
        let slots = links.slot_lists(links.ids().dense(ex.root_c_ab));
        assert_eq!(counts.list_total(slots[0]).to_u64(), Some(2)); // group C
        assert_eq!(counts.list_total(slots[1]).to_u64(), Some(8)); // group AB
                                                                   // Every precomputed total matches a fresh sum over its list.
        for (d, _) in links.ids().iter() {
            for &l in links.slot_lists(d) {
                let fresh: Nat = links.list(l).iter().map(|&w| counts.rooted(w)).sum();
                assert_eq!(&fresh, counts.list_total(l));
            }
        }
    }

    #[test]
    fn tier_ladder_and_force_tier() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let mut counts = Counts::compute(&links);
        assert_eq!(counts.tier(), CountTier::U64);

        // The pool mirror is aligned with the links pool: each list's
        // contiguous slice holds exactly its members' rooted counts.
        let Some(Sidecar::U64(fast)) = counts.sidecar().cloned() else {
            panic!("the paper example sits on the u64 rung");
        };
        for (d, _) in links.ids().iter() {
            for &l in links.slot_lists(d) {
                let mirror = fast.pool_counts(links.list_range(l));
                for (&w, &n) in links.list(l).iter().zip(mirror) {
                    assert_eq!(counts.rooted(w).to_u64(), Some(n));
                }
            }
        }

        // Forcing down the ladder rebuilds the wide rung from the exact
        // counts; forcing to Nat drops the sidecar.
        counts.force_tier(&links, CountTier::U128);
        assert_eq!(counts.tier(), CountTier::U128);
        let Some(Sidecar::U128(wide)) = counts.sidecar() else {
            panic!("forcing U128 builds the two-limb rung");
        };
        let root = links.root_list();
        assert_eq!(*wide.list_total(root), counts.total().to_u128().unwrap());
        counts.force_tier(&links, CountTier::Nat);
        assert_eq!(counts.tier(), CountTier::Nat);
        assert_eq!(counts.tier().as_str(), "nat");
        assert_eq!(counts.tier().to_string(), "nat");
    }

    #[test]
    fn size_bytes_counts_every_nat() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let counts = Counts::compute(&links);
        assert!(counts.size_bytes() >= links.num_exprs() * std::mem::size_of::<Nat>());
    }
}
