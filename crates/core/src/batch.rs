//! Reusable flat plan batches — the allocation-free sampling surface.
//!
//! A [`PlanBatch`] holds `k` sampled plans as one contiguous buffer of
//! preorder [`PhysId`]s plus a bounds table, CSR-style, mirroring the
//! flat layout philosophy of [`crate::Links`]: after the first batch
//! warms its capacity, refilling it allocates nothing on the
//! fixed-width tiers. The serving layer's `SampleBatch` path and the
//! throughput benchmark both sample through this type; callers that
//! want trees use [`crate::PlanSpace::sample_batch`], which fills a
//! batch and rebuilds a [`plansample_memo::PlanNode`] from each entry.
//!
//! A preorder id sequence determines the plan tree uniquely (each
//! operator's arity is known from the links), so the flat form loses no
//! information — [`plansample_memo::PlanNode::preorder_ids`] is the
//! inverse direction, and the differential tests compare the two
//! representations directly.
//!
//! Besides the plans, a batch owns the unranker's scratch: one
//! [`Scratch`] per rung of the tier ladder, so every rung reuses its
//! stack and rank buffers across fills.

use crate::links::ListId;
use plansample_bignum::Nat;
use plansample_memo::PhysId;

/// The unranker's reusable buffers for one rung's arithmetic `C`.
#[derive(Debug, Default, Clone)]
pub(crate) struct Scratch<C> {
    /// The explicit recursion stack of `(list, digit)` frames.
    pub(crate) stack: Vec<(ListId, C)>,
    /// Ranks drawn up front by a parallel fill, in draw order.
    pub(crate) ranks: Vec<C>,
}

impl<C> Scratch<C> {
    /// Capacity bytes. Both buffers are empty between fills, so a
    /// `Nat` rung holds no limb spill here.
    fn size_bytes(&self) -> usize {
        self.stack.capacity() * std::mem::size_of::<(ListId, C)>()
            + self.ranks.capacity() * std::mem::size_of::<C>()
    }
}

/// A resizable, reusable batch of flat plans.
///
/// Obtain one with [`PlanBatch::new`], pass it to
/// [`crate::PlanSpace::sample_batch_flat`] (or the
/// [`crate::PreparedQuery`] delegation) as many times as needed; each
/// fill clears the previous content but keeps the capacity.
#[derive(Debug, Default, Clone)]
pub struct PlanBatch {
    /// Preorder operator ids of every plan, concatenated.
    ids: Vec<PhysId>,
    /// Plan `p` = `ids[bounds[p] as usize .. bounds[p+1] as usize]`;
    /// always starts with 0.
    bounds: Vec<u32>,
    /// Unrank scratch of the `u64` tier, kept so its capacity survives
    /// across draws and fills.
    pub(crate) scratch_u64: Scratch<u64>,
    /// Unrank scratch of the `u128` tier.
    pub(crate) scratch_u128: Scratch<u128>,
    /// Unrank scratch of the exact-`Nat` tier.
    pub(crate) scratch_nat: Scratch<Nat>,
    /// Per-shard sub-batches of the parallel fill — one per fixed-size
    /// rank chunk, merged in chunk order after the workers finish. Kept
    /// so shard capacities, too, survive across fills.
    pub(crate) shards: Vec<PlanBatch>,
}

impl PlanBatch {
    /// An empty batch; buffers grow on first use and are kept thereafter.
    pub fn new() -> PlanBatch {
        PlanBatch::default()
    }

    /// Number of plans currently held.
    pub fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Whether the batch holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `p`-th plan as its preorder id sequence.
    ///
    /// # Panics
    /// Panics when `p >= len()`.
    #[inline]
    pub fn plan(&self, p: usize) -> &[PhysId] {
        &self.ids[self.bounds[p] as usize..self.bounds[p + 1] as usize]
    }

    /// Iterates the plans in draw order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[PhysId]> + '_ {
        (0..self.len()).map(|p| self.plan(p))
    }

    /// Drops the plans, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.bounds.clear();
    }

    /// Total preorder ids across all plans (the buffer payload size).
    pub fn total_nodes(&self) -> usize {
        self.ids.len()
    }

    /// Begins a fill: ensures the leading 0 bound is in place.
    pub(crate) fn start_fill(&mut self) {
        self.clear();
        self.bounds.push(0);
    }

    /// Direct access to the id buffer for the unrank fast path; the
    /// caller appends one plan's preorder ids then calls
    /// [`finish_plan`](Self::finish_plan).
    pub(crate) fn ids_mut(&mut self) -> &mut Vec<PhysId> {
        &mut self.ids
    }

    /// Seals the ids appended since the previous seal as one plan.
    pub(crate) fn finish_plan(&mut self) {
        debug_assert!(!self.bounds.is_empty(), "start_fill must come first");
        self.bounds.push(self.ids.len() as u32);
    }

    /// Appends every plan of `other` (the parallel-fill merge step).
    pub(crate) fn append_flat(&mut self, other: &PlanBatch) {
        let offset = self.ids.len() as u32;
        self.ids.extend_from_slice(&other.ids);
        self.bounds
            .extend(other.bounds[1..].iter().map(|&b| b + offset));
    }

    /// Bytes of memory held by the buffers, capacity-accurate,
    /// including every parallel-fill shard.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ids.capacity() * std::mem::size_of::<PhysId>()
            + self.bounds.capacity() * std::mem::size_of::<u32>()
            + self.scratch_u64.size_bytes()
            + self.scratch_u128.size_bytes()
            + self.scratch_nat.size_bytes()
            + self.shards.iter().map(PlanBatch::size_bytes).sum::<usize>()
            + (self.shards.capacity() - self.shards.len()) * std::mem::size_of::<PlanBatch>()
    }
}

impl<'a> IntoIterator for &'a PlanBatch {
    type Item = &'a [PhysId];
    type IntoIter = Box<dyn ExactSizeIterator<Item = &'a [PhysId]> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::PlanSpace;

    /// Appends plan `rank` of the paper example as one batch entry.
    fn push_rank(batch: &mut PlanBatch, space: &PlanSpace, rank: u64) {
        let plan = space.unrank(&Nat::from(rank)).unwrap();
        batch.ids_mut().extend(plan.preorder_ids());
        batch.finish_plan();
    }

    #[test]
    fn plans_read_back_in_push_order() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut batch = PlanBatch::new();
        batch.start_fill();
        for r in [0u64, 13, 31] {
            push_rank(&mut batch, &space, r);
        }
        assert_eq!(batch.len(), 3);
        for (p, r) in [0u64, 13, 31].iter().enumerate() {
            let tree = space.unrank(&Nat::from(*r)).unwrap();
            assert_eq!(batch.plan(p), tree.preorder_ids().as_slice());
        }
        assert_eq!(
            batch.total_nodes(),
            batch.iter().map(<[PhysId]>::len).sum::<usize>()
        );
    }

    #[test]
    fn append_flat_offsets_bounds() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut a = PlanBatch::new();
        a.start_fill();
        push_rank(&mut a, &space, 1);
        let mut b = PlanBatch::new();
        b.start_fill();
        push_rank(&mut b, &space, 2);
        push_rank(&mut b, &space, 3);
        a.append_flat(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(
            a.plan(2),
            space
                .unrank(&Nat::from(3u64))
                .unwrap()
                .preorder_ids()
                .as_slice()
        );
    }

    #[test]
    fn clear_keeps_capacity() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut batch = PlanBatch::new();
        batch.start_fill();
        push_rank(&mut batch, &space, 0);
        let cap = batch.ids.capacity();
        assert!(cap > 0);
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.ids.capacity(), cap);
    }
}
