//! Child eligibility: which expressions of a group may fill a given child
//! slot.
//!
//! This is the single source of truth for parent→child compatibility,
//! consumed both by the optimizer's best-plan extraction and by the
//! counting/unranking machinery when it materializes links (§3.1 of the
//! paper: "Due to the differences in physical properties some operators
//! of a group may qualify as potential children while others do not").
//! Both consumers read it through one [`SlotScan`], which runs the
//! property scan once per *distinct* slot of the memo.
//!
//! Rules:
//! - an [`Requirement::Order`] slot accepts every expression whose
//!   delivered order satisfies the required one (the empty requirement
//!   accepts *everything*, including enforcers — Figure 3's hash join
//!   "can have any operator from group 1 and 2", and group 1 contains the
//!   Sort 1.4);
//! - a [`Requirement::SortInput`] slot (a Sort enforcer's own input)
//!   accepts the group's non-enforcer expressions that do **not** already
//!   satisfy the sort target. Excluding enforcers rules out Sort-over-Sort
//!   chains, which keeps the plan graph finite and acyclic; excluding
//!   already-satisfying children rules out redundant sorts.

use crate::{ChildSlot, DenseId, DenseIdMap, Memo, OrderSatisfier, PhysId, Requirement};
use plansample_query::QuerySpec;
use std::cell::Cell;
use std::collections::hash_map::{Entry, HashMap};

std::thread_local! {
    /// Per-thread count of [`eligible_children`] scans.
    static THREAD_SCANS: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`eligible_children`] property scans run by the *calling
/// thread* — the hook tests use to prove a prepare scans each distinct
/// slot exactly once. (Pin the build to one thread with
/// `threadpool::with_threads(1, ..)` so [`SlotScan::build`]'s scans run
/// on the caller.)
pub fn thread_eligibility_scans() -> u64 {
    THREAD_SCANS.with(Cell::get)
}

/// All expressions of `slot.group` eligible to fill `slot`, in group
/// order (the order that defines plan ranks).
pub fn eligible_children(memo: &Memo, query: &QuerySpec, slot: &ChildSlot) -> Vec<PhysId> {
    THREAD_SCANS.with(|c| c.set(c.get() + 1));
    let group = memo.group(slot.group);
    // One satisfier for the whole scan: the scope's equivalence classes
    // are built at most once, not per candidate expression.
    let mut sat = OrderSatisfier::new(query, group.scope(query));
    group
        .phys_iter()
        .filter(|(_, e)| match &slot.requirement {
            Requirement::Order(req) => sat.satisfies_cols(e.delivered_cols(), req),
            Requirement::SortInput { target } => {
                !e.op.is_enforcer() && !sat.satisfies_cols(e.delivered_cols(), target)
            }
        })
        .map(|(id, _)| id)
        .collect()
}

/// Every child slot of a memo resolved to its eligible children, with
/// one [`eligible_children`] scan per *distinct* `(group, requirement)`
/// slot.
///
/// Sibling expressions over the same input groups demand the same slots
/// over and over (Q8 with cross products: 44,599 slot references, 1,414
/// distinct slots), so scanning per distinct slot is what keeps child
/// eligibility cheap. The table is the one input both consumers of
/// eligibility share: the optimizer's best-plan extraction computes its
/// per-slot minima over it, and `plansample-core`'s `Links` interns its
/// lists from it. A prepare builds it once and hands it from the first
/// to the second.
///
/// Expressions are addressed by [`DenseId`]; distinct slots by a `u32`
/// index in first-encounter order (dense order, then slot order).
#[derive(Debug, Clone)]
pub struct SlotScan {
    ids: DenseIdMap,
    /// Per expression slot, in dense order then slot order: the index of
    /// its distinct slot.
    slot_of: Vec<u32>,
    /// Expression `d`'s slots are `slot_of[slot_bounds[d] .. slot_bounds[d+1]]`.
    slot_bounds: Vec<u32>,
    /// The eligible children of each distinct slot, in group order.
    children: Vec<Vec<DenseId>>,
}

impl SlotScan {
    /// Smallest number of distinct slots worth a worker thread: each
    /// slot costs one `eligible_children` scan over its group.
    const PAR_MIN_SLOTS: usize = 16;

    /// Scans every distinct child slot of `memo`. Two passes:
    ///
    /// 1. **Gather** (sequential, cheap): walk every expression's child
    ///    slots, assigning each *distinct* slot an index in
    ///    first-encounter order — no property scans yet.
    /// 2. **Scan** (parallel): one [`eligible_children`] property scan
    ///    per distinct slot, fanned out over the `threadpool` workers.
    ///    The scans are independent and each result is a pure function
    ///    of its slot, so the output is bit-identical at every thread
    ///    count.
    pub fn build(memo: &Memo, query: &QuerySpec) -> SlotScan {
        let ids = DenseIdMap::build(memo);

        // Pass 1: gather slots; distinct slots in first-encounter order.
        let mut slot_of: Vec<u32> = Vec::new();
        let mut slot_bounds: Vec<u32> = Vec::with_capacity(ids.len() + 1);
        slot_bounds.push(0);
        let mut by_slot: HashMap<ChildSlot, u32> = HashMap::new();
        let mut distinct: Vec<ChildSlot> = Vec::new();
        for group in memo.groups() {
            for (id, expr) in group.phys_iter() {
                for slot in expr.child_slots(id.group) {
                    let next = distinct.len() as u32;
                    let idx = match by_slot.entry(slot) {
                        Entry::Occupied(o) => *o.get(),
                        Entry::Vacant(v) => {
                            distinct.push(v.key().clone());
                            v.insert(next);
                            next
                        }
                    };
                    slot_of.push(idx);
                }
                slot_bounds.push(slot_of.len() as u32);
            }
        }

        // Pass 2: the property scans — the expensive part — in parallel.
        let children = threadpool::parallel_map(distinct.len(), Self::PAR_MIN_SLOTS, |i| {
            eligible_children(memo, query, &distinct[i])
                .iter()
                .map(|&k| ids.dense(k))
                .collect()
        });
        SlotScan {
            ids,
            slot_of,
            slot_bounds,
            children,
        }
    }

    /// The dense-id table of the scanned memo.
    pub fn ids(&self) -> &DenseIdMap {
        &self.ids
    }

    /// Number of distinct slots (= property scans run).
    pub fn num_distinct(&self) -> usize {
        self.children.len()
    }

    /// The distinct-slot index of each child slot of `d`, in slot order.
    #[inline]
    pub fn slots(&self, d: DenseId) -> &[u32] {
        &self.slot_of[self.slot_bounds[d.idx()] as usize..self.slot_bounds[d.idx() + 1] as usize]
    }

    /// The eligible children of distinct slot `slot`, in group order.
    #[inline]
    pub fn children(&self, slot: u32) -> &[DenseId] {
        &self.children[slot as usize]
    }

    /// Takes the table apart without copying: the dense-id table, the
    /// per-expression-slot distinct indices and their per-expression
    /// bounds (see [`slots`](Self::slots)), and each distinct slot's
    /// children (see [`children`](Self::children)).
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (DenseIdMap, Vec<u32>, Vec<u32>, Vec<Vec<DenseId>>) {
        (self.ids, self.slot_of, self.slot_bounds, self.children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupKey, PhysicalExpr, PhysicalOp, SortOrder};
    use plansample_catalog::{table, Catalog, ColType};
    use plansample_query::{ColRef, QueryBuilder, RelId, RelSet};

    /// One relation with an index on column 0; group holds TableScan,
    /// SortedIdxScan, and a Sort enforcer targeting column 0 — the exact
    /// shape of the paper's group 1 in Figures 2/3.
    fn setup() -> (Catalog, QuerySpec, Memo, crate::GroupId) {
        let mut cat = Catalog::new();
        cat.add_table(
            table("a", 100)
                .col("x", ColType::Int, 100)
                .col("y", ColType::Int, 10)
                .index_on(0)
                .build(),
        )
        .unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        let q = qb.build().unwrap();

        let key = ColRef {
            rel: RelId(0),
            col: 0,
        };
        let mut memo = Memo::new();
        let g = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(0))));
        memo.add_physical(
            g,
            PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(0) }, 100.0, 100.0),
        )
        .unwrap();
        memo.add_physical(
            g,
            PhysicalExpr::new(
                PhysicalOp::SortedIdxScan {
                    rel: RelId(0),
                    col: key,
                },
                120.0,
                100.0,
            ),
        )
        .unwrap();
        memo.add_physical(
            g,
            PhysicalExpr::new(
                PhysicalOp::Sort {
                    target: SortOrder::on_col(key),
                },
                50.0,
                100.0,
            ),
        )
        .unwrap();
        memo.set_root(g);
        (cat, q, memo, g)
    }

    #[test]
    fn empty_requirement_accepts_everything_including_sorts() {
        let (_cat, q, memo, g) = setup();
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::Order(SortOrder::unsorted()),
        };
        let kids = eligible_children(&memo, &q, &slot);
        assert_eq!(kids.len(), 3, "TableScan, SortedIdxScan, Sort all qualify");
    }

    #[test]
    fn order_requirement_selects_sorted_providers() {
        let (_cat, q, memo, g) = setup();
        let key = ColRef {
            rel: RelId(0),
            col: 0,
        };
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::Order(SortOrder::on_col(key)),
        };
        let kids = eligible_children(&memo, &q, &slot);
        // SortedIdxScan (index 1) and Sort (index 2) deliver the order.
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|id| id.index != 0));
    }

    #[test]
    fn unsatisfiable_order_yields_empty() {
        let (_cat, q, memo, g) = setup();
        let other = ColRef {
            rel: RelId(0),
            col: 1,
        };
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::Order(SortOrder::on_col(other)),
        };
        assert!(eligible_children(&memo, &q, &slot).is_empty());
    }

    #[test]
    fn sort_input_excludes_enforcers_and_already_sorted() {
        let (_cat, q, memo, g) = setup();
        let key = ColRef {
            rel: RelId(0),
            col: 0,
        };
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::SortInput {
                target: SortOrder::on_col(key),
            },
        };
        let kids = eligible_children(&memo, &q, &slot);
        // Only the TableScan: the idx scan already satisfies, the Sort is
        // an enforcer.
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].index, 0);
    }

    #[test]
    fn sort_input_for_other_target_takes_differently_sorted() {
        let (_cat, q, memo, g) = setup();
        let other = ColRef {
            rel: RelId(0),
            col: 1,
        };
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::SortInput {
                target: SortOrder::on_col(other),
            },
        };
        let kids = eligible_children(&memo, &q, &slot);
        // TableScan and the x-sorted idx scan both fail to satisfy a sort
        // on y, so both are sortable inputs.
        assert_eq!(kids.len(), 2);
    }

    #[test]
    fn slot_scan_scans_each_distinct_slot_once() {
        let (_cat, q, mut memo, g) = setup();
        // Two joins over `g` on both sides: four unconstrained slots, one
        // distinct slot — plus the Sort's own input slot.
        let top = memo.add_group(GroupKey::Rels(RelSet::all(2)));
        for op in [
            PhysicalOp::NestedLoopJoin { left: g, right: g },
            PhysicalOp::HashJoin { left: g, right: g },
        ] {
            memo.add_physical(top, PhysicalExpr::new(op, 1.0, 1.0))
                .unwrap();
        }
        memo.set_root(top);

        let before = thread_eligibility_scans();
        let scan = threadpool::with_threads(1, || SlotScan::build(&memo, &q));
        assert_eq!(thread_eligibility_scans() - before, 2);
        assert_eq!(scan.num_distinct(), 2);

        let dense = |index| scan.ids().dense(PhysId { group: g, index });
        let sort_slot = scan.slots(dense(2));
        assert_eq!(scan.children(sort_slot[0]), &[dense(0)]);
        for index in 0..2 {
            assert!(scan.slots(dense(index)).is_empty(), "scans have no slots");
        }
        let join = |index| scan.ids().dense(PhysId { group: top, index });
        assert_eq!(scan.slots(join(0)), scan.slots(join(1)));
        let s = scan.slots(join(0));
        assert_eq!(s[0], s[1], "both sides share one distinct slot");
        assert_eq!(scan.children(s[0]), &[dense(0), dense(1), dense(2)]);
    }
}
