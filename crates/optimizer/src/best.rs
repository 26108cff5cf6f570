//! Best-plan extraction and cost-bound pruning.
//!
//! Every physical expression's *total* cost is its local cost plus, for
//! each child slot, the minimum total cost among the slot's eligible
//! children — a dynamic program over the (acyclic) plan graph. The best
//! plan of the memo is the cheapest expression of the root group with its
//! argmin children expanded recursively; this is "the most cost effective
//! operator in the root group" the paper extracts (§2) and the optimum
//! all sampled costs are normalized to (§5).

use plansample_memo::{DenseId, GroupId, Memo, PhysId, PlanNode, SlotScan};
use plansample_query::QuerySpec;

/// Memoized total costs for every physical expression, plus the cheapest
/// child of every distinct child slot.
///
/// The dynamic program runs over one [`SlotScan`], so each distinct
/// slot's minimum is computed once and shared by every expression that
/// has the slot. The totals keep the scan: [`best_plan`] reads the
/// per-slot argmins from it, and [`Totals::into_scan`] hands it on to
/// link materialization, so a prepare scans each distinct slot once.
#[derive(Debug)]
pub struct Totals {
    scan: SlotScan,
    /// Total cost per expression, by dense id.
    by_expr: Vec<f64>,
    /// Per distinct slot: its cheapest eligible child (the first in
    /// group order on ties), `None` when no child is eligible.
    best_child: Vec<Option<DenseId>>,
}

impl Totals {
    /// Total cost of the sub-plan space rooted in `id` (infinite when
    /// some child slot has no eligible provider).
    pub fn total(&self, id: PhysId) -> f64 {
        self.by_expr[self.scan.ids().dense(id).idx()]
    }

    /// Cheapest total in `group`, infinite for empty/unsatisfiable groups.
    pub fn group_best(&self, group: GroupId) -> f64 {
        let range = self.scan.ids().group_range(group);
        self.by_expr[range.start as usize..range.end as usize]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// The eligibility scan the totals were computed over.
    pub fn into_scan(self) -> SlotScan {
        self.scan
    }

    /// The plan rooted in `d` that takes each slot's cheapest child.
    fn expand(&self, d: DenseId) -> PlanNode {
        let children = self
            .scan
            .slots(d)
            .iter()
            .map(|&s| {
                let child = self.best_child[s as usize]
                    .expect("finite-cost parent implies satisfiable slots");
                self.expand(child)
            })
            .collect();
        PlanNode {
            id: self.scan.ids().phys(d),
            children,
        }
    }
}

/// The memoized recursion behind [`compute_totals`]: an expression's
/// total is its local cost plus each slot's minimum child total, and a
/// slot's minimum is computed once per distinct slot.
struct Dp<'a> {
    memo: &'a Memo,
    scan: &'a SlotScan,
    by_expr: Vec<Option<f64>>,
    /// Per distinct slot: minimum child total and the first child
    /// attaining it.
    by_slot: Vec<Option<(f64, Option<DenseId>)>>,
}

impl Dp<'_> {
    fn expr(&mut self, d: DenseId) -> f64 {
        if let Some(c) = self.by_expr[d.idx()] {
            return c;
        }
        let scan = self.scan;
        let mut total = self.memo.phys(scan.ids().phys(d)).local_cost;
        for &s in scan.slots(d) {
            total += self.slot(s).0; // INFINITY when the slot is unsatisfiable
        }
        self.by_expr[d.idx()] = Some(total);
        total
    }

    fn slot(&mut self, s: u32) -> (f64, Option<DenseId>) {
        if let Some(b) = self.by_slot[s as usize] {
            return b;
        }
        let scan = self.scan;
        let (mut min, mut arg) = (f64::INFINITY, None);
        let mut arg_total = f64::INFINITY;
        for &child in scan.children(s) {
            let t = self.expr(child);
            min = min.min(t);
            if arg.is_none() || t.total_cmp(&arg_total).is_lt() {
                (arg, arg_total) = (Some(child), t);
            }
        }
        self.by_slot[s as usize] = Some((min, arg));
        (min, arg)
    }
}

/// Computes total costs for all expressions, scanning child eligibility
/// once per distinct slot.
pub fn compute_totals(memo: &Memo, query: &QuerySpec) -> Totals {
    let scan = SlotScan::build(memo, query);
    let n = scan.ids().len();
    let mut dp = Dp {
        memo,
        scan: &scan,
        by_expr: vec![None; n],
        by_slot: vec![None; scan.num_distinct()],
    };
    for d in 0..n as u32 {
        dp.expr(DenseId(d));
    }
    let (by_expr, by_slot) = (dp.by_expr, dp.by_slot);
    Totals {
        by_expr: by_expr
            .into_iter()
            .map(|c| c.expect("all visited"))
            .collect(),
        best_child: by_slot
            .into_iter()
            .map(|b| b.expect("every distinct slot belongs to an expression").1)
            .collect(),
        scan,
    }
}

/// Extracts the cheapest complete plan rooted in the memo's root group.
/// Returns `None` when no finite-cost plan exists (cannot happen for
/// memos produced by the optimizer pipeline). `totals` must have been
/// computed for `memo` and `_query`; the per-slot argmins come from
/// them, so extraction runs no eligibility scan of its own.
pub fn best_plan(memo: &Memo, _query: &QuerySpec, totals: &Totals) -> Option<(PlanNode, f64)> {
    let root = memo.group(memo.root());
    let (best_id, _) = root
        .phys_iter()
        .map(|(id, _)| (id, totals.total(id)))
        .filter(|(_, c)| c.is_finite())
        .min_by(|a, b| a.1.total_cmp(&b.1))?;
    let plan = totals.expand(totals.scan.ids().dense(best_id));
    let cost = totals.total(best_id);
    Some((plan, cost))
}

/// Cost-bound pruning (the `ablation_pruning` experiment): returns a copy of
/// the memo where each group keeps only expressions whose total cost is
/// within `keep_factor` of the group's best. `keep_factor = 1.0` keeps
/// only cost-optimal expressions; larger factors keep near-optimal ones.
///
/// This emulates the search-time "cost based pruning heuristic" the
/// paper describes (§2) — and motivates its advice that, for testing,
/// "it is useful to have the optimizer keep each alternative generated".
pub fn prune(memo: &Memo, query: &QuerySpec, keep_factor: f64) -> Memo {
    assert!(
        keep_factor >= 1.0,
        "keep_factor below 1.0 would drop the best plan"
    );
    let totals = compute_totals(memo, query);
    let mut pruned = Memo::new();
    for group in memo.groups() {
        let gid = pruned.add_group(group.key);
        debug_assert_eq!(gid, group.id);
        for op in &group.logical {
            pruned.add_logical(gid, op.clone());
        }
        let best = totals.group_best(group.id);
        for (id, expr) in group.phys_iter() {
            let t = totals.total(id);
            if t.is_finite() && t <= best * keep_factor {
                pruned.add_physical(gid, expr.clone());
            }
        }
    }
    pruned.set_root(memo.root());
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_bottom_up;
    use crate::implement::{add_enforcers, implement_all};
    use crate::CostModel;
    use plansample_catalog::{table, Catalog, ColType};
    use plansample_memo::validate_plan;
    use plansample_query::QueryBuilder;

    fn pipeline(cat: &Catalog, q: &QuerySpec) -> Memo {
        let mut memo = Memo::new();
        explore_bottom_up(q, false, &mut memo).unwrap();
        let cost = CostModel::default();
        implement_all(q, cat, &cost, true, true, &mut memo);
        add_enforcers(q, cat, &cost, &mut memo);
        memo
    }

    use plansample_query::QuerySpec;

    fn two_rel() -> (Catalog, QuerySpec) {
        let mut cat = Catalog::new();
        cat.add_table(
            table("a", 1000)
                .col("k", ColType::Int, 1000)
                .index_on(0)
                .build(),
        )
        .unwrap();
        cat.add_table(table("b", 10).col("k", ColType::Int, 10).build())
            .unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        qb.rel("b", None).unwrap();
        qb.join(("a", "k"), ("b", "k")).unwrap();
        let q = qb.build().unwrap();
        (cat, q)
    }

    #[test]
    fn totals_are_finite_for_all_expressions() {
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        let totals = compute_totals(&memo, &q);
        for group in memo.groups() {
            for (id, _) in group.phys_iter() {
                assert!(totals.total(id).is_finite(), "{id} should be completable");
            }
        }
    }

    #[test]
    fn best_plan_is_valid_and_cheapest() {
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        let totals = compute_totals(&memo, &q);
        let (plan, cost) = best_plan(&memo, &q, &totals).unwrap();
        assert!(validate_plan(&memo, &q, &plan).is_empty());
        assert!((plan.total_cost(&memo) - cost).abs() < 1e-9);
        // no expression in the root group beats it
        for (id, _) in memo.group(memo.root()).phys_iter() {
            assert!(totals.total(id) >= cost - 1e-9);
        }
    }

    #[test]
    fn totals_compose_over_slots() {
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        let totals = compute_totals(&memo, &q);
        // For every expression: total == local + sum of min over slots.
        for group in memo.groups() {
            for (id, expr) in group.phys_iter() {
                let expected: f64 = expr.local_cost
                    + expr
                        .child_slots(id.group)
                        .iter()
                        .map(|s| {
                            plansample_memo::eligible_children(&memo, &q, s)
                                .into_iter()
                                .map(|c| totals.total(c))
                                .fold(f64::INFINITY, f64::min)
                        })
                        .sum::<f64>();
                assert!((totals.total(id) - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pruning_keeps_best_and_shrinks() {
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        let totals = compute_totals(&memo, &q);
        let (_, best_cost) = best_plan(&memo, &q, &totals).unwrap();

        let pruned = prune(&memo, &q, 1.0);
        assert!(pruned.num_physical() < memo.num_physical());
        assert_eq!(pruned.num_groups(), memo.num_groups());
        let ptotals = compute_totals(&pruned, &q);
        let (pplan, pcost) = best_plan(&pruned, &q, &ptotals).unwrap();
        assert!(
            (pcost - best_cost).abs() < 1e-9,
            "pruning preserves the optimum"
        );
        assert!(validate_plan(&pruned, &q, &pplan).is_empty());
    }

    #[test]
    fn looser_factor_keeps_more() {
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        let tight = prune(&memo, &q, 1.0);
        let loose = prune(&memo, &q, 100.0);
        assert!(loose.num_physical() >= tight.num_physical());
        assert!(loose.num_physical() <= memo.num_physical());
    }

    #[test]
    #[should_panic(expected = "keep_factor")]
    fn pruning_factor_below_one_rejected() {
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        prune(&memo, &q, 0.5);
    }

    #[test]
    fn best_plan_prefers_cheap_join_order() {
        // b has 10 rows, a has 1000: hash join should build on the small
        // side or NLJ with tiny inner; either way cost well below the
        // reverse NLJ.
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        let totals = compute_totals(&memo, &q);
        let (plan, cost) = best_plan(&memo, &q, &totals).unwrap();
        let worst = memo
            .group(memo.root())
            .phys_iter()
            .map(|(id, _)| totals.total(id))
            .fold(0.0f64, f64::max);
        assert!(cost < worst, "best {cost} vs worst {worst}");
        assert!(plan.size() >= 3);
    }
}
