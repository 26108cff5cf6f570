//! Differential test of best-plan extraction.
//!
//! The optimizer computes expression totals and argmin children over one
//! `SlotScan` — one eligibility scan per *distinct* child slot, each
//! slot's minimum computed once — and a prepare hands that scan on to
//! `Links`. This suite keeps the straightforward per-slot recursion (one
//! `eligible_children` scan for every slot of every expression) as the
//! reference and asserts, across TPC-H and synthetic spaces, both
//! explorers and a pruned memo:
//!
//! - every expression's total is bit-identical (`f64::to_bits`), and so
//!   is every group's best;
//! - the extracted best plan is the same tree with the same cost bits,
//!   from `best_plan` and from `optimize`;
//! - links interned from the optimizer's scan equal `Links::build`'s,
//!   compared through `to_parts`;
//! - a prepare runs exactly one eligibility scan per distinct slot.

use plansample::{Links, PreparedQuery};
use plansample_catalog::Catalog;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::{
    eligible_children, thread_eligibility_scans, Memo, PhysId, PlanNode, SlotScan,
};
use plansample_optimizer::{best_plan, compute_totals, optimize, prune, Explorer, OptimizerConfig};
use plansample_query::QuerySpec;
use std::collections::HashMap;

/// The reference: one `eligible_children` scan per slot per expression,
/// totals memoized per expression only.
fn reference_total(
    memo: &Memo,
    query: &QuerySpec,
    id: PhysId,
    cache: &mut HashMap<PhysId, f64>,
) -> f64 {
    if let Some(&c) = cache.get(&id) {
        return c;
    }
    let expr = memo.phys(id);
    let mut total = expr.local_cost;
    for slot in expr.child_slots(id.group) {
        let best = eligible_children(memo, query, &slot)
            .into_iter()
            .map(|child| reference_total(memo, query, child, cache))
            .fold(f64::INFINITY, f64::min);
        total += best;
    }
    cache.insert(id, total);
    total
}

fn reference_expand(
    memo: &Memo,
    query: &QuerySpec,
    cache: &mut HashMap<PhysId, f64>,
    id: PhysId,
) -> PlanNode {
    let children = memo
        .phys(id)
        .child_slots(id.group)
        .iter()
        .map(|slot| {
            let child = eligible_children(memo, query, slot)
                .into_iter()
                .min_by(|a, b| {
                    let (ta, tb) = (
                        reference_total(memo, query, *a, cache),
                        reference_total(memo, query, *b, cache),
                    );
                    ta.total_cmp(&tb)
                })
                .expect("finite-cost parent implies satisfiable slots");
            reference_expand(memo, query, cache, child)
        })
        .collect();
    PlanNode { id, children }
}

fn reference_best(
    memo: &Memo,
    query: &QuerySpec,
    cache: &mut HashMap<PhysId, f64>,
) -> Option<(PlanNode, f64)> {
    let (best_id, cost) = memo
        .group(memo.root())
        .phys_iter()
        .map(|(id, _)| (id, reference_total(memo, query, id, cache)))
        .filter(|(_, c)| c.is_finite())
        .min_by(|a, b| a.1.total_cmp(&b.1))?;
    Some((reference_expand(memo, query, cache, best_id), cost))
}

/// Asserts the interned DP against the reference on one memo and
/// returns the reference best plan.
fn assert_matches_reference(name: &str, memo: &Memo, query: &QuerySpec) -> (PlanNode, f64) {
    let mut cache = HashMap::new();
    let totals = compute_totals(memo, query);
    for group in memo.groups() {
        let mut group_best = f64::INFINITY;
        for (id, _) in group.phys_iter() {
            let want = reference_total(memo, query, id, &mut cache);
            assert_eq!(
                totals.total(id).to_bits(),
                want.to_bits(),
                "{name}: total of {id}"
            );
            group_best = group_best.min(want);
        }
        assert_eq!(
            totals.group_best(group.id).to_bits(),
            group_best.to_bits(),
            "{name}: best of group {}",
            group.id.0
        );
    }
    let (want_plan, want_cost) =
        reference_best(memo, query, &mut cache).expect("a finite-cost plan");
    let (plan, cost) = best_plan(memo, query, &totals).expect("a finite-cost plan");
    assert_eq!(plan, want_plan, "{name}: best plan");
    assert_eq!(cost.to_bits(), want_cost.to_bits(), "{name}: best cost");
    (want_plan, want_cost)
}

/// Optimizes, checks the optimizer's own extraction and its scan.
fn check_optimized(name: &str, catalog: &Catalog, query: &QuerySpec, config: &OptimizerConfig) {
    let opt = optimize(catalog, query, config).expect("optimizes");
    let (want_plan, want_cost) = assert_matches_reference(name, &opt.memo, query);
    assert_eq!(opt.best_plan, want_plan, "{name}: optimize's best plan");
    assert_eq!(
        opt.best_cost.to_bits(),
        want_cost.to_bits(),
        "{name}: optimize's best cost"
    );
    let built = Links::build(&opt.memo, query).expect("links build");
    let shared = Links::from_scan(&opt.memo, opt.slots).expect("links from the scan");
    assert_eq!(shared.to_parts(), built.to_parts(), "{name}: links");
}

fn tpch_queries(catalog: &Catalog) -> Vec<(&'static str, QuerySpec)> {
    use plansample_query::tpch;
    vec![
        ("Q3", tpch::q3(catalog)),
        ("Q5", tpch::q5(catalog)),
        ("Q7", tpch::q7(catalog)),
        ("Q8", tpch::q8(catalog)),
        ("Q9", tpch::q9(catalog)),
        ("Q10", tpch::q10(catalog)),
    ]
}

#[test]
fn tpch_extraction_matches_reference() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    for (name, query) in tpch_queries(&catalog) {
        check_optimized(name, &catalog, &query, &OptimizerConfig::default());
    }
}

#[test]
fn tpch_cross_product_extraction_matches_reference() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    for (name, query) in tpch_queries(&catalog) {
        let name = format!("{name}+CP");
        check_optimized(
            &name,
            &catalog,
            &query,
            &OptimizerConfig::with_cross_products(),
        );
    }
}

#[test]
fn transform_explorer_extraction_matches_reference() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    for (name, query) in tpch_queries(&catalog) {
        for cross_products in [false, true] {
            let config = OptimizerConfig {
                explorer: Explorer::Transform,
                allow_cross_products: cross_products,
                ..Default::default()
            };
            check_optimized(
                &format!("{name}/transform/{cross_products}"),
                &catalog,
                &query,
                &config,
            );
        }
    }
}

#[test]
fn pruned_memo_extraction_matches_reference() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    for (name, query) in tpch_queries(&catalog) {
        let opt = optimize(&catalog, &query, &OptimizerConfig::default()).expect("optimizes");
        for factor in [1.0, 1.5, 10.0] {
            let pruned = prune(&opt.memo, &query, factor);
            let (_, cost) =
                assert_matches_reference(&format!("{name}/prune {factor}"), &pruned, &query);
            assert_eq!(
                cost.to_bits(),
                opt.best_cost.to_bits(),
                "{name}: pruning keeps the optimum"
            );
        }
    }
}

#[test]
fn synthetic_extraction_matches_reference() {
    for (topology, relations) in [
        (Topology::Chain, 8),
        (Topology::Star, 6),
        (Topology::Cycle, 6),
        (Topology::Clique, 5),
    ] {
        let name = format!("{}-{relations}", topology.name());
        let (_, query, memo) = JoinGraphSpec::new(topology, relations, 7).build_memo();
        assert_matches_reference(&name, &memo, &query);
        let built = Links::build(&memo, &query).expect("links build");
        let scan = compute_totals(&memo, &query).into_scan();
        let shared = Links::from_scan(&memo, scan).expect("links from the scan");
        assert_eq!(shared.to_parts(), built.to_parts(), "{name}: links");
    }
}

#[test]
fn a_prepare_scans_each_distinct_slot_once() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    for (name, query) in tpch_queries(&catalog) {
        for config in [
            OptimizerConfig::default(),
            OptimizerConfig::with_cross_products(),
        ] {
            // One thread: the scan's fan-out runs inline, so the calling
            // thread's counter sees every scan.
            let (scans, prepared) = threadpool::with_threads(1, || {
                let before = thread_eligibility_scans();
                let prepared = PreparedQuery::prepare(&catalog, &query, &config).expect("prepares");
                (thread_eligibility_scans() - before, prepared)
            });
            let distinct = SlotScan::build(prepared.memo(), prepared.query()).num_distinct();
            assert_eq!(scans, distinct as u64, "{name}: scans per prepare");
        }
    }
}
