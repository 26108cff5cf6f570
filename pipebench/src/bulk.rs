//! `sample_bulk`: the §5 cost-distribution study at full speed. Batches
//! of 4096 plans from `sample_batch_flat` at the default pool size, every
//! plan costed by `scaled_cost_ids`, on one space per unranking tier.
//!
//! * `u64`: TPC-H Q8 with cross products (22,293 expressions), from SQL
//!   through the optimizer; its working set fits in cache.
//! * `u128`: clique-10 from `build_memo` (709,620 expressions, ~53 MB),
//!   far larger than the last-level cache. Best-plan extraction on it
//!   takes ~30 s, so its costs are scaled to plan 0 instead of the
//!   optimum; the per-plan work is the same.
//! * `nat`: chain-21 from `build_memo` (9,672 expressions, 3 limbs).

use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use plansample_bignum::Nat;
use plansample_core::{CountTier, PlanBatch, PlanSpace, PreparedQuery};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::PhysId;
use plansample_optimizer::OptimizerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Plans per batch.
const BATCH: usize = 4096;
/// Time each tier runs before the next takes its turn.
const QUANTUM: Duration = Duration::from_millis(500);
/// Leading draws of the first batch compared with the tree path.
const TREE_CHECK: usize = 512;

/// One space per tier: `(tier, prepared space)`.
type Spaces = Vec<(CountTier, PreparedQuery)>;

/// Builds a synthetic space with `build_memo`, each step in a span.
/// Costs are scaled to the optimum when `optimum`, else to plan 0.
fn synthetic(tr: &mut Tracer, spec: JoinGraphSpec, optimum: bool) -> PreparedQuery {
    let (_, query, memo) = tr.span("datagen.build_memo", |_| spec.build_memo());
    let (memo, query) = (Arc::new(memo), Arc::new(query));
    let best = optimum.then(|| {
        let totals = plansample_optimizer::compute_totals(&memo, &query);
        plansample_optimizer::best_plan(&memo, &query, &totals).expect("a finite plan")
    });
    let links = tr.span("links.build", |_| {
        plansample_core::Links::build(&memo, &query).expect("links")
    });
    let counts = tr.span("counts.compute", |_| {
        plansample_core::Counts::compute(&links)
    });
    let space = PlanSpace::from_parts(Arc::clone(&memo), query, links, counts).expect("space");
    let (best, cost) = best.unwrap_or_else(|| {
        let plan0 = space.unrank(&Nat::from(0u64)).expect("plan 0");
        let cost = plan0.total_cost(&memo);
        (plan0, cost)
    });
    PreparedQuery::from_parts(space, best, cost, OptimizerConfig::default()).expect("prepared")
}

fn setup(tr: &mut Tracer) -> Spaces {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let q8 = crate::queries::TPCH_SQL[3].1;
    let spec = plansample_sql::parse(&catalog, q8).expect("Q8 parses").spec;
    let q8 = PreparedQuery::prepare(&catalog, &spec, &OptimizerConfig::with_cross_products())
        .expect("Q8 prepares");
    let clique = synthetic(tr, JoinGraphSpec::new(Topology::Clique, 10, 1), false);
    let chain = synthetic(tr, JoinGraphSpec::new(Topology::Chain, 21, 1), true);
    vec![
        (CountTier::U64, q8),
        (CountTier::U128, clique),
        (CountTier::Nat, chain),
    ]
}

/// Samples one batch and costs every plan; returns the cost sum.
fn batch_and_cost(p: &PreparedQuery, rng: &mut StdRng, batch: &mut PlanBatch) -> f64 {
    p.sample_batch_flat(rng, BATCH, batch);
    batch.iter().map(|ids| p.scaled_cost_ids(ids)).sum()
}

fn tier_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ t as u64
}

/// Runs `sample_bulk`: an equal share of the time on each tier.
pub fn run(seed: u64, seconds: f64, trace: bool, setups: usize) -> Outcome {
    let mut out = Outcome::default();
    let ((spaces, setup_trace), setup_s) = crate::report::median_setup(setups, || {
        let mut tr = Tracer::default();
        (setup(&mut tr), tr)
    });
    out.put("setup_s", setup_s, "s");
    for (tier, p) in &spaces {
        out.check(p.tier() == *tier, || {
            format!("space meant for the {tier} tier runs on {}", p.tier())
        });
    }

    // Tiers take turns in slices of QUANTUM, so a slow patch of the
    // host lands on every tier alike.
    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let mut batch = PlanBatch::new();
    let mut rngs: Vec<StdRng> = (0..spaces.len())
        .map(|t| StdRng::seed_from_u64(tier_seed(seed, t)))
        .collect();
    let mut per_tier = vec![Vec::new(); spaces.len()];
    let mut first_batches: Vec<Vec<Vec<PhysId>>> = Vec::new();
    let start = Instant::now();
    while per_tier.iter().any(|v| v.len() < 3) || start.elapsed() < budget {
        for (t, (_, p)) in spaces.iter().enumerate() {
            let slice = Instant::now();
            loop {
                let t0 = Instant::now();
                std::hint::black_box(batch_and_cost(p, &mut rngs[t], &mut batch));
                per_tier[t].push(t0.elapsed().as_secs_f64() * 1e6);
                if per_tier[t].len() == 1 {
                    first_batches.push(batch.iter().map(<[PhysId]>::to_vec).collect());
                }
                if slice.elapsed() >= QUANTUM {
                    break;
                }
            }
        }
    }
    out.attempted = per_tier.iter().map(|v| v.len() as u64).sum();

    // Checks: each tier's first batch equals the 1-thread fill and the
    // tree path's draws from the same seed.
    for (t, (tier, p)) in spaces.iter().enumerate() {
        let first = &first_batches[t];
        let mut one = PlanBatch::new();
        threadpool::with_threads(1, || {
            p.sample_batch_flat(
                &mut StdRng::seed_from_u64(tier_seed(seed, t)),
                BATCH,
                &mut one,
            )
        });
        let same = one.len() == first.len() && one.iter().zip(first).all(|(a, b)| a == &b[..]);
        out.check(same, || {
            format!("{tier}: 1-thread fill differs from the pooled fill")
        });
        let tree = p.sample_batch(&mut StdRng::seed_from_u64(tier_seed(seed, t)), TREE_CHECK);
        let same = tree
            .iter()
            .zip(first)
            .all(|(plan, ids)| plan.preorder_ids() == *ids);
        out.check(same, || {
            format!("{tier}: tree-path sample_batch differs from the flat fill")
        });
    }

    let medians: Vec<f64> = per_tier.iter().map(|v| stats::median(v)).collect();
    let rates: Vec<f64> = per_tier
        .iter()
        .map(|v| BATCH as f64 * v.len() as f64 / (v.iter().sum::<f64>() / 1e6))
        .collect();
    out.put("p50_us", stats::geomean(&medians), "us");
    out.put("rate_per_s", stats::geomean(&rates), "1/s");
    if !trace {
        return out;
    }

    out.metrics.clear();
    for ((tier, _), rate) in spaces.iter().zip(&rates) {
        out.put(format!("plans_per_s.{tier}"), *rate, "1/s");
    }
    let ms = |layer: &str| setup_trace.layer(layer).total_ns as f64 / 1e6;
    out.put("datagen.build_memo_ms", ms("datagen.build_memo"), "ms");
    out.put("links.build_ms.setup", ms("links.build"), "ms");
    out.put("counts.compute_ms.setup", ms("counts.compute"), "ms");
    replay(
        &spaces,
        seed,
        Duration::from_secs_f64(seconds / 2.0),
        &mut out,
    );
    out
}

/// Replays batches traced and untraced (the untraced ones are the
/// ledger's end-to-end reference), then times each tier's layers
/// by direct calls: rank draws, 1-thread and pooled fills, costing.
fn replay(spaces: &Spaces, seed: u64, budget: Duration, out: &mut Outcome) {
    let slice = budget / (2 * spaces.len() as u32);
    let mut batch = PlanBatch::new();
    let (mut self_ns, mut traced_ns, mut plain_ns) = (0.0, 0.0, 0.0);
    for (t, (tier, p)) in spaces.iter().enumerate() {
        let mut traced = Tracer::default();
        let mut plain = Tracer::disabled();
        let mut n = 0u32;
        let start = Instant::now();
        // Traced and untraced batches alternate which goes first.
        while n < 2 || start.elapsed() < slice {
            for way in 0..2 {
                let (tr, ns) = if (way + n).is_multiple_of(2) {
                    (&mut traced, &mut traced_ns)
                } else {
                    (&mut plain, &mut plain_ns)
                };
                let mut rng = StdRng::seed_from_u64(tier_seed(seed, t) ^ u64::from(n));
                let t0 = Instant::now();
                tr.span("sample.fill", |_| {
                    p.sample_batch_flat(&mut rng, BATCH, &mut batch)
                });
                std::hint::black_box(tr.span("cost", |_| {
                    batch.iter().map(|ids| p.scaled_cost_ids(ids)).sum::<f64>()
                }));
                *ns += t0.elapsed().as_nanos() as f64;
            }
            n += 1;
        }
        self_ns += traced.self_sum_ns() as f64;
        let plans = f64::from(n) * BATCH as f64;
        let fill_n = traced.layer("sample.fill").total_ns as f64 / plans;
        out.put(
            format!("cost.ns_per_plan.{tier}"),
            traced.layer("cost").total_ns as f64 / plans,
            "ns",
        );
        out.put(format!("sample.fill_ns_per_plan.{tier}.tN"), fill_n, "ns");
        let mut rng = StdRng::seed_from_u64(tier_seed(seed, t));
        let t1 = Instant::now();
        let reps = 3;
        for _ in 0..reps {
            threadpool::with_threads(1, || p.sample_batch_flat(&mut rng, BATCH, &mut batch));
        }
        let fill_1 = t1.elapsed().as_nanos() as f64 / (reps as f64 * BATCH as f64);
        out.put(format!("sample.fill_ns_per_plan.{tier}.t1"), fill_1, "ns");
        out.put(format!("sample.scaling.{tier}"), fill_1 / fill_n, "ratio");
        out.put(
            format!("sample.nodes_per_plan.{tier}"),
            batch.total_nodes() as f64 / batch.len() as f64,
            "count",
        );
        out.put(
            format!("batch.bytes.{tier}"),
            batch.size_bytes() as f64,
            "bytes",
        );
        let draws = 200_000;
        let total = p.total();
        let t2 = Instant::now();
        for _ in 0..draws {
            match tier {
                CountTier::U64 => {
                    let total = total.to_u64().expect("u64 tier");
                    std::hint::black_box(Nat::random_below_u64(&mut rng, total));
                }
                CountTier::U128 => {
                    let total = total.to_u128().expect("u128 tier");
                    std::hint::black_box(Nat::random_below_u128(&mut rng, total));
                }
                CountTier::Nat => {
                    std::hint::black_box(Nat::random_below(&mut rng, total));
                }
            }
        }
        out.put(
            format!("sample.draw_ns.{tier}"),
            t2.elapsed().as_nanos() as f64 / f64::from(draws),
            "ns",
        );
    }
    out.put(
        "ledger.unaccounted_pct.sample_bulk",
        100.0 * (plain_ns - self_ns) / plain_ns,
        "%",
    );
    out.put(
        "trace.overhead_pct.sample_bulk",
        100.0 * (traced_ns - plain_ns) / plain_ns,
        "%",
    );
}
