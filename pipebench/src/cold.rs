//! `prepare_cold`: SQL text (or a synthetic spec) to the first sampled
//! plan on an empty cache, with every artifact written through to an
//! `ArtifactStore`, and then a warm restart from that store.
//!
//! One thread, in process, through `PlanService`. Each pass builds
//! fresh services over empty stores, so every lookup is a miss plus a
//! persisted write; afterwards `ArtifactStore::warm` reloads the store
//! into new services and every first sample is drawn again and checked
//! against the cold one.

use crate::queries::TPCH_SQL;
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use plansample_artifact::ArtifactStore;
use plansample_catalog::Catalog;
use plansample_core::{cache_key, Counts, Links, PlanBatch, PlanService, PlanSpace, PreparedQuery};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::PhysId;
use plansample_optimizer::{optimize, OptimizerConfig};
use plansample_query::QuerySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Synthetic members of the suite, optimized without cross products.
const SYNTH: [(Topology, usize, u64); 4] = [
    (Topology::Chain, 12, 1),
    (Topology::Star, 10, 1),
    (Topology::Cycle, 10, 1),
    (Topology::Clique, 8, 1),
];

/// What every suite member must prepare to: `(name, physical
/// expressions, plan count)`, pinned from the commit that introduced
/// this benchmark.
const EXPECTED: [(&str, usize, &str); 16] = [
    ("Q3", 41, "25944"),
    ("Q5", 524, "840579641856"),
    ("Q7", 257, "81257862528"),
    ("Q8", 797, "7686395164876800"),
    ("Q9", 470, "647088602496"),
    ("Q10", 85, "3427680"),
    ("Q3+CP", 53, "34404"),
    ("Q5+CP", 2295, "6366517920960"),
    ("Q7+CP", 2079, "2096413505472"),
    ("Q8+CP", 22293, "1758007804933702272"),
    ("Q9+CP", 2228, "3638106979776"),
    ("Q10+CP", 181, "8814600"),
    ("chain-12", 1857, "814753173082259587072"),
    ("star-10", 14360, "618338163197214720"),
    ("cycle-10", 2704, "503035206779183104"),
    ("clique-8", 53951, "111535430076518400"),
];

/// One member of the suite.
struct Entry {
    name: String,
    /// SQL text over the TPC-H catalog; `None` for a synthetic spec.
    sql: Option<&'static str>,
    cross_products: bool,
    /// The synthetic spec's catalog and query.
    synth: Option<(Catalog, QuerySpec)>,
}

impl Entry {
    fn config(&self) -> OptimizerConfig {
        if self.cross_products {
            OptimizerConfig::with_cross_products()
        } else {
            OptimizerConfig::default()
        }
    }
}

struct Suite {
    tpch: Catalog,
    entries: Vec<Entry>,
}

/// A pass's services and stores: one per optimizer configuration for
/// TPC-H, one per synthetic spec (each has its own catalog). Synthetic
/// artifacts share the no-cross-products store.
struct Services {
    plain: PlanService,
    cp: PlanService,
    synth: Vec<PlanService>,
    stores: [ArtifactStore; 2],
    save_errors: Arc<AtomicU64>,
}

impl Services {
    fn new(suite: &Suite, dir: &Path) -> Services {
        let _ = std::fs::remove_dir_all(dir);
        let stores = [
            ArtifactStore::open(dir.join("plain")).expect("artifact store opens"),
            ArtifactStore::open(dir.join("cp")).expect("artifact store opens"),
        ];
        let save_errors = Arc::new(AtomicU64::new(0));
        let persist = |service: &PlanService, store: &ArtifactStore| {
            let (store, errors) = (store.clone(), Arc::clone(&save_errors));
            service.set_persist(Arc::new(move |p| {
                if let Err(e) = store.save(p) {
                    errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("pipebench: artifact save failed: {e}");
                }
            }));
        };
        let plain = PlanService::new(suite.tpch.clone(), OptimizerConfig::default(), 64);
        let cp = PlanService::new(
            suite.tpch.clone(),
            OptimizerConfig::with_cross_products(),
            64,
        );
        persist(&plain, &stores[0]);
        persist(&cp, &stores[1]);
        let synth = suite
            .entries
            .iter()
            .filter_map(|e| e.synth.as_ref())
            .map(|(catalog, _)| {
                let s = PlanService::new(catalog.clone(), OptimizerConfig::default(), 1);
                persist(&s, &stores[0]);
                s
            })
            .collect();
        Services {
            plain,
            cp,
            synth,
            stores,
            save_errors,
        }
    }

    fn service(&self, suite: &Suite, i: usize) -> &PlanService {
        let e = &suite.entries[i];
        match (e.synth.is_some(), e.cross_products) {
            (true, _) => &self.synth[i - TPCH_SQL.len() * 2],
            (false, true) => &self.cp,
            (false, false) => &self.plain,
        }
    }

    fn store(&self, suite: &Suite, i: usize) -> &ArtifactStore {
        &self.stores[usize::from(suite.entries[i].cross_products)]
    }
}

fn build_suite() -> Suite {
    let (tpch, _) = plansample_catalog::tpch::catalog();
    let mut entries = Vec::new();
    for cross_products in [false, true] {
        for (name, sql) in TPCH_SQL {
            entries.push(Entry {
                name: format!("{name}{}", if cross_products { "+CP" } else { "" }),
                sql: Some(sql),
                cross_products,
                synth: None,
            });
        }
    }
    for (topology, n, seed) in SYNTH {
        let spec = JoinGraphSpec::new(topology, n, seed);
        entries.push(Entry {
            name: format!("{}-{n}", topology.name()),
            sql: None,
            cross_products: false,
            synth: Some(spec.build()),
        });
    }
    Suite { tpch, entries }
}

/// The first sampled plan of a space: ids and scaled cost.
type First = (Vec<PhysId>, f64);

fn first_sample(p: &PreparedQuery, seed: u64, batch: &mut PlanBatch) -> First {
    let mut rng = StdRng::seed_from_u64(seed);
    p.sample_batch_flat(&mut rng, 1, batch);
    let ids = batch.plan(0);
    (ids.to_vec(), p.scaled_cost_ids(ids))
}

/// Parses (or borrows) the entry's query.
fn query_of<'a>(suite: &'a Suite, e: &'a Entry) -> std::borrow::Cow<'a, QuerySpec> {
    match (&e.sql, &e.synth) {
        (Some(sql), _) => std::borrow::Cow::Owned(
            plansample_sql::parse(&suite.tpch, sql)
                .expect("suite SQL parses")
                .spec,
        ),
        (None, Some((_, q))) => std::borrow::Cow::Borrowed(q),
        (None, None) => unreachable!("an entry is SQL or synthetic"),
    }
}

/// What one cold pass and its reload measured.
struct Pass {
    first_us: Vec<f64>,
    suite_s: f64,
    reload_ms: f64,
}

/// One cold pass over the suite plus the warm restart, checked.
fn pass(suite: &Suite, dir: &Path, seed: u64, out: &mut Outcome) -> Pass {
    let services = Services::new(suite, dir);
    let mut batch = PlanBatch::new();
    let mut firsts: Vec<(Arc<PreparedQuery>, First)> = Vec::new();
    let mut first_us = Vec::new();
    let start = Instant::now();
    for (i, e) in suite.entries.iter().enumerate() {
        let t = Instant::now();
        let query = query_of(suite, e);
        let p = services
            .service(suite, i)
            .get_or_prepare(&query)
            .expect("suite query prepares");
        let first = first_sample(&p, seed ^ i as u64, &mut batch);
        first_us.push(t.elapsed().as_secs_f64() * 1e6);
        firsts.push((p, first));
    }
    let suite_s = start.elapsed().as_secs_f64();
    out.attempted += suite.entries.len() as u64;

    // Warm restart: reload both stores into fresh services and draw
    // every first sample again.
    let t = Instant::now();
    let plain = PlanService::new(suite.tpch.clone(), OptimizerConfig::default(), 64);
    let cp = PlanService::new(
        suite.tpch.clone(),
        OptimizerConfig::with_cross_products(),
        64,
    );
    let loaded = services.stores[0].warm(&plain).expect("warm").loaded
        + services.stores[1].warm(&cp).expect("warm").loaded;
    let mut reloaded = Vec::new();
    for (i, e) in suite.entries.iter().enumerate() {
        let query = query_of(suite, e);
        let service = if e.cross_products { &cp } else { &plain };
        let p = service.get_or_prepare(&query).expect("reloaded space");
        reloaded.push(first_sample(&p, seed ^ i as u64, &mut batch));
    }
    let reload_ms = t.elapsed().as_secs_f64() * 1e3;
    out.attempted += suite.entries.len() as u64;

    out.check(loaded == suite.entries.len(), || {
        format!(
            "reload admitted {loaded} of {} artifacts",
            suite.entries.len()
        )
    });
    out.check(services.save_errors.load(Ordering::Relaxed) == 0, || {
        "artifact saves failed".into()
    });
    let misses = plain.stats().misses + cp.stats().misses;
    out.check(misses == 0, || {
        format!("reload prepared {misses} spaces again")
    });
    for (i, ((p, first), again)) in firsts.iter().zip(&reloaded).enumerate() {
        let (name, exprs, total) = EXPECTED[i];
        let e = &suite.entries[i];
        out.check(e.name == name, || {
            format!("suite entry {i} is {}, not {name}", e.name)
        });
        let got_exprs = p.memo().num_physical();
        let got_total = p.total().to_string();
        out.check(got_exprs == exprs && got_total == total, || {
            format!("{name}: {got_exprs} exprs and {got_total} plans, pinned {exprs} and {total}")
        });
        out.check(first == again, || {
            format!("{name}: reloaded first sample differs")
        });
        let q = query_of(suite, e);
        let service = if e.cross_products { &cp } else { &plain };
        let r = service.get_or_prepare(&q).expect("reloaded space");
        out.check(
            r.total() == p.total() && r.best_cost() == p.best_cost(),
            || format!("{name}: reloaded total or best cost differs"),
        );
    }
    let _ = std::fs::remove_dir_all(dir);
    Pass {
        first_us,
        suite_s,
        reload_ms,
    }
}

fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tmp")
        .join(format!("cold-{}", std::process::id()))
}

/// Runs `prepare_cold`. Set-up builds the catalogs and specs and runs
/// one unmeasured pass, so allocator arenas and code pages are warm
/// before timing.
pub fn run(seed: u64, seconds: f64, trace: bool, setups: usize) -> Outcome {
    let dir = scratch_dir();
    let mut out = Outcome::default();
    let mut warmup = Outcome::default();
    let (suite, setup_s) = crate::report::median_setup(setups, || {
        let suite = build_suite();
        pass(&suite, &dir.join("warmup"), seed, &mut warmup);
        suite
    });
    out.failed += warmup.failed;
    out.put("setup_s", setup_s, "s");

    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || start.elapsed() < budget {
        passes.push(pass(&suite, &dir.join("pass"), seed, &mut out));
    }
    let n = suite.entries.len();
    let per_query: Vec<f64> = (0..n)
        .map(|i| stats::median(&passes.iter().map(|p| p.first_us[i]).collect::<Vec<_>>()))
        .collect();
    let suite_s = stats::median(&passes.iter().map(|p| p.suite_s).collect::<Vec<_>>());
    let reload_ms = stats::median(&passes.iter().map(|p| p.reload_ms).collect::<Vec<_>>());
    out.put("p50_us", stats::geomean(&per_query), "us");
    out.put("rate_per_s", n as f64 / suite_s, "1/s");
    if !trace {
        let _ = std::fs::remove_dir_all(&dir);
        return out;
    }

    out.metrics.clear();
    out.put(
        "cold_first_sample_ms.geomean",
        stats::geomean(&per_query) / 1e3,
        "ms",
    );
    out.put("cold_suite_s", suite_s, "s");
    out.put("reload_suite_ms", reload_ms, "ms");
    out.put(
        "artifact.reload_speedup",
        suite_s * 1e3 / reload_ms,
        "ratio",
    );
    out.put("service.hit_ratio.cold", 0.0, "ratio");
    replay(
        &suite,
        &dir,
        seed,
        Duration::from_secs_f64(seconds / 2.0),
        &mut out,
    );
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Replays suite passes through the layer calls `get_or_prepare` makes
/// on a miss (the optimizer, links, counts, the cache insert and the
/// write-through save) and the first sample, traced and then untraced.
fn replay(suite: &Suite, dir: &Path, seed: u64, budget: Duration, out: &mut Outcome) {
    let mut traced = Tracer::default();
    let mut plain = Tracer::disabled();
    let (mut e2e, mut traced_self, mut traced_wall, mut plain_wall) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut passes = 0u32;
    let start = Instant::now();
    // A real pass (the ledger's end-to-end reference) and the traced and
    // untraced replays, in rotating order; each figure is the median
    // over the iterations.
    while passes < 3 || start.elapsed() < budget {
        for way in 0..3 {
            let t = Instant::now();
            match (way + passes) % 3 {
                0 => {
                    let p = pass(suite, &dir.join("e2e"), seed, out);
                    e2e.push(p.first_us.iter().sum::<f64>() * 1e3);
                }
                1 => {
                    // The reload spans are not part of the cold first
                    // samples.
                    let cold_self =
                        |tr: &Tracer| tr.self_sum_ns() - tr.layer("artifact.load").self_ns;
                    let before = cold_self(&traced);
                    replay_pass(&mut traced, suite, &dir.join("replay"), seed, out);
                    traced_wall.push(t.elapsed().as_nanos() as f64);
                    traced_self.push((cold_self(&traced) - before) as f64);
                }
                _ => {
                    replay_pass(&mut plain, suite, &dir.join("replay"), seed, out);
                    plain_wall.push(t.elapsed().as_nanos() as f64);
                }
            }
        }
        passes += 1;
    }
    let per_pass = |ns: u64| ns as f64 / f64::from(passes);
    let e2e = stats::median(&e2e);
    out.put(
        "ledger.unaccounted_pct.prepare_cold",
        100.0 * (e2e - stats::median(&traced_self)) / e2e,
        "%",
    );
    let plain_wall = stats::median(&plain_wall);
    out.put(
        "trace.overhead_pct.prepare_cold",
        100.0 * (stats::median(&traced_wall) - plain_wall) / plain_wall,
        "%",
    );
    let ms = |layer: &str| per_pass(traced.layer(layer).total_ns) / 1e6;
    let exprs: usize = EXPECTED.iter().map(|e| e.1).sum();
    out.put("memo.exprs", exprs as f64, "count");
    out.put("optimizer.optimize_ms", ms("optimizer.optimize"), "ms");
    out.put("links.build_ms", ms("links.build"), "ms");
    out.put(
        "links.ns_per_expr",
        ms("links.build") * 1e6 / exprs as f64,
        "ns",
    );
    out.put("counts.compute_ms", ms("counts.compute"), "ms");
    out.put(
        "counts.ns_per_expr",
        ms("counts.compute") * 1e6 / exprs as f64,
        "ns",
    );
    out.put("artifact.save_ms", ms("artifact.save"), "ms");
    out.put("artifact.load_ms", ms("artifact.load"), "ms");
    out.put(
        "service.prepare_ms",
        traced.layer("service.prepare").mean_ns() / 1e6,
        "ms",
    );

    // Attributions by direct calls, outside the ledger: best-plan
    // extraction runs inside `optimize`, encoding inside the save.
    let (mut best_ns, mut encode_ns) = (0u128, 0u128);
    let mut reps = 0u32;
    let prepared: Vec<PreparedQuery> = suite
        .entries
        .iter()
        .map(|e| {
            let q = query_of(suite, e);
            let catalog = e.synth.as_ref().map_or(&suite.tpch, |s| &s.0);
            PreparedQuery::prepare(catalog, &q, &e.config()).expect("prepares")
        })
        .collect();
    let t0 = Instant::now();
    while reps < 3 || t0.elapsed() < Duration::from_millis(500) {
        for p in &prepared {
            let t = Instant::now();
            let totals = plansample_optimizer::compute_totals(p.memo(), p.query());
            std::hint::black_box(plansample_optimizer::best_plan(
                p.memo(),
                p.query(),
                &totals,
            ));
            best_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            std::hint::black_box(plansample_artifact::encode(p));
            encode_ns += t.elapsed().as_nanos();
        }
        reps += 1;
    }
    let total_bytes: usize = prepared
        .iter()
        .map(|p| plansample_artifact::encode(p).len())
        .sum();
    out.put(
        "optimizer.best_ms",
        best_ns as f64 / f64::from(reps) / 1e6,
        "ms",
    );
    out.put(
        "artifact.encode_ms",
        encode_ns as f64 / f64::from(reps) / 1e6,
        "ms",
    );
    out.put("artifact.bytes", total_bytes as f64, "bytes");
}

/// One suite pass through the layers, each call in its own span, then
/// the reload through `ArtifactStore::load`.
fn replay_pass(tr: &mut Tracer, suite: &Suite, dir: &Path, seed: u64, out: &mut Outcome) {
    let services = Services::new(suite, dir);
    let mut batch = PlanBatch::new();
    let mut firsts = Vec::new();
    for (i, e) in suite.entries.iter().enumerate() {
        let query = match (&e.sql, &e.synth) {
            (Some(sql), _) => tr.span("sql.parse", |_| {
                plansample_sql::parse(&suite.tpch, sql)
                    .expect("parses")
                    .spec
            }),
            (None, Some((_, q))) => q.clone(),
            (None, None) => unreachable!("an entry is SQL or synthetic"),
        };
        let catalog = e.synth.as_ref().map_or(&suite.tpch, |s| &s.0);
        let config = e.config();
        let service = services.service(suite, i);
        let store = services.store(suite, i);
        let p = tr.span("service.prepare", |tr| {
            std::hint::black_box(cache_key(&query, &config));
            let o = tr.span("optimizer.optimize", |_| {
                optimize(catalog, &query, &config).expect("optimizes")
            });
            let (memo, query) = (Arc::new(o.memo), Arc::new(query));
            let links = tr.span("links.build", |_| {
                Links::build(&memo, &query).expect("links")
            });
            let counts = tr.span("counts.compute", |_| Counts::compute(&links));
            let space = PlanSpace::from_parts(memo, query, links, counts).expect("space");
            let p = Arc::new(
                PreparedQuery::from_parts(space, o.best_plan, o.best_cost, config.clone())
                    .expect("prepared"),
            );
            service.warm(Arc::clone(&p));
            tr.span("artifact.save", |_| store.save(&p).expect("saves"));
            p
        });
        let first = tr.span("sample.fill", |_| {
            let mut rng = StdRng::seed_from_u64(seed ^ i as u64);
            p.sample_batch_flat(&mut rng, 1, &mut batch);
            batch.plan(0).to_vec()
        });
        let cost = tr.span("cost", |_| p.scaled_cost_ids(&first));
        firsts.push((first, cost));
    }
    for (i, e) in suite.entries.iter().enumerate() {
        let q = query_of(suite, e);
        let loaded = tr.span("artifact.load", |_| {
            services
                .store(suite, i)
                .load(&q, &e.config())
                .expect("loads")
        });
        let again = loaded.map(|p| first_sample(&p, seed ^ i as u64, &mut batch));
        out.check(again.as_ref() == Some(&firsts[i]), || {
            format!(
                "{}: replayed reload differs from the traced first sample",
                e.name
            )
        });
    }
    let _ = std::fs::remove_dir_all(dir);
}
