//! Zero heap allocations per draw, proven with a counting allocator.
//!
//! The flat sampler's contract (DESIGN.md §11): once a reused
//! [`PlanBatch`]'s buffers have grown to the batch's size, a
//! steady-state `sample_batch_flat` fill on either fixed-width tier —
//! `u64` for single-limb spaces, `u128` for two-limb ones — touches no
//! allocator at all: every draw is a rejection-sampled rank plus
//! fixed-width arithmetic into already-owned memory. These tests swap
//! in a
//! `#[global_allocator]` that counts every `alloc`/`realloc`/
//! `alloc_zeroed` and asserts the count is **exactly zero** across a
//! warmed 512-plan fill.
//!
//! It lives in its own integration-test binary because a global
//! allocator is process-wide: the counter would register every other
//! test's allocations otherwise. For the same reason the tests *within*
//! this binary run one after another: each holds [`SERIAL`] for its
//! whole body, so no other test allocates during a measured window. The
//! counter stays process-wide (not per-thread) so that a fill fanned out
//! to pool workers is counted too.
//!
//! The test harness's own threads still allocate now and then (result
//! reporting, spawning the next test's thread), and a loaded host can
//! delay that work into a measured window. So each measurement repeats
//! the same reseeded fill a few times and keeps the *smallest* count
//! ([`fewest_allocations`]). The fill is deterministic — same ranks,
//! same plans, same warmed buffers — so an allocation it made itself
//! would appear in every repetition; only outside noise can differ.

use plansample::{PlanBatch, PlanSpace};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Held by every test in this binary for its whole body, so the
/// process-wide counter only ever sees one test's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a test that panicked while holding it has already
/// failed on its own, so a poisoned lock is taken over.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `fill` several times and returns the fewest process-wide
/// allocations any one run overlapped (see the module docs).
fn fewest_allocations(mut fill: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            fill();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("at least one run")
}

/// Forwards to the system allocator, counting every acquisition path
/// (`dealloc` is deliberately uncounted: freeing is allowed, acquiring
/// is not).
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_flat_sampling_allocates_nothing() {
    let _serial = serial();
    // Chain-6 stays comfortably single-limb, so every draw takes the
    // u64 fast path.
    let (_, query, memo) = JoinGraphSpec::new(Topology::Chain, 6, 20000).build_memo();
    let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("chain-6 builds");
    assert!(
        space.counts().has_fast_path(),
        "chain-6 must be single-limb"
    );

    threadpool::with_threads(1, || {
        let mut out = PlanBatch::new();
        // Warmup on the same seed the measured fill will use: identical
        // ranks → identical plan shapes → the grown capacities are
        // exactly what the measured fill needs.
        let mut rng = StdRng::seed_from_u64(77);
        space.sample_batch_flat(&mut rng, 512, &mut out);
        let warm_nodes = out.total_nodes();

        let counted = fewest_allocations(|| {
            let mut rng = StdRng::seed_from_u64(77);
            space.sample_batch_flat(&mut rng, 512, &mut out);
        });

        assert_eq!(out.len(), 512);
        assert_eq!(
            out.total_nodes(),
            warm_nodes,
            "reseeded fill must repeat itself"
        );
        assert_eq!(
            counted, 0,
            "steady-state sample_batch_flat must not allocate (counted {counted} allocations \
             across 512 draws)"
        );
    });
}

#[test]
fn steady_state_u128_tier_sampling_allocates_nothing() {
    let _serial = serial();
    // The smallest chain past the single-limb boundary: a genuine
    // two-limb space (not a forced one), scanned for rather than
    // hard-coded so the test tracks the boundary itself.
    let space = (10..24)
        .find_map(|rels| {
            let (_, query, memo) = JoinGraphSpec::new(Topology::Chain, rels, 20000).build_memo();
            let space =
                PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("chain builds");
            (!space.counts().has_fast_path() && space.counts().has_wide_path()).then_some(space)
        })
        .expect("some chain under 24 relations needs exactly two limbs");

    threadpool::with_threads(1, || {
        let mut out = PlanBatch::new();
        let mut rng = StdRng::seed_from_u64(78);
        space.sample_batch_flat(&mut rng, 512, &mut out);
        let warm_nodes = out.total_nodes();

        let counted = fewest_allocations(|| {
            let mut rng = StdRng::seed_from_u64(78);
            space.sample_batch_flat(&mut rng, 512, &mut out);
        });

        assert_eq!(out.len(), 512);
        assert_eq!(
            out.total_nodes(),
            warm_nodes,
            "reseeded fill must repeat itself"
        );
        assert_eq!(
            counted, 0,
            "steady-state u128-tier sample_batch_flat must not allocate (counted {counted} \
             allocations across 512 draws)"
        );
    });
}

#[test]
fn the_counter_itself_works() {
    let _serial = serial();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let v: Vec<u8> = Vec::with_capacity(4096);
    std::hint::black_box(&v);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(after > before, "allocator instrumentation is dead");
}

#[test]
fn steady_state_parallel_fill_allocates_nothing_per_draw() {
    let _serial = serial();
    // The parallel fill submits one pool job per call (a fixed, per-call
    // cost); every draw then unranks into the batch's persistent shards.
    // The process-wide counter sees the pool workers' allocations too,
    // so equal counts at every batch size prove zero allocations per
    // draw across all threads.
    let (_, query, memo) = JoinGraphSpec::new(Topology::Chain, 6, 20000).build_memo();
    let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("chain-6 builds");
    threadpool::with_threads(2, || {
        let mut out = PlanBatch::new();
        // Warm the shards (and the pool's workers) at the largest size.
        for _ in 0..2 {
            let mut rng = StdRng::seed_from_u64(79);
            space.sample_batch_flat(&mut rng, 2048, &mut out);
        }
        let counted: Vec<u64> = [512, 1024, 2048]
            .into_iter()
            .map(|k| {
                let counted = fewest_allocations(|| {
                    let mut rng = StdRng::seed_from_u64(79);
                    space.sample_batch_flat(&mut rng, k, &mut out);
                });
                assert_eq!(out.len(), k);
                counted
            })
            .collect();
        assert!(
            counted.iter().all(|&c| c == counted[0]),
            "a parallel fill must not allocate per draw (counted {counted:?} allocations \
             for 512, 1024 and 2048 draws)"
        );
    });
}
