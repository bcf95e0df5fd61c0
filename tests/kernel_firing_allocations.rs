//! A steady-state frequency, redundancy or matrix firing performs no heap
//! allocation.
//!
//! `FreqExec::fire`, `RedundExec::fire` and `LinearExec::fire_batch`
//! append what a firing pushes to a buffer the caller owns, and
//! `plan::exec_batch` hands them the engine's staging buffer, so once the
//! first cycles have grown it and the executors' own scratch nothing on
//! the path allocates. FIR(64)'s source is a periodic table, copied into
//! its ring run by run. A counting global allocator shows it on FIR(64)
//! under the `freq` and `redund` configurations and under `linear` with
//! the `simd` kernel (four dot products per pass when uncounted), run in
//! passes of whole cycles and in stepped cycles. (One test per binary:
//! the counter is process-wide.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use streamlin::core::combine::analyze_graph;
use streamlin::core::Config;
use streamlin::runtime::flat::{flatten, NodeKind};
use streamlin::runtime::plan::{self, PlanEngine};
use streamlin::runtime::MatMulStrategy;
use streamlin::support::NoCount;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, with the caller's obligations on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn steady_kernel_firings_allocate_nothing() {
    let bench = streamlin::benchmarks::fir(64);
    let analysis = analyze_graph(bench.graph());
    for (config, strategy) in [
        (Config::Freq, MatMulStrategy::Unrolled),
        (Config::Redund, MatMulStrategy::Unrolled),
        (Config::Linear, MatMulStrategy::Simd),
    ] {
        let opt = config.apply(bench.graph(), &analysis).unwrap();
        let flat = flatten(&opt, strategy).unwrap();
        let kernel = |n: &&streamlin::runtime::flat::FlatNode| match config {
            Config::Freq => matches!(n.kind, NodeKind::Freq(_)),
            Config::Redund => matches!(n.kind, NodeKind::Redund(_)),
            _ => matches!(n.kind, NodeKind::Linear(_)),
        };
        assert_eq!(flat.nodes.iter().filter(kernel).count(), 1, "{config:?}");
        let periodic =
            |n: &&streamlin::runtime::flat::FlatNode| matches!(n.kind, NodeKind::Periodic { .. });
        assert_eq!(flat.nodes.iter().filter(periodic).count(), 1, "{config:?}");
        let plan = plan::compile(&flat).unwrap();
        let prints = plan.prints_per_cycle.unwrap();
        // Enough for a few passes, and for a stepped cycle after them.
        let run = 4 * prints * plan.passes as usize + prints / 2 + 1;
        let mut engine = PlanEngine::<NoCount>::new(flat, plan);

        // Warm up: the executor's scratch, the staging buffer and the
        // output buffer grow to their steady sizes; handing the output out
        // keeps its capacity.
        engine.run_until_outputs(run).unwrap();
        drop(engine.take_printed(run));
        let ([whole, stepped], passes) = (engine.cycles(), engine.passes());

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        engine.run_until_outputs(run).unwrap();
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;

        let [whole_now, stepped_now] = engine.cycles();
        assert!(engine.passes() > passes, "{config:?}: no pass ran");
        assert!(whole_now > whole, "{config:?}: no whole cycle ran");
        assert!(stepped_now > stepped, "{config:?}: no stepped cycle ran");
        assert_eq!(
            allocated, 0,
            "{config:?}: steady firings allocated {allocated} times"
        );
    }
}
