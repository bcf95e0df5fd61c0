//! A steady-state interpreted firing performs no heap allocation.
//!
//! The firing path around the typed bytecode — `plan::exec_batch`,
//! `engine::fire_interp`, `bytecode::Bound` — stages pushes in a buffer the
//! engine owns and runs over registers the filter keeps, so once the first
//! cycles have grown those buffers nothing on it allocates. A counting
//! global allocator shows it on the two filters the benchmarks fire most:
//! FMRadio's `FloatOneSource` and TargetDetect's `ThresholdDetector`,
//! taken from the benchmark sources and wired into one pipeline on the
//! plan engine, followed by a `duplicate` splitter and a weighted
//! `roundrobin` joiner so the plumbing's slice moves (staged in the same
//! engine-owned buffer, whole cycles at a time) are held to it too. (One
//! test per binary: the counter is process-wide.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use streamlin::core::opt::OptStream;
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

/// The text of `filter <name>` in a benchmark's source, up to the brace
/// that closes it.
fn declaration<'a>(source: &'a str, name: &str) -> &'a str {
    let at = source
        .find(&format!("filter {name}"))
        .unwrap_or_else(|| panic!("no filter {name}"));
    let start = source[..at].rfind('\n').map_or(0, |i| i + 1);
    let mut depth = 0;
    for (i, c) in source[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => return &source[start..=start + i],
            '}' => depth -= 1,
            _ => {}
        }
    }
    panic!("filter {name} never closes");
}

#[test]
fn steady_interpreted_firings_allocate_nothing() {
    let fm_radio = streamlin::benchmarks::fm_radio();
    let target_detect = streamlin::benchmarks::target_detect();
    let src = format!(
        "void->void pipeline Main {{
             add FloatOneSource(); add ThresholdDetector(3, 8.0); add Fan(); add FloatPrinter();
         }}
         float->float splitjoin Fan {{
             split duplicate;
             add Repeat(2); add Repeat(1);
             join roundrobin(2, 1);
         }}
         float->float filter Repeat(int n) {{
             work pop 1 push n {{ float x = pop(); for (int i = 0; i < n; i++) push(x); }}
         }}
         {}\n{}\n{}",
        declaration(fm_radio.source(), "FloatOneSource"),
        declaration(target_detect.source(), "ThresholdDetector"),
        declaration(fm_radio.source(), "FloatPrinter"),
    );
    let program = streamlin::lang::parse(&src).unwrap();
    let graph = streamlin::graph::elaborate(&program).unwrap();
    let flat = flatten(&OptStream::from_graph(&graph), MatMulStrategy::Unrolled).unwrap();
    let interpreted: Vec<&str> = (flat.nodes.iter())
        .filter(|n| matches!(n.kind, NodeKind::Interp(_)))
        .map(|n| n.name.as_str())
        .collect();
    assert_eq!(
        interpreted,
        [
            "FloatOneSource",
            "ThresholdDetector(3, 8)",
            "Repeat(2)",
            "Repeat(1)"
        ]
    );
    let plumbing = |n: &&streamlin::runtime::flat::FlatNode| {
        matches!(n.kind, NodeKind::Duplicate | NodeKind::JoinRR(_))
    };
    assert_eq!(flat.nodes.iter().filter(plumbing).count(), 2);
    let plan = plan::compile(&flat).unwrap();
    assert_eq!(plan.prints_per_cycle, Some(3));
    let mut engine = PlanEngine::<NoCount>::new(flat, plan);

    // Warm up: registers, staging buffers and the output buffer grow to
    // their steady sizes; handing the output out keeps its capacity.
    engine.run_until_outputs(4098).unwrap();
    drop(engine.take_printed(4098));
    let (firings, [whole, stepped]) = (engine.firings(), engine.cycles());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    engine.run_until_outputs(3000).unwrap();
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // A cycle is one firing of the six nodes ahead of the printer and
    // three of the printer; all but the cycle that holds the stop ran whole.
    assert_eq!(engine.firings() - firings, 9000);
    assert_eq!(engine.cycles(), [whole + 999, stepped + 1]);
    assert_eq!(
        &engine.printed()[..3],
        &[3.0, 3.0, 3.0],
        "past the threshold"
    );
    assert_eq!(allocated, 0, "steady firings allocated {allocated} times");
}
