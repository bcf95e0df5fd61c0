//! A cache-hit `open` copies no table.
//!
//! A compiled artifact keeps every kernel's coefficients, spectra,
//! twiddles, redundancy tuples and periodic values, and the plan's step
//! lists, behind `Arc`s; what a session owns is its state. So the bytes
//! `open(compiled.clone(), …)` allocates — what the daemon pays on every
//! hit — are the channel slab (`8 × plan.buffer_slots()`) plus a scratch
//! allowance for wiring, interpreter frames and the session itself, and
//! do not grow with the coefficient count. Radar, the benchmark with the
//! largest linear tables, and TargetDetect, whose tables are frequency
//! spectra, are held to it under every matrix-multiply strategy, so each
//! strategy's coefficient layout is shown shared. (One test per binary:
//! the counter is process-wide.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use streamlin::runtime::{compile_source, open, MatMulStrategy, RunSpec};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as `dealloc`, with the caller's obligations on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What an open may allocate besides the channel slab: node wiring and
/// names, interpreted filters' state and frames, the plan's per-channel
/// capacities and the session. A constant, however many coefficients the
/// program's kernels hold.
const SCRATCH_ALLOWANCE: u64 = 48 << 10;

#[test]
fn a_hit_open_copies_no_table() {
    let benches = [
        streamlin::benchmarks::radar(12, 4),
        streamlin::benchmarks::target_detect(),
    ];
    for bench in &benches {
        for matmul in MatMulStrategy::ALL {
            let spec = RunSpec {
                matmul: Some(matmul),
                ..RunSpec::default()
            };
            let compiled = compile_source(bench.source(), &spec.plan(), None).unwrap();
            let tables = compiled.table_bytes() as u64;
            let slab = 8 * compiled.plan.buffer_slots() as u64;
            let exec = spec.exec();
            let before = BYTES.load(Ordering::Relaxed);
            let session = open(compiled.clone(), &exec, None).unwrap();
            let opened = BYTES.load(Ordering::Relaxed) - before;
            drop(session);
            let what = format!("{} under {}", bench.name(), matmul.label());
            eprintln!("{what}: open allocated {opened} B, slab {slab} B, tables {tables} B");
            assert!(
                opened <= slab + SCRATCH_ALLOWANCE,
                "{what}: open allocated {opened} B, over the {slab} B slab + \
                 {SCRATCH_ALLOWANCE} B allowance (the artifact holds {tables} B of tables)"
            );
        }
    }
}
