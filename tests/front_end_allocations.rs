//! The front end allocates per program, not per character or per token.
//!
//! `tokenize` scans the text's bytes once, its tokens borrow their text
//! from the source, and the token vector is sized from the text's length,
//! so tokenizing any benchmark takes a handful of heap allocations however
//! many identifiers it has. `parse` reads the tokens by reference, makes
//! a name a `String` once, when its AST node is built, and keeps a block's
//! statements and their spans in one vector. A counting global allocator
//! shows both. (One test per binary: the counter is
//! process-wide.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use streamlin::benchmarks;
use streamlin::lang::lexer::tokenize;
use streamlin::lang::parse;

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

/// The allocations `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(out);
    n
}

/// Heap allocations `parse` made on each program before tokens borrowed
/// their text, when the lexer collected the source into a `Vec<char>` and
/// a `String` per name and the parser cloned every token it read
/// (`tokenize` alone made 350–744 then), and the most it may make now:
/// the count once a block's spans moved into its statement vector
/// (release and debug alike).
const PARSE_BEFORE_AND_AFTER: [(&str, u64, u64); 10] = [
    ("FIR", 877, 325),
    ("RateConvert", 852, 315),
    ("TargetDetect", 1704, 661),
    ("FMRadio", 1559, 584),
    ("Radar", 1907, 764),
    ("FilterBank", 1083, 409),
    ("Vocoder", 1340, 495),
    ("Oversampler", 1006, 386),
    ("DToA", 1163, 432),
    ("FIR1024", 877, 325),
];

#[test]
fn the_front_end_allocates_per_program_not_per_token() {
    let mut suite = benchmarks::all_default();
    suite.push(benchmarks::fir(1024));
    for (b, (name, before, after)) in suite.iter().zip(PARSE_BEFORE_AND_AFTER) {
        let src = b.source();
        let tokens = tokenize(src).unwrap().len();
        let lexing = allocations(|| tokenize(src).unwrap());
        let parsing = allocations(|| parse(src).unwrap());
        println!("{name}: {tokens} tokens, tokenize {lexing}, parse {parsing} (was {before})");
        assert!(lexing <= 3, "{name}: tokenize made {lexing} allocations");
        assert!(
            parsing <= after,
            "{name}: parse made {parsing} allocations, more than the {after} pinned"
        );
    }
}
