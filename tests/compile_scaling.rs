//! How compile time grows with pipeline length, on optimised builds only.
//!
//! Selection prices every range of a pipeline of `k` filters from its
//! shape and forms coefficients only for the regions it keeps, so a chain
//! of `k` copies of `fir.str`'s `LowPassFilter(1, pi/3, 256)` costs
//! O(k²) shape compositions plus one fold of the kept region. (When every
//! range formed its full coefficient product, the 120-filter chain took
//! about two minutes.) A debug build is an order of magnitude slower and
//! proves nothing about the shipped code, so the check runs only where
//! debug assertions are off (`cargo test --release --test compile_scaling`).
//!
//! A `duplicate` splitjoin of pipelines is also cut across its columns,
//! at every depth, and the top half of a cut again at every smaller
//! depth: the grid of 16 columns, 16 filters deep, holds that search to
//! the same bound.
#![cfg(not(debug_assertions))]

use std::time::{Duration, Instant};

use streamlin::graph::linear::{LinearFact, NonLinear};
use streamlin::runtime::flat::NodeKind;
use streamlin::runtime::{compile_source, RunSpec};

/// `fir.str` with its one low-pass filter replaced by `k` of them in a row,
/// each with 256 taps.
fn chain(k: usize) -> String {
    let fir = include_str!("../assets/fir.str");
    let single = "add LowPassFilter(1, pi/3, 64);";
    assert!(fir.contains(single));
    let chain = "float->float pipeline Chain(int k) {
         for (int i = 0; i < k; i++) add LowPassFilter(1, pi/3, 256);
     }";
    format!(
        "{}\n{chain}",
        fir.replace(single, &format!("add Chain({k});"))
    )
}

/// `fir.str` with its one low-pass filter replaced by a `duplicate`
/// splitjoin of `columns` pipelines, each `depth - 1` low-pass filters of
/// 256 taps (a cutoff of its own per column) and a stateful accumulator.
fn grid(columns: usize, depth: usize) -> String {
    let fir = include_str!("../assets/fir.str");
    let single = "add LowPassFilter(1, pi/3, 64);";
    assert!(fir.contains(single));
    let grid = "float->float splitjoin Grid(int columns, int depth) {
         split duplicate;
         for (int j = 0; j < columns; j++) add Column(pi / (3 + j), depth);
         join roundrobin;
     }
     float->float pipeline Column(float wc, int depth) {
         for (int i = 1; i < depth; i++) add LowPassFilter(1, wc, 256);
         add Accumulate();
     }
     float->float filter Accumulate {
         float acc;
         work pop 1 push 1 { acc = acc * 0.5 + pop(); push(acc); }
     }";
    format!(
        "{}\n{grid}",
        fir.replace(single, &format!("add Grid({columns}, {depth});"))
    )
}

#[test]
fn a_chain_of_120_filters_compiles_in_under_two_seconds() {
    let src = chain(120);
    let start = Instant::now();
    let compiled =
        compile_source(&src, &RunSpec::default().plan(), None).expect("the chain compiles");
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "{took:?}");
    // Selection keeps one frequency node over the whole chain.
    let kernels = compiled
        .flat
        .nodes
        .iter()
        .filter(|n| matches!(n.kind, NodeKind::Freq(_)));
    assert_eq!(kernels.count(), 1);
}

#[test]
fn a_grid_of_16_columns_16_filters_deep_compiles_in_under_two_seconds() {
    let src = grid(16, 16);
    let start = Instant::now();
    let compiled =
        compile_source(&src, &RunSpec::default().plan(), None).expect("the grid compiles");
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "{took:?}");
    // The columns' linear heads share one frequency node.
    let kernels = compiled
        .flat
        .nodes
        .iter()
        .filter(|n| matches!(n.kind, NodeKind::Freq(_)));
    assert_eq!(kernels.count(), 1);
}

/// Four filters whose one loop spins five million decided trips: the walk
/// unrolls `MAX_UNROLL` of them and widens the rest, so the compile is
/// bounded by the walk's budget, not by the program's trip count, and
/// each filter is refused at its `for`.
#[test]
fn four_spinning_filters_compile_in_under_two_seconds() {
    let src = "void->void pipeline Main { add Src(); add Spin(); add Spin(); add Spin();
         add Spin(); add Sink(); }
     void->float filter Src { work push 1 { push(1.0); } }
     float->float filter Spin { work pop 1 push 1 { float s = pop();
         for (int i = 0; i < 5000000; i++) s = s + 0; push(s); } }
     float->void filter Sink { work pop 1 { println(pop()); } }";
    let start = Instant::now();
    compile_source(src, &RunSpec::default().plan(), None).expect("the spinners compile");
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "{took:?}");
    let graph = streamlin::graph::elaborate(&streamlin::lang::parse(src).unwrap()).unwrap();
    let mut spins = 0;
    graph.for_each_filter(&mut |inst| {
        if inst.decl_name != "Spin" {
            return;
        }
        spins += 1;
        let LinearFact::Refused(NonLinear::Unresolved(why), at) = &*inst.facts.linear else {
            panic!("{}: {:?}", inst.name, inst.facts.linear)
        };
        assert!(why.contains("unroll bound"), "{why}");
        assert_eq!((at.line, at.col), (5, 10));
    });
    assert_eq!(spins, 4);
}
