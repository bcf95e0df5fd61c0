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
#![cfg(not(debug_assertions))]

use std::time::{Duration, Instant};

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
