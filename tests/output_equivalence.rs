//! The central end-to-end correctness statement: every optimization
//! configuration — including automatic selection, redundancy elimination
//! and the ATLAS-substitute matmul — produces program output identical to
//! the unoptimized program, on every benchmark.
//!
//! The reference row is the *interpreted* graph (`OptStream::from_graph`):
//! no linear node in it, so nothing extraction computes can leak into
//! both sides of a comparison. `Config::Baseline` — per-filter linear
//! replacement, which is already built from extraction — is one of the
//! compared rows.

use streamlin::core::combine::analyze_graph;
use streamlin::core::{Config, OptStream};
use streamlin::runtime::measure::first_mismatch;
use streamlin::runtime::{MatMulStrategy, RunSpec};

fn check(bench: &streamlin::benchmarks::Benchmark, outputs: usize) {
    let analysis = analyze_graph(bench.graph());
    let run = |label: &str, opt: &OptStream, matmul: MatMulStrategy| {
        RunSpec {
            matmul: Some(matmul),
            ..RunSpec::from_env()
        }
        .run(opt, outputs)
        .unwrap_or_else(|e| panic!("{} {label}: {e}", bench.name()))
    };
    let interpreted = run(
        "interpreted",
        &OptStream::from_graph(bench.graph()),
        MatMulStrategy::Unrolled,
    );

    let configs = [
        ("baseline", Config::Baseline, MatMulStrategy::Unrolled),
        ("autosel", Config::AutoSel, MatMulStrategy::Unrolled),
        ("redund", Config::Redund, MatMulStrategy::Unrolled),
        ("atlas", Config::Linear, MatMulStrategy::Blocked),
        ("diagonal", Config::Linear, MatMulStrategy::Diagonal),
    ];
    for (label, config, strategy) in configs {
        let opt = config
            .apply(bench.graph(), &analysis)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        let prof = run(label, &opt, strategy);
        assert_eq!(
            prof.outputs.len(),
            interpreted.outputs.len(),
            "{} {label}: output count",
            bench.name()
        );
        if let Some(i) = first_mismatch(&interpreted.outputs, &prof.outputs, 1e-5, 1e-5) {
            panic!(
                "{} {label}: output {i} differs: {} vs {}",
                bench.name(),
                interpreted.outputs[i],
                prof.outputs[i]
            );
        }
    }
}

#[test]
fn fir_all_configs() {
    check(&streamlin::benchmarks::fir(64), 512);
}

#[test]
fn rate_convert_all_configs() {
    check(&streamlin::benchmarks::rate_convert(), 256);
}

#[test]
fn target_detect_all_configs() {
    check(&streamlin::benchmarks::target_detect(), 256);
}

#[test]
fn fm_radio_all_configs() {
    check(&streamlin::benchmarks::fm_radio(), 128);
}

#[test]
fn radar_all_configs() {
    check(&streamlin::benchmarks::radar(8, 2), 64);
}

#[test]
fn filter_bank_all_configs() {
    check(&streamlin::benchmarks::filter_bank(), 128);
}

#[test]
fn vocoder_all_configs() {
    check(&streamlin::benchmarks::vocoder(), 64);
}

#[test]
fn oversampler_all_configs() {
    check(&streamlin::benchmarks::oversampler(), 512);
}

#[test]
fn dtoa_all_configs() {
    check(&streamlin::benchmarks::dtoa(), 256);
}
