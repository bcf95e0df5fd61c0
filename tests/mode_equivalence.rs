//! Execution-mode equivalence over the full benchmark suite.
//!
//! Two guarantees pin the `Fast` production path to the `Measured`
//! experiment:
//!
//! * With the same matrix strategy, `Fast` ([`NoCount`]-monomorphized
//!   kernels, including the AVX dispatch where the CPU has it) prints
//!   **bit-identical** output to `Measured` — the zero-cost claim.
//! * The vectorized `Simd` strategy agrees with the paper's `Unrolled`
//!   strategy to within 1e-9 relative tolerance — its accumulation order
//!   differs (eight partial sums per output), its math does not.
//!
//! [`NoCount`]: streamlin::support::NoCount

use streamlin::core::combine::analyze_graph;
use streamlin::core::Config;
use streamlin::runtime::{ExecMode, MatMulStrategy, RunSpec};

fn outputs_for(name: &str) -> usize {
    match name {
        "Radar" | "Vocoder" => 64,
        "FMRadio" | "FilterBank" => 128,
        _ => 256,
    }
}

#[test]
fn fast_mode_is_bit_identical_to_measured() {
    for bench in streamlin::benchmarks::all_default() {
        let analysis = analyze_graph(bench.graph());
        let n = outputs_for(bench.name());
        for config in [Config::Baseline, Config::Linear] {
            let opt = config.apply(bench.graph(), &analysis).unwrap();
            let run = |mode| {
                RunSpec {
                    mode,
                    matmul: Some(MatMulStrategy::Unrolled),
                    ..RunSpec::from_env()
                }
                .run(&opt, n)
                .unwrap_or_else(|e| panic!("{} {mode:?}: {e}", bench.name()))
            };
            let measured = run(ExecMode::Measured);
            let fast = run(ExecMode::Fast);
            assert_eq!(
                measured.outputs.len(),
                fast.outputs.len(),
                "{}",
                bench.name()
            );
            for (i, (a, b)) in measured.outputs.iter().zip(&fast.outputs).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: output {i} differs: {a} (measured) vs {b} (fast)",
                    bench.name()
                );
            }
            // Fast mode reports no tallies; measured mode reports the run's.
            assert_eq!(fast.ops.flops(), 0, "{}", bench.name());
            assert_eq!(fast.mode, ExecMode::Fast);
        }
    }
}

#[test]
fn simd_strategy_agrees_with_unrolled_on_every_benchmark() {
    for bench in streamlin::benchmarks::all_default() {
        let analysis = analyze_graph(bench.graph());
        let n = outputs_for(bench.name());
        let opt = Config::Linear.apply(bench.graph(), &analysis).unwrap();
        let run = |matmul: MatMulStrategy| {
            RunSpec {
                mode: ExecMode::Fast,
                matmul: Some(matmul),
                ..RunSpec::from_env()
            }
            .run(&opt, n)
            .unwrap_or_else(|e| panic!("{} {}: {e}", bench.name(), matmul.label()))
        };
        let unrolled = run(MatMulStrategy::Unrolled);
        let simd = run(MatMulStrategy::Simd);
        assert_eq!(
            unrolled.outputs.len(),
            simd.outputs.len(),
            "{}",
            bench.name()
        );
        for (i, (a, b)) in unrolled.outputs.iter().zip(&simd.outputs).enumerate() {
            let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
            assert!(
                (a - b).abs() <= tol,
                "{}: output {i}: {a} (unrolled) vs {b} (simd)",
                bench.name()
            );
        }
    }
}
