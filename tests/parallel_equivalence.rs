//! Pipeline-parallel determinism: for every benchmark program, running the
//! partitioned static plan over `--threads {1, 2, 4}` worker threads
//! produces printed output **bit-identical** to the single-threaded static
//! plan, and — because pipeline runs are quantized to whole steady cycles
//! by a thread-count-independent pacing protocol — identical operation
//! tallies and firing counts across every thread count.
//!
//! The pipeline executor runs each stage's slice of the compiled schedule
//! verbatim (same batch sizes, same kernels, same interpreter), so output
//! equality here is exact: `f64::to_bits`, not a tolerance. Feedback
//! programs (dtoa) have no static plan; a `threads` run must fall back
//! to the single-threaded data-driven engine and still match.

use streamlin::core::combine::analyze_graph;
use streamlin::core::Config;
use streamlin::runtime::{ExecMode, MatMulStrategy, RunSpec, Scheduler};

fn check(bench: &streamlin::benchmarks::Benchmark, outputs: usize) {
    let analysis = analyze_graph(bench.graph());
    for config in [Config::Baseline, Config::AutoSel] {
        let label = config.label();
        let opt = config
            .apply(bench.graph(), &analysis)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        for mode in [ExecMode::Measured, ExecMode::Fast] {
            // The single-threaded static plan is the output reference
            // (dynamic fallback for feedback programs, via Auto).
            let base = RunSpec {
                mode,
                matmul: Some(MatMulStrategy::Unrolled),
                sched: Scheduler::Auto,
                ..RunSpec::from_env()
            };
            let reference = base
                .run(&opt, outputs)
                .unwrap_or_else(|e| panic!("{} {label} reference: {e}", bench.name()));

            let mut sweep = Vec::new();
            for threads in [1usize, 2, 4] {
                let prof = RunSpec {
                    threads: Some(threads),
                    ..base.clone()
                }
                .run(&opt, outputs)
                .unwrap_or_else(|e| panic!("{} {label} threads={threads}: {e}", bench.name()));
                assert_eq!(
                    prof.sched,
                    reference.sched,
                    "{} {label} threads={threads}: scheduler drifted",
                    bench.name()
                );
                assert_eq!(
                    prof.outputs.len(),
                    reference.outputs.len(),
                    "{} {label} threads={threads}: output counts differ",
                    bench.name()
                );
                for (i, (a, b)) in reference.outputs.iter().zip(&prof.outputs).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} {label} {} threads={threads}: output {i} differs: {a} vs {b}",
                        bench.name(),
                        mode.label()
                    );
                }
                sweep.push((threads, prof));
            }

            // Tallies and firing counts must agree across the whole thread
            // sweep (in Fast mode the tallies are all zero by construction,
            // but the firing counts still pin the cycle quantization).
            let (_, one) = &sweep[0];
            for (threads, prof) in &sweep[1..] {
                assert_eq!(
                    one.firings,
                    prof.firings,
                    "{} {label} {}: firings differ at threads={threads}",
                    bench.name(),
                    mode.label()
                );
                if mode == ExecMode::Measured {
                    assert_eq!(
                        one.ops,
                        prof.ops,
                        "{} {label}: tallies differ at threads={threads}",
                        bench.name()
                    );
                }
            }
        }
    }
}

#[test]
fn fir_pipeline_is_deterministic() {
    check(&streamlin::benchmarks::fir(64), 512);
}

#[test]
fn rate_convert_pipeline_is_deterministic() {
    check(&streamlin::benchmarks::rate_convert(), 256);
}

#[test]
fn target_detect_pipeline_is_deterministic() {
    check(&streamlin::benchmarks::target_detect(), 256);
}

#[test]
fn fm_radio_pipeline_is_deterministic() {
    check(&streamlin::benchmarks::fm_radio(), 128);
}

#[test]
fn radar_pipeline_is_deterministic() {
    check(&streamlin::benchmarks::radar(8, 2), 64);
}

#[test]
fn filter_bank_pipeline_is_deterministic() {
    check(&streamlin::benchmarks::filter_bank(), 128);
}

#[test]
fn vocoder_pipeline_is_deterministic() {
    check(&streamlin::benchmarks::vocoder(), 64);
}

#[test]
fn oversampler_pipeline_is_deterministic() {
    check(&streamlin::benchmarks::oversampler(), 512);
}

#[test]
fn dtoa_pipeline_falls_back_identically() {
    // dtoa has a noise-shaping feedback loop: no static plan exists, and
    // a `threads` run must take the dynamic fallback for every thread
    // count with identical results.
    check(&streamlin::benchmarks::dtoa(), 256);
}
