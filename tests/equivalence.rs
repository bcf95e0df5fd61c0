//! One equivalence matrix: every benchmark, in every configuration, under
//! every sample of every knob of `runtime::spec::KNOBS` — alone and in
//! seeded pairs and triples — prints what the interpreted graph prints on
//! the reference engine, as exactly as the knob's contract says. The
//! engine is `tests/matrix/mod.rs`; a failure names benchmark,
//! configuration, knob, sample and (for a drawn tuple) the seed.

use streamlin::core::combine::analyze_graph;
use streamlin::core::Config;
use streamlin::runtime::RunSpec;

#[macro_use]
mod matrix;

matrix_tests!(None;
    fir => "FIR",
    rate_convert => "RateConvert",
    target_detect => "TargetDetect",
    fm_radio => "FMRadio",
    radar => "Radar",
    filter_bank => "FilterBank",
    vocoder => "Vocoder",
    oversampler => "Oversampler",
    dtoa => "DToA",
);

/// Every benchmark compiles a static plan in every configuration — DToA's
/// feedback loop too, scheduled from the one item it enqueues.
#[test]
fn every_feedback_free_benchmark_compiles_a_plan() {
    for b in streamlin::benchmarks::all_default() {
        let analysis = analyze_graph(b.graph());
        for config in Config::ALL {
            let what = format!("{} {}", b.name(), config.label());
            let opt = config.apply(b.graph(), &analysis).unwrap();
            let art = RunSpec::default()
                .compile(&opt)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(art.plan.steady_firings() > 0, "{what}");
            assert_eq!(art.flat.initial.is_empty(), !opt.has_feedback(), "{what}");
        }
    }
}
