//! The `sched` row of the equivalence matrix under the default
//! configuration, benchmark by benchmark, kept for the names of the
//! hand-written scheduler suite (`tests/equivalence.rs` runs the row in
//! every configuration): the static plan, `auto` and the data-driven engine
//! print bit-identical output; DToA's feedback loop has no static plan.

use streamlin::core::combine::analyze_graph;
use streamlin::core::Config;
use streamlin::runtime::{RunSpec, Scheduler};

#[macro_use]
mod matrix;

matrix_tests!(Some("sched");
    fir_static_plan_is_bit_identical => "FIR",
    rate_convert_static_plan_is_bit_identical => "RateConvert",
    target_detect_static_plan_is_bit_identical => "TargetDetect",
    fm_radio_static_plan_is_bit_identical => "FMRadio",
    radar_static_plan_is_bit_identical => "Radar",
    filter_bank_static_plan_is_bit_identical => "FilterBank",
    vocoder_static_plan_is_bit_identical => "Vocoder",
    oversampler_static_plan_is_bit_identical => "Oversampler",
    dtoa_static_plan_is_bit_identical => "DToA",
);

#[test]
fn every_feedback_free_benchmark_compiles_a_plan() {
    for b in streamlin::benchmarks::all_default() {
        let analysis = analyze_graph(b.graph());
        let opt = Config::Baseline.apply(b.graph(), &analysis).unwrap();
        let prof = RunSpec::default()
            .run(&opt, 64)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        let fallback = prof.sched == Scheduler::Dynamic;
        assert_eq!(fallback, opt.has_feedback(), "{}", b.name());
    }
}
