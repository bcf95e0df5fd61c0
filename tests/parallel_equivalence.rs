//! The `threads` row of the equivalence matrix under the default
//! configuration, benchmark by benchmark, kept for the names of the
//! hand-written pipeline suite (`tests/equivalence.rs` runs the row in
//! every configuration): 1, 2 and 4 stages print output bit-identical to
//! the reference with equal tallies and firing counts. DToA's feedback
//! loop stays in one stage.

#[macro_use]
mod matrix;

matrix_tests!(Some("threads");
    fir_pipeline_is_deterministic => "FIR",
    rate_convert_pipeline_is_deterministic => "RateConvert",
    target_detect_pipeline_is_deterministic => "TargetDetect",
    fm_radio_pipeline_is_deterministic => "FMRadio",
    radar_pipeline_is_deterministic => "Radar",
    filter_bank_pipeline_is_deterministic => "FilterBank",
    vocoder_pipeline_is_deterministic => "Vocoder",
    oversampler_pipeline_is_deterministic => "Oversampler",
    dtoa_pipeline_is_deterministic => "DToA",
);
