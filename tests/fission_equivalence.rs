//! Data-parallel fission is deleted (README, "When one thread wins", has
//! the measurement that decided it). These seven names were its matrix
//! row, benchmark by benchmark; they are kept for one more change only
//! because the test floor admits few removals at once. Each now holds its
//! benchmark to the `threads` row, which is what a lone `--fission w` run
//! was without the rewrite: a pipeline, printing bits identical to the
//! reference with equal tallies and firing counts across stage budgets.
//! Delete this file together with `parallel_equivalence.rs`, which runs
//! the same row under the pipeline's own names.

#[macro_use]
mod matrix;

matrix_tests!(Some("threads");
    rate_convert_fission_is_deterministic => "RateConvert",
    target_detect_fission_is_deterministic => "TargetDetect",
    fm_radio_fission_is_deterministic => "FMRadio",
    radar_fission_is_deterministic => "Radar",
    filter_bank_fission_is_deterministic => "FilterBank",
    vocoder_fission_is_deterministic => "Vocoder",
    oversampler_fission_is_deterministic => "Oversampler",
);
