//! One equivalence matrix: every benchmark, in every configuration, under
//! every sample of every knob of `runtime::spec::KNOBS` — alone and in
//! seeded pairs and triples — prints what the interpreted graph prints on
//! the reference engine, as exactly as the knob's contract says. The
//! engine is `tests/matrix/mod.rs`; a failure names benchmark,
//! configuration, knob, sample and (for a drawn tuple) the seed.

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
