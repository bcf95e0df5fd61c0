//! The `config` row of the equivalence matrix (`tests/equivalence.rs`),
//! benchmark by benchmark, kept for the names of the hand-written suite:
//! every optimization configuration prints what the interpreted graph
//! prints (`OptStream::from_graph`: no linear node in it, so nothing
//! extraction computes can leak into both sides of the comparison).

#[macro_use]
mod matrix;

matrix_tests!(Some("config");
    fir_all_configs => "FIR",
    rate_convert_all_configs => "RateConvert",
    target_detect_all_configs => "TargetDetect",
    fm_radio_all_configs => "FMRadio",
    radar_all_configs => "Radar",
    filter_bank_all_configs => "FilterBank",
    vocoder_all_configs => "Vocoder",
    oversampler_all_configs => "Oversampler",
    dtoa_all_configs => "DToA",
);
