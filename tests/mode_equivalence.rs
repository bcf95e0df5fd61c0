//! The `mode` and `matmul` rows of the equivalence matrix under the
//! default configuration, kept for the names of the hand-written suite
//! (`tests/equivalence.rs` runs them in every configuration): with the
//! kernel pinned `fast` prints the bits `measured` prints and tallies
//! nothing; the other kernels agree with `unrolled` within 1e-9.

mod matrix;

#[test]
fn fast_mode_is_bit_identical_to_measured() {
    for (name, ..) in matrix::BENCHMARKS {
        matrix::check(name, Some("mode"));
    }
}

#[test]
fn simd_strategy_agrees_with_unrolled_on_every_benchmark() {
    for (name, ..) in matrix::BENCHMARKS {
        matrix::check(name, Some("matmul"));
    }
}
