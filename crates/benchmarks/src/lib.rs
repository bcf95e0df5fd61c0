//! The nine StreamIt benchmark applications of the paper (Appendix A),
//! written in the `streamlin` dialect.
//!
//! | Benchmark | Paper description (§5.1) |
//! |---|---|
//! | [`fir`] | a single 256-coefficient low-pass FIR filter |
//! | [`rate_convert`] | audio down-sampler converting the rate by 2/3 |
//! | [`target_detect`] | four matched filters in parallel with threshold detection |
//! | [`fm_radio`] | FM software radio with a 10-band equalizer |
//! | [`radar`] | PCA radar front end (reconstructed; see REPRODUCTION.md) |
//! | [`filter_bank`] | multi-rate signal decomposition/reconstruction bank |
//! | [`vocoder`] | channel voice coder with pitch detection |
//! | [`oversampler`] | 16× audio oversampler |
//! | [`dtoa`] | 1-bit D/A front end with a noise-shaping feedback loop |
//!
//! Each constructor returns a [`Benchmark`]: the source text, the parsed
//! program and the elaborated graph. `fir` and `radar` are parameterized
//! for the scaling studies of §5.5 and §5.7.
//!
//! # Examples
//!
//! ```
//! let b = streamlin_benchmarks::fir(16);
//! assert_eq!(b.graph().filter_count(), 3); // source, filter, printer
//! ```

mod prelude;
mod programs;

use streamlin_graph::ir::Stream;
use streamlin_lang::Program;

pub use programs::{
    dtoa, filter_bank, fir, fm_radio, oversampler, radar, rate_convert, target_detect, vocoder,
};

/// A ready-to-run benchmark application.
#[derive(Debug, Clone)]
pub struct Benchmark {
    name: String,
    source: String,
    program: Program,
    graph: Stream,
    default_outputs: usize,
}

impl Benchmark {
    /// Parses and elaborates a benchmark from source.
    ///
    /// # Panics
    ///
    /// Panics if the source does not parse or elaborate — benchmark
    /// sources are fixed assets of this crate, so failure is a bug (and is
    /// covered by tests).
    fn build(name: &str, source: String, default_outputs: usize) -> Benchmark {
        let program = streamlin_lang::parse(&source)
            .unwrap_or_else(|e| panic!("benchmark {name} failed to parse: {e}"));
        let graph = streamlin_graph::elaborate(&program)
            .unwrap_or_else(|e| panic!("benchmark {name} failed to elaborate: {e}"));
        Benchmark {
            name: name.to_string(),
            source,
            program,
            graph,
            default_outputs,
        }
    }

    /// The benchmark's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The StreamIt-dialect source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The elaborated stream graph.
    pub fn graph(&self) -> &Stream {
        &self.graph
    }

    /// A sensible number of program outputs for profiling runs (larger
    /// for cheap benchmarks, smaller for heavy ones).
    pub fn default_outputs(&self) -> usize {
        self.default_outputs
    }
}

/// The benchmark suite at the paper's default sizes, in Table 5.2's order.
pub fn all_default() -> Vec<Benchmark> {
    vec![
        fir(256),
        rate_convert(),
        target_detect(),
        fm_radio(),
        radar(12, 4),
        filter_bank(),
        vocoder(),
        oversampler(),
        dtoa(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_elaborates_and_schedules() {
        for b in all_default() {
            let steady = streamlin_graph::steady::steady_state(b.graph())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert_eq!(steady.io.pop, 0, "{} should be closed", b.name());
            assert_eq!(steady.io.push, 0, "{} should be closed", b.name());
        }
    }

    #[test]
    fn suite_has_nine_benchmarks() {
        let names: Vec<String> = all_default().iter().map(|b| b.name().to_string()).collect();
        assert_eq!(names.len(), 9);
        assert!(names.contains(&"FIR".to_string()));
        assert!(names.contains(&"Radar".to_string()));
    }
}
