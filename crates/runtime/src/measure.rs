//! Measured results of a run ([`crate::spec::RunSpec::run`]).
//!
//! Mirrors the paper's measurement methodology (§5.1): programs run for a
//! fixed number of outputs; floating-point operations and multiplications
//! are counted over the whole run and normalized per output, and wall-clock
//! time is recorded alongside. Every run executes a static plan, so a
//! counted run stops on the plan's stepped order: its tallies are the
//! firings that order needs for the outputs asked, no more.

use std::time::Duration;

use streamlin_support::OpCounter;

use crate::engine::RunError;
use crate::flat::FlattenError;
use crate::linear_exec::MatMulStrategy;
use crate::plan::PlanError;

/// Whether execution pays for instruction accounting.
///
/// The paper's experiments (§5.1) count every floating-point instruction;
/// our runtime reproduces that with [`OpCounter`]. Production execution
/// should not carry that tax, so the kernels are generic over
/// [`streamlin_support::Tally`] and a session monomorphizes the whole
/// engine twice:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Count every floating-point operation ([`streamlin_support::CountOps`]).
    /// The default, and the only mode whose [`Profile::ops`] is meaningful.
    #[default]
    Measured,
    /// Bare arithmetic ([`streamlin_support::NoCount`]): the same kernels
    /// monomorphized with a zero-sized tally — bit-identical outputs, no
    /// counting overhead, vectorizable inner loops. [`Profile::ops`] is
    /// all zeros.
    Fast,
}

impl ExecMode {
    /// Both modes.
    pub const ALL: [ExecMode; 2] = [ExecMode::Measured, ExecMode::Fast];

    /// Short label used in tables and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Measured => "measured",
            ExecMode::Fast => "fast",
        }
    }

    /// The matrix-multiply strategy this mode ships with when the caller
    /// doesn't pick one explicitly: the paper's unrolled kernel for the
    /// measured experiment, the vectorized dense kernel for production.
    pub fn default_strategy(self) -> MatMulStrategy {
        match self {
            ExecMode::Measured => MatMulStrategy::Unrolled,
            ExecMode::Fast => MatMulStrategy::Simd,
        }
    }
}

/// Measured results of one program execution.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The captured program output (printed values), in order — truncated
    /// to exactly the requested count so different executors (which may
    /// overshoot by different amounts) are directly comparable.
    pub outputs: Vec<f64>,
    /// Operation counts over the whole run.
    pub ops: OpCounter,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Total node firings.
    pub firings: u64,
    /// Worker threads that executed the run (1 unless the pipeline
    /// executor ran).
    pub threads: usize,
    /// `Some(reason)` when the pipeline run failed with a degradable
    /// error ([`RunError::is_degradable`]) and the results came from the
    /// session's single-threaded replay instead; `None` for
    /// a run that completed on its intended executor. The outputs of a
    /// degraded run are bit-identical to the undegraded ones — the replay
    /// runs the static plan, which every executor is pinned against.
    pub degraded: Option<String>,
}

impl Profile {
    /// Floating-point operations per program output.
    pub fn flops_per_output(&self) -> f64 {
        self.ops.flops() as f64 / self.outputs.len().max(1) as f64
    }

    /// Multiplications (incl. divisions, per the paper's convention) per
    /// program output.
    pub fn mults_per_output(&self) -> f64 {
        self.ops.mults() as f64 / self.outputs.len().max(1) as f64
    }

    /// Nanoseconds per program output.
    pub fn nanos_per_output(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.outputs.len().max(1) as f64
    }
}

/// Errors from profiling.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The stream could not be lowered.
    Flatten(FlattenError),
    /// The run failed.
    Run(RunError),
    /// The graph has no static schedule.
    Plan(PlanError),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Flatten(e) => write!(f, "{e}"),
            ProfileError::Run(e) => write!(f, "{e}"),
            ProfileError::Plan(e) => write!(f, "no static schedule: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<FlattenError> for ProfileError {
    fn from(e: FlattenError) -> Self {
        ProfileError::Flatten(e)
    }
}

impl From<RunError> for ProfileError {
    fn from(e: RunError) -> Self {
        ProfileError::Run(e)
    }
}

impl From<PlanError> for ProfileError {
    fn from(e: PlanError) -> Self {
        ProfileError::Plan(e)
    }
}

/// Asserts two program outputs agree (element-wise, with tolerance
/// suitable for frequency-domain round-trips); returns the first
/// mismatch if any.
pub fn first_mismatch(a: &[f64], b: &[f64], atol: f64, rtol: f64) -> Option<usize> {
    let n = a.len().min(b.len());
    (0..n).find(|&i| !streamlin_support::num::approx_eq(a[i], b[i], atol, rtol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunSpec;
    use streamlin_core::combine::analyze_graph;
    use streamlin_core::opt::OptStream;
    use streamlin_core::Config;

    const PROGRAM: &str = "
        void->void pipeline Main { add S(); add F(8); add F(6); add K(); }
        void->float filter S { float x; work push 1 { push(sin(x++)); } }
        float->float filter F(int N) {
            float[N] h;
            init { for (int i=0;i<N;i++) h[i] = 1.0 / (i + 1); }
            work peek N pop 1 push 1 {
                float s = 0;
                for (int i=0;i<N;i++) s += h[i]*peek(i);
                push(s); pop();
            }
        }
        float->void filter K { work pop 1 { println(pop()); } }
    ";

    /// Runs `PROGRAM` for `n` outputs: fully interpreted when `config`
    /// is `None`, else under that configuration.
    fn run(config: Option<Config>, n: usize) -> Profile {
        let p = streamlin_lang::parse(PROGRAM).unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        let opt = match config {
            None => OptStream::from_graph(&g),
            Some(c) => c.apply(&g, &analyze_graph(&g)).unwrap(),
        };
        RunSpec::default().run(&opt, n).unwrap()
    }

    #[test]
    fn every_configuration_produces_identical_output() {
        let n = 300;
        let baseline = run(Some(Config::Baseline), n);
        for (other, tol) in [
            (None, 1e-9),
            (Some(Config::Linear), 1e-9),
            (Some(Config::Freq), 1e-6),
        ] {
            let got = run(other, n);
            assert_eq!(
                first_mismatch(&baseline.outputs, &got.outputs, tol, tol),
                None,
                "{other:?}"
            );
        }
    }

    #[test]
    fn combination_reduces_multiplications() {
        let baseline = run(Some(Config::Baseline), 500);
        let linear = run(Some(Config::Linear), 500);
        // 8 + 6 mults/output separately vs 13 combined.
        assert!(
            linear.mults_per_output() < baseline.mults_per_output(),
            "combined {} vs baseline {}",
            linear.mults_per_output(),
            baseline.mults_per_output()
        );
    }

    #[test]
    fn interpreted_baseline_counts_the_same_multiplications() {
        // The work-function interpreter and the per-filter linear executor
        // perform the same arithmetic — the baseline substitution of
        // REPRODUCTION.md's "Deviations from the paper", checked.
        let a = run(None, 200).mults_per_output();
        let b = run(Some(Config::Baseline), 200).mults_per_output();
        assert!(
            (a - b).abs() / a < 0.05,
            "interp {a} vs node {b} mults/output"
        );
    }
}
