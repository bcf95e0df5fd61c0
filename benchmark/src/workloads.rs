//! The six workloads.
//!
//! Every run walks the same stages over its workload's programs: set-up,
//! in-process compile, `streamlinc`, the counted paper runs, engine
//! samples, then a daemon session (open/read/close cycles and resident
//! reads). A workload is a program set plus where the repetitions go, so
//! each one reports every end-to-end metric, measured on its own
//! programs, and spends most of its time in the layers it was chosen for.
//!
//! All counts are constants for `--seconds 10` and scale linearly with
//! `--seconds`, never with the speed of the machine or of the code: the
//! parent commit and a change always do identical work.

/// Reads against streams that stay open for the whole run.
#[derive(Debug, Clone, Copy)]
pub struct Resident {
    /// Items per `read`.
    pub n: usize,
    /// Requests at `--seconds 10`, spread round-robin over the streams.
    pub requests: u32,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub programs: &'static [&'static str],
    /// Rounds of source text to plan, in-process, over the programs.
    pub compile_rounds: u32,
    /// Rounds of `streamlinc <file> --mode fast --quiet -n 1000`.
    pub cli_rounds: u32,
    /// Timed engine samples per program (plus one discarded warm-up);
    /// 0 where throughput is the daemon's.
    pub engine_samples: u32,
    /// Per program, pairs of one cache-miss and one cache-hit
    /// `open`/`read n=64`/`close` cycle.
    pub churn_pairs: u32,
    pub resident: Option<Resident>,
}

const NINE: &[&str] = &[
    "FIR",
    "RateConvert",
    "TargetDetect",
    "FMRadio",
    "Radar",
    "FilterBank",
    "Vocoder",
    "Oversampler",
    "DToA",
];

/// Items per `read` in the open/read/close cycles.
pub const CHURN_READ_N: usize = 64;
/// Outputs of each `streamlinc` run.
pub const CLI_OUTPUTS: usize = 1000;

pub const ALL: &[Workload] = &[
    // lang, graph and core do nearly all the work and firing nearly none.
    // Radar alone is more than half the suite's compile time, hence
    // per-program geometric means.
    Workload {
        name: "compile_suite",
        programs: NINE,
        compile_rounds: 40,
        cli_rounds: 40,
        engine_samples: 0,
        churn_pairs: 16,
        resident: None,
    },
    // At least 68% of engine time is inside the frequency, FFT and matrix
    // kernels; the interpreter does almost nothing.
    Workload {
        name: "steady_kernel",
        programs: &["FIR", "FIR1024", "Oversampler"],
        compile_rounds: 20,
        cli_rounds: 20,
        engine_samples: 15,
        churn_pairs: 20,
        resident: None,
    },
    // After selection 55-95% of engine time is still interpreted work
    // functions and split/join plumbing. DToA's feedback loop covers the
    // data-driven engine. Kernel changes should not move this workload.
    Workload {
        name: "steady_interp",
        programs: &[
            "RateConvert",
            "TargetDetect",
            "FMRadio",
            "Radar",
            "FilterBank",
            "Vocoder",
            "DToA",
        ],
        compile_rounds: 16,
        cli_rounds: 16,
        engine_samples: 5,
        churn_pairs: 16,
        resident: None,
    },
    // At 4.4 us a round trip, request parse, response encode and pipe
    // wake-ups dominate; firing is a minority.
    Workload {
        name: "daemon_small_reads",
        programs: &["FIR", "FMRadio", "FilterBank", "Vocoder"],
        compile_rounds: 20,
        cli_rounds: 20,
        engine_samples: 0,
        churn_pairs: 20,
        resident: Some(Resident {
            n: 1,
            requests: 1_000_000,
        }),
    },
    // The same service layer the opposite way: sample encoding and firing
    // dominate, the protocol is amortised, and the never-drained output
    // buffer shows as RSS.
    Workload {
        name: "daemon_bulk_reads",
        programs: &["FIR", "Oversampler", "FMRadio", "FilterBank"],
        compile_rounds: 20,
        cli_rounds: 20,
        engine_samples: 0,
        churn_pairs: 20,
        resident: Some(Resident {
            n: 1024,
            requests: 16_000,
        }),
    },
    // Writes beside reads: the plan cache, the admission ledger, session
    // build and teardown and the whole front end inside the daemon, with
    // hundreds of cache entries and no eviction.
    Workload {
        name: "daemon_churn",
        programs: NINE,
        compile_rounds: 16,
        cli_rounds: 16,
        engine_samples: 0,
        churn_pairs: 50,
        resident: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
