//! The run specification: one value that says how a program is compiled
//! and executed, and the one table that fills it.
//!
//! A [`RunSpec`] holds the nine independently settable run values.
//! `streamlinc` feeds [`KNOBS`] `--flag value` pairs, the daemon's `open`
//! feeds it JSON members (numbers stringified), and tests write struct
//! literals over [`RunSpec::default`]; there is no other parser and no
//! second spelling — nothing here reads the environment. The spec
//! splits by type: [`RunSpec::plan`] is the normalised, hashable
//! [`PlanSpec`] — everything the compiled artifact depends on, and the
//! whole of the daemon's cache key beside the program text — and
//! [`RunSpec::exec`] is the [`ExecSpec`] a session is opened with. The
//! compiler ([`crate::session::compile`]) takes a `&PlanSpec` and cannot
//! see the rest.

use std::time::Duration;

use streamlin_core::Config;
use streamlin_support::InjectFaults;

pub use crate::flat::Tier;
use crate::linear_exec::MatMulStrategy;
use crate::measure::ExecMode;
use crate::parallel::CYCLE_QUANTUM;

/// How one program is compiled and run. `Default` is the only default.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Which optimization configuration builds the stream.
    pub config: Config,
    /// Whether execution pays for instruction accounting.
    pub mode: ExecMode,
    /// Matrix-multiply kernel; `None` takes the mode's default.
    pub matmul: Option<MatMulStrategy>,
    /// Pipeline stage budget; `None` runs the single-threaded plan engine.
    pub threads: Option<usize>,
    /// Cycle quantum of the pipeline pacing protocol, in steady cycles
    /// (>= 1).
    pub quantum: u64,
    /// Which evaluator runs interpreted work functions.
    pub tier: Tier,
    /// Certified phases skip per-access tape checks.
    pub cert: bool,
    /// No-progress deadline of the pipeline watchdog.
    pub watchdog: Option<Duration>,
    /// Deterministic fault plan drilled through the pipeline executor.
    pub fault: Option<InjectFaults>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            config: Config::default(),
            mode: ExecMode::default(),
            matmul: None,
            threads: None,
            quantum: CYCLE_QUANTUM,
            tier: Tier::default(),
            cert: true,
            watchdog: None,
            fault: None,
        }
    }
}

/// The compile half of a [`RunSpec`], normalised: two requests that
/// compile to the same artifact are equal here, so `(program text,
/// PlanSpec)` is the plan-cache key (hashed a word at a time, compared by
/// its text) and no knob can alias an entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanSpec {
    pub config: Config,
    /// Resolved: an unset `matmul` took the mode's default, which is the
    /// mode's only compile-time effect.
    pub matmul: MatMulStrategy,
    /// Pipeline stage budget.
    pub threads: Option<usize>,
    pub quantum: u64,
    pub tier: Tier,
    pub cert: bool,
}

/// The run half of a [`RunSpec`]: what a session needs beyond the
/// compiled artifact.
#[derive(Debug, Clone, Default)]
pub struct ExecSpec {
    pub mode: ExecMode,
    pub watchdog: Option<Duration>,
    pub fault: Option<InjectFaults>,
}

impl RunSpec {
    /// The normalised compile half.
    pub fn plan(&self) -> PlanSpec {
        PlanSpec {
            config: self.config,
            matmul: self.matmul.unwrap_or(self.mode.default_strategy()),
            threads: self.threads,
            quantum: self.quantum,
            tier: self.tier,
            cert: self.cert,
        }
    }

    /// The run half.
    pub fn exec(&self) -> ExecSpec {
        ExecSpec {
            mode: self.mode,
            watchdog: self.watchdog,
            fault: self.fault.clone(),
        }
    }
}

/// The one numeric validator: a decimal integer `>= min`. Negative,
/// fractional and non-finite spellings all fail to parse.
///
/// # Errors
///
/// What was expected and what was given.
pub fn count(raw: &str, min: u64) -> Result<u64, String> {
    match raw.parse::<u64>() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!("must be an integer >= {min}, got `{raw}`")),
    }
}

/// The one enumeration validator.
fn one_of<T: Copy>(raw: &str, options: &[(&str, T)]) -> Result<T, String> {
    match options.iter().find(|(label, _)| *label == raw) {
        Some(&(_, value)) => Ok(value),
        None => {
            let labels: Vec<&str> = options.iter().map(|(label, _)| *label).collect();
            Err(format!("must be one of {}, got `{raw}`", labels.join("|")))
        }
    }
}

/// What a value of a knob may do to a program's printed output, against
/// the interpreted graph on the reference engine. `tests/equivalence.rs`
/// holds every row to it, for every value in `samples`, on every benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Contract {
    /// The output is bit-identical to the reference.
    Bits,
    /// [`Contract::Bits`], and tallies and firing counts are equal across
    /// the samples (pipeline runs quantize to the same steady cycles).
    BitsAndCounts,
    /// The output agrees with the reference within this absolute and
    /// relative tolerance (the arithmetic is reassociated).
    Tolerance(f64),
    /// The knob is not about output; its drills are `tests/failure_modes.rs`.
    NotOutput,
}

impl Contract {
    /// The contract as the README's knob table prints it.
    pub fn label(self) -> String {
        match self {
            Contract::Bits => "bits".into(),
            Contract::BitsAndCounts => "bits, counts".into(),
            Contract::Tolerance(eps) => format!("within {eps:e}"),
            Contract::NotOutput => "not output".into(),
        }
    }
}

/// One row of the knob table.
pub struct Knob {
    /// The JSON member of an `open` request.
    pub key: &'static str,
    /// The `streamlinc` flag, without the leading `--`.
    pub flag: &'static str,
    /// Accepted values, as the usage text shows them.
    pub values: &'static str,
    /// Whether the value is part of [`PlanSpec`] (else of [`ExecSpec`]).
    pub compile_time: bool,
    /// What a value of this knob may do to the output.
    pub contract: Contract,
    /// The values the equivalence matrix runs (and the parity tests parse).
    pub samples: &'static [&'static str],
    /// One line for `--help` and the README.
    pub help: &'static str,
    set: fn(&mut RunSpec, &str) -> Result<(), String>,
}

impl Knob {
    /// Validates `raw` and stores it.
    ///
    /// # Errors
    ///
    /// Why the value is not acceptable (the caller names the knob).
    pub fn apply(&self, spec: &mut RunSpec, raw: &str) -> Result<(), String> {
        (self.set)(spec, raw)
    }
}

/// Every run value: its spelling, its validation and its output contract.
/// Adding a knob is adding a row (and a field): the CLI, the wire protocol,
/// the usage text, `tests/run_spec.rs` and the equivalence matrix iterate it.
pub const KNOBS: &[Knob] = &[
    Knob {
        key: "config",
        flag: "config",
        values: "baseline|linear|freq|redund|autosel",
        compile_time: true,
        contract: Contract::Tolerance(1e-5),
        samples: &["baseline", "linear", "freq", "redund", "autosel"],
        help: "optimization configuration (§5.2)",
        set: |s, v| one_of(v, &Config::ALL.map(|c| (c.label(), c))).map(|c| s.config = c),
    },
    Knob {
        key: "mode",
        flag: "mode",
        values: "measured|fast",
        compile_time: false,
        contract: Contract::Bits,
        samples: &["measured", "fast"],
        help: "count every floating-point operation, or bare arithmetic",
        set: |s, v| one_of(v, &ExecMode::ALL.map(|x| (x.label(), x))).map(|x| s.mode = x),
    },
    Knob {
        key: "matmul",
        flag: "matmul",
        values: "unrolled|blocked|simd",
        compile_time: true,
        contract: Contract::Tolerance(1e-9),
        samples: &["unrolled", "blocked", "simd"],
        help: "linear-node kernel (default: unrolled when measured, simd when fast)",
        set: |s, v| {
            one_of(v, &MatMulStrategy::ALL.map(|x| (x.label(), x))).map(|x| s.matmul = Some(x))
        },
    },
    Knob {
        key: "threads",
        flag: "threads",
        values: "<n>",
        compile_time: true,
        contract: Contract::BitsAndCounts,
        samples: &["1", "2", "4"],
        help: "run the pipeline-parallel executor over at most n stages",
        set: |s, v| count(v, 1).map(|n| s.threads = Some(n as usize)),
    },
    Knob {
        key: "quantum",
        flag: "quantum",
        values: "<n>",
        compile_time: true,
        contract: Contract::Bits,
        samples: &["1", "2", "8"],
        help: "pipeline pacing quantum in steady cycles (default: 4)",
        set: |s, v| count(v, 1).map(|q| s.quantum = q),
    },
    Knob {
        key: "tier",
        flag: "tier",
        values: "bytecode|treewalk",
        compile_time: true,
        contract: Contract::Bits,
        samples: &["bytecode", "treewalk"],
        help: "interpreter tier: typed register bytecode, or the tree-walking reference",
        set: |s, v| {
            one_of(
                v,
                &[("bytecode", Tier::Bytecode), ("treewalk", Tier::TreeWalk)],
            )
            .map(|t| s.tier = t)
        },
    },
    Knob {
        key: "cert",
        flag: "cert",
        values: "on|off",
        compile_time: true,
        contract: Contract::Bits,
        samples: &["on", "off"],
        help: "certified phases skip tape checks",
        set: |s, v| one_of(v, &[("on", true), ("off", false)]).map(|on| s.cert = on),
    },
    Knob {
        key: "watchdog_ms",
        flag: "watchdog-ms",
        values: "<ms>",
        compile_time: false,
        contract: Contract::NotOutput,
        samples: &["1", "2000"],
        help: "no-progress deadline of the pipeline watchdog",
        set: |s, v| count(v, 1).map(|ms| s.watchdog = Some(Duration::from_millis(ms))),
    },
    Knob {
        key: "fault",
        flag: "fault-inject",
        values: "<seed>:<spec>[,<spec>...]",
        compile_time: false,
        contract: Contract::NotOutput,
        samples: &["7:die@s0", "3:wedge,refuse#1"],
        help: "deterministic fault drill (panic@s1, wedge, die, slow=50, delay@c2=100, refuse#1)",
        set: |s, v| InjectFaults::parse(v).map(|f| s.fault = Some(f)),
    },
];

/// The `[--flag values]` line of every knob, for a usage message.
pub fn usage_flags(indent: &str) -> String {
    let lines = KNOBS
        .iter()
        .map(|k| format!("{indent}[--{} {}]", k.flag, k.values));
    lines.collect::<Vec<_>>().join("\n")
}

/// The knob table as the README prints it (`tests/run_spec.rs` pins that
/// the README carries exactly this text).
pub fn markdown_table() -> String {
    let mut out =
        String::from("| flag | `open` member | values | half | contract | meaning |\n|---|---|---|---|---|---|\n");
    for k in KNOBS {
        let half = if k.compile_time { "plan" } else { "exec" };
        // A table cell cannot hold a bare `|`, even in a code span.
        let values = k.values.replace('|', "\\|");
        out.push_str(&format!(
            "| `--{}` | `\"{}\"` | `{values}` | {half} | {} | {} |\n",
            k.flag,
            k.key,
            k.contract.label(),
            k.help
        ));
    }
    out
}
