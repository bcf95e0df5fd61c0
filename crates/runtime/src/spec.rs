//! The run specification: one value that says how a program is compiled
//! and executed, and the one table that fills it.
//!
//! A [`RunSpec`] holds the eleven independently settable run values.
//! `streamlinc` feeds [`KNOBS`] `--flag value` pairs, the daemon's `open`
//! feeds it JSON members (numbers stringified), and tests write struct
//! literals over [`RunSpec::from_env`]; there is no other parser. The spec
//! splits by type: [`RunSpec::plan`] is the normalised, hashable
//! [`PlanSpec`] — everything the compiled artifact depends on, and the
//! whole of the daemon's cache key beside the source hash — and
//! [`RunSpec::exec`] is the [`ExecSpec`] a session is opened with. The
//! compiler ([`crate::session::compile`]) takes a `&PlanSpec` and cannot
//! see the rest.

use std::time::Duration;

use streamlin_core::Config;
use streamlin_support::{FaultPlan, InjectFaults};

use crate::fission::Fission;
pub use crate::flat::Tier;
use crate::linear_exec::MatMulStrategy;
use crate::measure::{ExecMode, Scheduler};
use crate::parallel::CYCLE_QUANTUM;

/// How one program is compiled and run. `Default` is the built-in
/// configuration; [`RunSpec::from_env`] overlays the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Which optimization configuration builds the stream.
    pub config: Config,
    /// Which scheduler executes the flattened graph.
    pub sched: Scheduler,
    /// Whether execution pays for instruction accounting.
    pub mode: ExecMode,
    /// Matrix-multiply kernel; `None` takes the mode's default.
    pub matmul: Option<MatMulStrategy>,
    /// Pipeline stage budget; `None` runs the single-threaded engines
    /// (unless `fission` asks for the pipeline executor).
    pub threads: Option<usize>,
    /// Data-parallel fission of the dominant node.
    pub fission: Fission,
    /// Cycle quantum of the pipeline pacing protocol, in original steady
    /// cycles (>= 1). Fission's cycle expansion must divide it.
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
            sched: Scheduler::default(),
            mode: ExecMode::default(),
            matmul: None,
            threads: None,
            fission: Fission::Off,
            quantum: CYCLE_QUANTUM,
            tier: Tier::default(),
            cert: true,
            watchdog: None,
            fault: None,
        }
    }
}

/// The compile half of a [`RunSpec`], normalised: two requests that
/// compile to the same artifact are equal here, so `(source hash,
/// PlanSpec)` is the plan-cache key and no knob can alias an entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanSpec {
    pub config: Config,
    pub sched: Scheduler,
    /// Resolved: an unset `matmul` took the mode's default, which is the
    /// mode's only compile-time effect.
    pub matmul: MatMulStrategy,
    /// Pipeline stage budget. A lone `fission` request implies a 1-stage
    /// budget, since the fission pass runs on the pipeline executor.
    pub threads: Option<usize>,
    /// Resolved: a fault plan's `nofission` directive turns the pass off.
    pub fission: Fission,
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
        let fission = match self.fault.as_ref().and_then(|f| f.fission_abort()) {
            Some(_) => Fission::Off,
            None => self.fission,
        };
        PlanSpec {
            config: self.config,
            sched: self.sched,
            matmul: self.matmul.unwrap_or(self.mode.default_strategy()),
            threads: match (self.threads, self.fission) {
                (None, Fission::Off) => None,
                (threads, _) => Some(threads.unwrap_or(1)),
            },
            fission,
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

    /// The built-in defaults overlaid with the environment — the only
    /// place `STREAMLIN_CYCLE_QUANTUM` (quantum), `STREAMLIN_NO_BYTECODE`
    /// (tier) and `STREAMLIN_NO_CERT` (cert) are read. An unusable quantum
    /// value is returned as a complaint beside a spec that kept the
    /// built-in quantum, so callers with a failure channel can refuse.
    pub fn from_env_checked() -> (RunSpec, Option<String>) {
        let mut spec = RunSpec::default();
        if std::env::var_os("STREAMLIN_NO_BYTECODE").is_some() {
            spec.tier = Tier::TreeWalk;
        }
        if std::env::var_os("STREAMLIN_NO_CERT").is_some() {
            spec.cert = false;
        }
        let complaint = match std::env::var("STREAMLIN_CYCLE_QUANTUM") {
            Err(std::env::VarError::NotPresent) => None,
            Err(std::env::VarError::NotUnicode(_)) => {
                Some("STREAMLIN_CYCLE_QUANTUM is not valid unicode".to_string())
            }
            Ok(raw) => match parse_quantum(&raw) {
                Ok(q) => {
                    spec.quantum = q;
                    None
                }
                Err(why) => Some(why),
            },
        };
        (spec, complaint)
    }

    /// [`RunSpec::from_env_checked`] for callers without a failure
    /// channel: an unusable quantum override is not silently swallowed —
    /// the first one warns on stderr (once per process) — and the built-in
    /// quantum stands.
    pub fn from_env() -> RunSpec {
        let (spec, complaint) = Self::from_env_checked();
        if let Some(why) = complaint {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| eprintln!("warning: ignoring invalid quantum override: {why}"));
        }
        spec
    }
}

/// Parses a `STREAMLIN_CYCLE_QUANTUM` value: a positive integer.
///
/// # Errors
///
/// Why the value is unusable, naming the variable.
fn parse_quantum(raw: &str) -> Result<u64, String> {
    count(raw.trim(), 1).map_err(|why| format!("STREAMLIN_CYCLE_QUANTUM {why}"))
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

const fn knob(
    key: &'static str,
    flag: &'static str,
    values: &'static str,
    compile_time: bool,
    help: &'static str,
    set: fn(&mut RunSpec, &str) -> Result<(), String>,
) -> Knob {
    Knob {
        key,
        flag,
        values,
        compile_time,
        help,
        set,
    }
}

/// Every run value, how it is spelled and how it is validated. Adding a
/// knob is adding a row (and a field): the CLI, the wire protocol, the
/// usage text and `tests/run_spec.rs` all iterate this table.
pub const KNOBS: &[Knob] = &[
    knob(
        "config",
        "config",
        "baseline|linear|freq|redund|autosel",
        true,
        "optimization configuration (§5.2)",
        |s, v| one_of(v, &Config::ALL.map(|c| (c.label(), c))).map(|c| s.config = c),
    ),
    knob(
        "sched",
        "sched",
        "auto|static|dynamic",
        true,
        "compiled static plan, or the data-driven engine",
        |s, v| one_of(v, &Scheduler::ALL.map(|x| (x.label(), x))).map(|x| s.sched = x),
    ),
    knob(
        "mode",
        "mode",
        "measured|fast",
        false,
        "count every floating-point operation, or bare arithmetic",
        |s, v| one_of(v, &ExecMode::ALL.map(|x| (x.label(), x))).map(|x| s.mode = x),
    ),
    knob(
        "matmul",
        "matmul",
        "unrolled|diagonal|blocked|simd",
        true,
        "linear-node kernel (default: unrolled when measured, simd when fast)",
        |s, v| one_of(v, &MatMulStrategy::ALL.map(|x| (x.label(), x))).map(|x| s.matmul = Some(x)),
    ),
    knob(
        "threads",
        "threads",
        "<n>",
        true,
        "run the pipeline-parallel executor over at most n stages",
        |s, v| count(v, 1).map(|n| s.threads = Some(n as usize)),
    ),
    knob(
        "fission",
        "fission",
        "auto|off|<w>",
        true,
        "split the dominant node w ways (alone: a 1-stage pipeline)",
        |s, v| {
            let parsed = match v {
                "auto" => Ok(Fission::Auto),
                "off" => Ok(Fission::Off),
                w => count(w, 1).map(|w| Fission::Width(w as usize)),
            };
            parsed.map(|f| s.fission = f)
        },
    ),
    knob(
        "quantum",
        "quantum",
        "<n>",
        true,
        "pipeline pacing quantum in steady cycles (default: STREAMLIN_CYCLE_QUANTUM, else 4)",
        |s, v| count(v, 1).map(|q| s.quantum = q),
    ),
    knob(
        "tier",
        "tier",
        "bytecode|treewalk",
        true,
        "interpreter tier: typed register bytecode, or the tree-walking reference (default: treewalk if STREAMLIN_NO_BYTECODE is set)",
        |s, v| one_of(v, &[("bytecode", Tier::Bytecode), ("treewalk", Tier::TreeWalk)]).map(|t| s.tier = t),
    ),
    knob(
        "cert",
        "cert",
        "on|off",
        true,
        "certified phases skip tape checks (default: off if STREAMLIN_NO_CERT is set)",
        |s, v| one_of(v, &[("on", true), ("off", false)]).map(|on| s.cert = on),
    ),
    knob(
        "watchdog_ms",
        "watchdog-ms",
        "<ms>",
        false,
        "no-progress deadline of the pipeline watchdog",
        |s, v| count(v, 1).map(|ms| s.watchdog = Some(Duration::from_millis(ms))),
    ),
    knob(
        "fault",
        "fault-inject",
        "<seed>:<spec>[,<spec>...]",
        false,
        "deterministic fault drill (panic@s1, wedge, die, slow=50, delay@c2=100, refuse#1, nofission)",
        |s, v| InjectFaults::parse(v).map(|f| s.fault = Some(f)),
    ),
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
        String::from("| flag | `open` member | values | half | meaning |\n|---|---|---|---|---|\n");
    for k in KNOBS {
        let half = if k.compile_time { "plan" } else { "exec" };
        // A table cell cannot hold a bare `|`, even in a code span.
        let values = k.values.replace('|', "\\|");
        out.push_str(&format!(
            "| `--{}` | `\"{}\"` | `{values}` | {half} | {} |\n",
            k.flag, k.key, k.help
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantum_values_parse_or_explain() {
        assert_eq!(parse_quantum("8"), Ok(8));
        assert_eq!(parse_quantum("  1\n"), Ok(1));
        for bad in ["0", "-3", "4.5", "four", ""] {
            let why = parse_quantum(bad).unwrap_err();
            assert!(
                why.contains("STREAMLIN_CYCLE_QUANTUM"),
                "error should name the variable: {why}"
            );
        }
    }
}
