//! Deterministic fault injection: an opt-in *value*, not a type.
//!
//! A fault drill is an observer of a run, consulted once per schedule
//! step or per blocked ring retry, so — like telemetry
//! ([`crate::probe`]) and unlike the per-operation [`Tally`] — it is not a
//! type parameter: the run's spec carries an `Option<InjectFaults>`,
//! `None` in production, and every injection site is behind
//! `if let Some(fault)`. An [`InjectFaults`] perturbs keyed sites
//! deterministically from a seed. The parallel runtime consults the plan
//! at three site families:
//!
//! - **batch sites** — before a stage worker executes a schedule step
//!   (`batch_action`: panic, wedge, or slow down the worker);
//! - **ring waits** — each retry of a blocked boundary-ring send/recv
//!   (`ring_wait`: extra sleep, output-preserving);
//! - **pool acquisition** — whole-run worker acquisition
//!   (`pool_refuse`), and per-worker job start (`spawn_abort`, which
//!   kills the pool thread itself rather than the contained job).
//!
//! Every decision is a pure function of the seed, the spec, and the site
//! key, so a faulted run is reproducible: same seed + spec + program +
//! thread count → same faults at the same points.
//!
//! The spec grammar (`InjectFaults::parse` takes `"<seed>:<spec>"`, specs
//! comma-separated):
//!
//! | directive | effect |
//! |---|---|
//! | `panic[@sK]` | stage `K` (or a seed-chosen stage) panics at a seed-chosen step |
//! | `wedge[@sK]` | stage stops making progress (loops, responsive to teardown) |
//! | `die[@sK]` | the stage's pool thread dies at job start (uncontained panic) |
//! | `slow[@sK]=MICROS` | per-step sleep on one stage (`@sK`) or every stage |
//! | `delay[@cK]=MICROS` | extra sleep per blocked ring retry on channel `K` or all |
//! | `refuse[#N]` | the worker pool refuses the next `N` acquisitions (default 1) |
//!
//! [`Tally`]: crate::Tally

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a fault plan wants a stage worker to do at a batch site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Proceed normally.
    None,
    /// Panic with the given message (contained by the worker, surfaces as
    /// a structured `WorkerLost` run error).
    Panic(String),
    /// Sleep before executing the step (output-preserving slowdown).
    Sleep(Duration),
    /// Stop making progress until the run is torn down. The worker must
    /// keep checking the poison flag so a watchdog trip still unwinds
    /// cleanly.
    Wedge,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Directive {
    Panic { stage: Option<usize> },
    Wedge { stage: Option<usize> },
    Die { stage: Option<usize> },
    Slow { stage: Option<usize>, micros: u64 },
    Delay { chan: Option<usize>, micros: u64 },
    Refuse { count: u32 },
}

/// State shared across clones of one parsed plan: the refusal budget is
/// run-wide, and "any stage"/"any channel" targets are resolved once per
/// run by `arm` so every clone agrees on them.
#[derive(Debug)]
struct Shared {
    refusals: AtomicU32,
    stage_any: AtomicUsize,
    chan_any: AtomicUsize,
}

/// Seeded deterministic fault injection; parsed from `"<seed>:<spec>"`.
/// Each worker thread gets a clone; clones share countdown state, so a
/// run-wide budget (e.g. `refuse#2`) stays a single budget.
#[derive(Debug, Clone)]
pub struct InjectFaults {
    seed: u64,
    directives: Vec<Directive>,
    /// Step index at which one-shot batch faults (panic/wedge) fire.
    trigger: u64,
    spec: String,
    shared: Arc<Shared>,
}

/// Two plans are the same plan when they were parsed from the same text;
/// how much of a refusal budget either has already spent is not compared.
impl PartialEq for InjectFaults {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed && self.spec == other.spec
    }
}

/// SplitMix64: the standard 64-bit finalizer used as the deterministic
/// seed → site mapping.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One-shot batch faults fire within the first few schedule steps so
/// short runs still reach them; steps accumulate across cycles, so any
/// paced run comfortably exceeds this bound.
const TRIGGER_SPAN: u64 = 12;

impl InjectFaults {
    /// Parse `"<seed>:<spec>[,<spec>...]"`. See the module docs for the
    /// grammar.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (seed_s, spec) = s
            .split_once(':')
            .ok_or_else(|| format!("expected `<seed>:<spec>`, got `{s}`"))?;
        let seed = if let Some(hex) = seed_s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            seed_s.parse::<u64>()
        }
        .map_err(|_| format!("invalid seed `{seed_s}` (expected a u64)"))?;
        if spec.is_empty() {
            return Err("empty fault spec".into());
        }
        let mut directives = Vec::new();
        let mut refusals: u32 = 0;
        for part in spec.split(',') {
            let d = Self::parse_directive(part)?;
            if let Directive::Refuse { count } = d {
                refusals = refusals.saturating_add(count);
            }
            directives.push(d);
        }
        Ok(InjectFaults {
            seed,
            directives,
            trigger: splitmix64(seed ^ 0xF4A7) % TRIGGER_SPAN,
            spec: spec.to_string(),
            shared: Arc::new(Shared {
                refusals: AtomicU32::new(refusals),
                stage_any: AtomicUsize::new(0),
                chan_any: AtomicUsize::new(0),
            }),
        })
    }

    fn parse_directive(part: &str) -> Result<Directive, String> {
        let bad = || format!("invalid fault directive `{part}`");
        // Split off `=VALUE` first, then `@target` / `#count`.
        let (head, value) = match part.split_once('=') {
            Some((h, v)) => (h, Some(v.parse::<u64>().map_err(|_| bad())?)),
            None => (part, None),
        };
        let (name, target) = match head.split_once('@') {
            Some((n, t)) => (n, Some(t)),
            None => match head.split_once('#') {
                Some((n, c)) => {
                    if n != "refuse" || value.is_some() {
                        return Err(bad());
                    }
                    let count = c.parse::<u32>().map_err(|_| bad())?;
                    return Ok(Directive::Refuse { count });
                }
                None => (head, None),
            },
        };
        let stage_of = |t: Option<&str>| -> Result<Option<usize>, String> {
            match t {
                None => Ok(None),
                Some(t) => t
                    .strip_prefix('s')
                    .and_then(|k| k.parse::<usize>().ok())
                    .map(Some)
                    .ok_or_else(|| format!("invalid stage target in `{part}` (expected sK)")),
            }
        };
        let chan_of = |t: Option<&str>| -> Result<Option<usize>, String> {
            match t {
                None => Ok(None),
                Some(t) => t
                    .strip_prefix('c')
                    .and_then(|k| k.parse::<usize>().ok())
                    .map(Some)
                    .ok_or_else(|| format!("invalid channel target in `{part}` (expected cK)")),
            }
        };
        match (name, value) {
            ("panic", None) => Ok(Directive::Panic {
                stage: stage_of(target)?,
            }),
            ("wedge", None) => Ok(Directive::Wedge {
                stage: stage_of(target)?,
            }),
            ("die", None) => Ok(Directive::Die {
                stage: stage_of(target)?,
            }),
            ("slow", Some(micros)) => Ok(Directive::Slow {
                stage: stage_of(target)?,
                micros,
            }),
            ("delay", Some(micros)) => Ok(Directive::Delay {
                chan: chan_of(target)?,
                micros,
            }),
            ("refuse", None) if target.is_none() => Ok(Directive::Refuse { count: 1 }),
            _ => Err(bad()),
        }
    }

    /// The seed this plan was parsed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn stage_matches(&self, want: Option<usize>, stage: usize) -> bool {
        match want {
            Some(s) => s == stage,
            None => self.shared.stage_any.load(Ordering::Relaxed) == stage,
        }
    }

    /// Called once per pipeline run with the resolved topology: pins
    /// "any stage"/"any channel" directives to concrete seed-derived
    /// targets.
    pub fn arm(&self, stages: usize, chans: usize) {
        let s = (splitmix64(self.seed) % stages.max(1) as u64) as usize;
        let c = (splitmix64(self.seed ^ 0xC4A2) % chans.max(1) as u64) as usize;
        self.shared.stage_any.store(s, Ordering::Relaxed);
        self.shared.chan_any.store(c, Ordering::Relaxed);
    }

    /// Fault decision for schedule step `index` of stage `stage`.
    pub fn batch_action(&self, stage: usize, index: u64) -> FaultAction {
        let mut sleep_us: u64 = 0;
        for d in &self.directives {
            match *d {
                Directive::Panic { stage: want }
                    if self.stage_matches(want, stage) && index == self.trigger =>
                {
                    return FaultAction::Panic(format!(
                        "injected fault: worker panic (stage {stage}, step {index}, seed {})",
                        self.seed
                    ));
                }
                Directive::Wedge { stage: want }
                    if self.stage_matches(want, stage) && index == self.trigger =>
                {
                    return FaultAction::Wedge;
                }
                // `slow` with no target perturbs every stage; it is a
                // slowdown, not a kill, so blanket application is the
                // more useful interpretation.
                Directive::Slow {
                    stage: want,
                    micros,
                } if want.is_none_or(|s| s == stage) => {
                    sleep_us = sleep_us.saturating_add(micros);
                }
                _ => {}
            }
        }
        if sleep_us > 0 {
            FaultAction::Sleep(Duration::from_micros(sleep_us))
        } else {
            FaultAction::None
        }
    }

    /// Extra sleep for one retry of a blocked boundary-ring operation
    /// (`send = true` for a full producer, `false` for an empty consumer).
    pub fn ring_wait(&self, chan: usize, _send: bool) -> Option<Duration> {
        let mut sleep_us: u64 = 0;
        for d in &self.directives {
            if let Directive::Delay { chan: want, micros } = *d {
                if want.is_none_or(|c| c == chan) {
                    sleep_us = sleep_us.saturating_add(micros);
                }
            }
        }
        (sleep_us > 0).then(|| Duration::from_micros(sleep_us))
    }

    /// If `Some(reason)`, the worker pool refuses this acquisition.
    pub fn pool_refuse(&self) -> Option<String> {
        // Run-wide countdown shared across clones: consume one refusal if
        // any remain.
        self.shared
            .refusals
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .ok()
            .map(|left| format!("injected pool refusal ({} more queued)", left - 1))
    }

    /// If `true`, the stage's pool thread dies at job start with an
    /// uncontained panic (exercises pool self-healing).
    pub fn spawn_abort(&self, stage: usize) -> bool {
        self.directives.iter().any(|d| match *d {
            Directive::Die { stage: want } => self.stage_matches(want, stage),
            _ => false,
        })
    }

    /// One-line description for recorder notes and diagnostics.
    pub fn describe(&self) -> String {
        format!("seed={} spec={}", self.seed, self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        for spec in [
            "1:panic",
            "2:panic@s1",
            "3:wedge",
            "4:wedge@s0",
            "5:die@s2",
            "6:slow=50",
            "7:slow@s1=50",
            "8:delay=10",
            "9:delay@c2=10",
            "10:refuse",
            "11:refuse#3",
            "0x2a:panic,delay=5,refuse#2",
        ] {
            InjectFaults::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for spec in [
            "panic",        // missing seed
            "1:",           // empty spec
            "x:panic",      // bad seed
            "1:explode",    // unknown directive
            "1:panic@c1",   // channel target on a stage directive
            "1:slow",       // missing value
            "1:delay@s1=5", // stage target on a channel directive
            "1:refuse#x",   // bad count
            "1:refuse@s1",  // target on an untargeted directive
            "1:panic=3",    // value on a valueless directive
        ] {
            assert!(InjectFaults::parse(spec).is_err(), "accepted `{spec}`");
        }
    }

    #[test]
    fn batch_faults_are_deterministic_and_keyed() {
        let f = InjectFaults::parse("42:panic@s1").unwrap();
        f.arm(3, 4);
        let hits: Vec<u64> = (0..64)
            .filter(|&i| matches!(f.batch_action(1, i), FaultAction::Panic(_)))
            .collect();
        assert_eq!(hits.len(), 1, "exactly one panic site");
        assert!(hits[0] < TRIGGER_SPAN);
        // Other stages untouched; clones agree.
        assert!((0..64).all(|i| f.batch_action(0, i) == FaultAction::None));
        let g = f.clone();
        assert!(matches!(g.batch_action(1, hits[0]), FaultAction::Panic(_)));
        // Same spec, fresh parse: same site.
        let h = InjectFaults::parse("42:panic@s1").unwrap();
        h.arm(3, 4);
        assert!(matches!(h.batch_action(1, hits[0]), FaultAction::Panic(_)));
    }

    #[test]
    fn any_stage_targets_resolve_at_arm_time() {
        let f = InjectFaults::parse("7:wedge").unwrap();
        f.arm(4, 2);
        let hit: Vec<usize> = (0..4)
            .filter(|&s| (0..TRIGGER_SPAN).any(|i| f.batch_action(s, i) == FaultAction::Wedge))
            .collect();
        assert_eq!(hit.len(), 1, "exactly one seed-chosen stage wedges");
    }

    #[test]
    fn refusal_budget_is_shared_across_clones() {
        let f = InjectFaults::parse("1:refuse#2").unwrap();
        let g = f.clone();
        assert!(f.pool_refuse().is_some());
        assert!(g.pool_refuse().is_some());
        assert!(f.pool_refuse().is_none());
        assert!(g.pool_refuse().is_none());
    }

    #[test]
    fn slow_and_delay_accumulate() {
        let f = InjectFaults::parse("1:slow=30,slow@s2=20,delay@c1=5").unwrap();
        f.arm(3, 2);
        assert_eq!(
            f.batch_action(2, 63),
            FaultAction::Sleep(Duration::from_micros(50))
        );
        assert_eq!(f.ring_wait(1, false), Some(Duration::from_micros(5)));
        assert_eq!(f.ring_wait(0, true), None);
    }
}
