//! Per-stream sessions: resident engine state across protocol requests.
//!
//! Each named stream the daemon opens holds a [`StreamExec`] — an engine
//! instantiated from a cached artifact ([`crate::cache`]) that persists
//! between `read` requests, exactly the view of a stream program as a
//! long-lived stateful process. The engine families mirror the one-shot
//! profiler:
//!
//! * **pipeline** ([`PipelineSession`]): the artifact carries a
//!   partition; stage workers park on the process-wide pool between
//!   reads and every read extends the same paced run;
//! * **static plan** ([`PlanEngine`]): single-threaded, cursor kept
//!   across calls;
//! * **data-driven** ([`Engine`]): the fallback for unplannable graphs.
//!
//! All four conventions thread through per stream: the tally (`mode`),
//! the probe (per-stream [`Recorder`] lanes when the daemon is
//! instrumented), the fault plan (injectable per stream), and
//! facts-not-AST (sessions execute the cached `FlatGraph`, whose nodes
//! carry their `FilterFacts`). Output determinism is the cached
//! executors' contract: a stream's value sequence is a deterministic
//! prefix of the program's output, independent of read batching and of
//! whatever neighbor streams do.
//!
//! **Per-stream degradation** (PR 7 contract, scoped to one stream): a
//! degradable failure ([`RunError::is_degradable`] — a stall or a lost
//! worker) tears down *that stream's* pipeline, rebuilds the canonical
//! single-threaded plan engine from the artifact's pre-fission pair,
//! fast-forwards it past the values already delivered, and keeps
//! serving. Neighbor streams hold their own worker complements and never
//! observe the failure; the pool self-heals retired threads.

use std::time::Duration;

use streamlin_runtime::engine::{Engine, RunError};
use streamlin_runtime::flat::FlatGraph;
use streamlin_runtime::measure::ExecMode;
use streamlin_runtime::parallel::PipelineSession;
use streamlin_runtime::plan::{ExecPlan, PlanEngine};
use streamlin_support::{
    InjectFaults, NoCount, NoFault, NoProbe, OpCounter, Probe, Recorder, Tally,
};

use crate::cache::CachedArtifact;

/// One batch of values out of a stream, plus whether this read is the
/// one that degraded the stream (the server releases the surplus worker
/// claim exactly once, on that transition).
pub struct ReadOut {
    pub values: Vec<f64>,
    pub just_degraded: Option<String>,
}

/// Final accounting handed back when a stream closes.
pub struct CloseReport {
    /// Values delivered over the stream's lifetime.
    pub delivered: usize,
    /// Floating-point operations (all-zero under [`ExecMode::Fast`]).
    pub flops: u64,
    pub mults: u64,
    pub firings: u64,
    /// The degradation reason, if the stream fell back mid-life.
    pub degraded: Option<String>,
    /// `(summary, chrome_trace)` when the stream ran instrumented.
    pub probe: Option<(String, String)>,
}

/// A per-stream probe that can surface its telemetry at close.
/// [`NoProbe`] streams report nothing (and compile the record sites
/// away); [`Recorder`] streams yield the summary table and the Chrome
/// trace, which the daemon routes per stream under `--metrics` /
/// `--trace-out <dir>`.
pub trait ProbeReport: Probe + Send + 'static {
    fn report(&self) -> Option<(String, String)>;
}

impl ProbeReport for NoProbe {
    fn report(&self) -> Option<(String, String)> {
        None
    }
}

impl ProbeReport for Recorder {
    fn report(&self) -> Option<(String, String)> {
        Some((self.summary(), self.chrome_trace()))
    }
}

/// The object-safe face of a resident engine: the daemon stores streams
/// as `Box<dyn StreamExec>` so one map holds every monomorphization
/// (tally × probe × fault × engine family).
pub trait StreamExec: Send {
    /// Produces the next `n` values of the stream, in order.
    ///
    /// # Errors
    ///
    /// Non-degradable engine failures (program errors recur identically
    /// on any executor, so they are surfaced, not degraded).
    fn read(&mut self, n: usize) -> Result<ReadOut, RunError>;
    /// Values delivered so far.
    fn delivered(&self) -> usize;
    /// Values produced but not yet delivered: all a stream retains of its
    /// output (the overshoot of its last read), however long it lives.
    fn buffered(&self) -> usize;
    /// Whether (and why) the stream has degraded to the single-threaded
    /// plan.
    fn degraded(&self) -> Option<&str>;
    /// Tears the engine down and reports final accounting.
    fn close(self: Box<Self>) -> CloseReport;
}

/// Instantiates a resident engine from a cached artifact.
///
/// `instrument` selects a per-stream [`Recorder`]; `fault` arms that
/// stream's injection sites (pipeline artifacts only — the
/// single-threaded engines have none, matching `streamlinc`);
/// `watchdog` arms the pipeline stall watchdog.
///
/// # Errors
///
/// Pipeline setup failures (pool refusals surface as
/// [`RunError::WorkerLost`]).
pub fn build_exec(
    art: &CachedArtifact,
    mode: ExecMode,
    instrument: bool,
    fault: Option<InjectFaults>,
    watchdog: Option<Duration>,
) -> Result<Box<dyn StreamExec>, RunError> {
    match (mode, instrument) {
        (ExecMode::Measured, false) => {
            build_with::<OpCounter, NoProbe>(art, NoProbe, fault, watchdog)
        }
        (ExecMode::Measured, true) => {
            build_with::<OpCounter, Recorder>(art, Recorder::new(), fault, watchdog)
        }
        (ExecMode::Fast, false) => build_with::<NoCount, NoProbe>(art, NoProbe, fault, watchdog),
        (ExecMode::Fast, true) => {
            build_with::<NoCount, Recorder>(art, Recorder::new(), fault, watchdog)
        }
    }
}

fn build_with<T, P>(
    art: &CachedArtifact,
    mut probe: P,
    fault: Option<InjectFaults>,
    watchdog: Option<Duration>,
) -> Result<Box<dyn StreamExec>, RunError>
where
    T: Tally + Default + Send + 'static,
    P: ProbeReport,
{
    match (&art.part, &art.plan) {
        (Some(part), Some(plan)) => {
            let session = match fault {
                Some(f) => PipelineSession::start::<T, InjectFaults>(
                    art.flat.clone(),
                    plan,
                    part,
                    art.scale,
                    art.quantum,
                    &mut probe,
                    f,
                    watchdog,
                ),
                None => PipelineSession::start::<T, NoFault>(
                    art.flat.clone(),
                    plan,
                    part,
                    art.scale,
                    art.quantum,
                    &mut probe,
                    NoFault,
                    watchdog,
                ),
            };
            match session {
                Ok(s) => Ok(Box::new(PipeExec::<T, P> {
                    session: Some(s),
                    probe,
                    canonical: art.canonical.clone(),
                    fallback: None,
                    handed: 0,
                    degraded: None,
                })),
                // Setup-time degradable failure (e.g. the pool refused
                // threads): the stream starts life on the canonical
                // single-threaded plan instead of failing the open.
                Err(e) if e.is_degradable() && art.canonical.is_some() => {
                    let (flat, plan) = art.canonical.clone().expect("guarded");
                    Ok(Box::new(PipeExec::<T, P> {
                        session: None,
                        probe,
                        canonical: None,
                        fallback: Some(PlanEngine::<T>::new(flat, plan)),
                        handed: 0,
                        degraded: Some(e.to_string()),
                    }))
                }
                Err(e) => Err(e),
            }
        }
        (None, Some(plan)) => Ok(Box::new(PlanExec::<T, P> {
            engine: PlanEngine::new(art.flat.clone(), plan.clone()),
            probe,
            handed: 0,
        })),
        (_, None) => Ok(Box::new(DynExec::<T, P> {
            engine: Engine::new(art.flat.clone()),
            probe,
            handed: 0,
        })),
    }
}

/// Values a degrading stream replays (and discards) per step of its
/// fast-forward, bounding what the replay holds at once.
const FAST_FORWARD_PIECE: usize = 1 << 16;

/// Pipeline-backed stream: resident [`PipelineSession`] until a
/// degradable failure, then the canonical single-threaded replay.
struct PipeExec<T: Tally + Default + Send + 'static, P: ProbeReport> {
    session: Option<PipelineSession<P>>,
    probe: P,
    canonical: Option<(FlatGraph, ExecPlan)>,
    fallback: Option<PlanEngine<T>>,
    /// Values handed to the client so far (the fast-forward target on
    /// degradation).
    handed: usize,
    degraded: Option<String>,
}

impl<T: Tally + Default + Send + 'static, P: ProbeReport> PipeExec<T, P> {
    /// Replaces the dead pipeline with the canonical plan engine,
    /// fast-forwarded past everything already delivered. Bit-identity of
    /// the continuation is the executors' shared determinism contract.
    fn degrade(&mut self, cause: &RunError) -> Result<(), RunError> {
        if let Some(s) = self.session.take() {
            // Absorb the dead session's telemetry; its stored failure is
            // expected here, so the result is dropped deliberately.
            let _ = s.finish(&mut self.probe);
        }
        let (flat, plan) = self
            .canonical
            .take()
            .expect("degrade is only entered with a canonical pair");
        // Replay in bounded pieces: the engine stops at the exact firing
        // that crosses each goal and resumes mid-cycle, so the firing
        // sequence is the same as one long run.
        let mut engine = PlanEngine::<T>::new(flat, plan);
        let mut skip = self.handed;
        while skip > 0 {
            let piece = skip.min(FAST_FORWARD_PIECE);
            engine.run_probed(piece, &mut self.probe)?;
            drop(engine.take_printed(piece));
            skip -= piece;
        }
        self.fallback = Some(engine);
        self.degraded = Some(cause.to_string());
        Ok(())
    }

    fn read_fallback(&mut self, n: usize) -> Result<Vec<f64>, RunError> {
        let engine = self.fallback.as_mut().expect("fallback engine present");
        engine.run_probed(n, &mut self.probe)?;
        Ok(engine.take_printed(n))
    }
}

impl<T: Tally + Default + Send + 'static, P: ProbeReport> StreamExec for PipeExec<T, P> {
    fn read(&mut self, n: usize) -> Result<ReadOut, RunError> {
        if self.fallback.is_some() {
            let values = self.read_fallback(n)?;
            self.handed += n;
            return Ok(ReadOut {
                values,
                just_degraded: None,
            });
        }
        let session = self.session.as_mut().expect("live session");
        match session.read(n) {
            Ok(values) => {
                self.handed += n;
                Ok(ReadOut {
                    values,
                    just_degraded: None,
                })
            }
            Err(e) if e.is_degradable() && self.canonical.is_some() => {
                self.degrade(&e)?;
                let values = self.read_fallback(n)?;
                self.handed += n;
                Ok(ReadOut {
                    values,
                    just_degraded: Some(e.to_string()),
                })
            }
            Err(e) => Err(e),
        }
    }

    fn delivered(&self) -> usize {
        self.handed
    }

    fn buffered(&self) -> usize {
        match (&self.fallback, &self.session) {
            (Some(engine), _) => engine.printed().len(),
            (None, Some(s)) => s.available() - s.delivered(),
            (None, None) => 0,
        }
    }

    fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    fn close(mut self: Box<Self>) -> CloseReport {
        let (flops, mults, firings) = if let Some(engine) = &self.fallback {
            let ops = engine.ops().counts();
            (ops.flops(), ops.mults(), engine.firings())
        } else if let Some(s) = self.session.take() {
            match s.finish(&mut self.probe) {
                Ok(out) => (out.ops.flops(), out.ops.mults(), out.firings),
                Err(_) => (0, 0, 0),
            }
        } else {
            (0, 0, 0)
        };
        CloseReport {
            delivered: self.handed,
            flops,
            mults,
            firings,
            degraded: self.degraded.clone(),
            probe: self.probe.report(),
        }
    }
}

/// Single-threaded static-plan stream.
struct PlanExec<T: Tally + Default, P: ProbeReport> {
    engine: PlanEngine<T>,
    probe: P,
    handed: usize,
}

impl<T: Tally + Default + Send + 'static, P: ProbeReport> StreamExec for PlanExec<T, P> {
    fn read(&mut self, n: usize) -> Result<ReadOut, RunError> {
        self.engine.run_probed(n, &mut self.probe)?;
        let values = self.engine.take_printed(n);
        self.handed += n;
        Ok(ReadOut {
            values,
            just_degraded: None,
        })
    }

    fn delivered(&self) -> usize {
        self.handed
    }

    fn buffered(&self) -> usize {
        self.engine.printed().len()
    }

    fn degraded(&self) -> Option<&str> {
        None
    }

    fn close(self: Box<Self>) -> CloseReport {
        let ops = self.engine.ops().counts();
        CloseReport {
            delivered: self.handed,
            flops: ops.flops(),
            mults: ops.mults(),
            firings: self.engine.firings(),
            degraded: None,
            probe: self.probe.report(),
        }
    }
}

/// Data-driven stream (graphs with no static plan, e.g. feedback loops).
struct DynExec<T: Tally + Default, P: ProbeReport> {
    engine: Engine<T>,
    probe: P,
    handed: usize,
}

impl<T: Tally + Default + Send + 'static, P: ProbeReport> StreamExec for DynExec<T, P> {
    fn read(&mut self, n: usize) -> Result<ReadOut, RunError> {
        self.engine.run_probed(n, &mut self.probe)?;
        let values = self.engine.take_printed(n);
        self.handed += n;
        Ok(ReadOut {
            values,
            just_degraded: None,
        })
    }

    fn delivered(&self) -> usize {
        self.handed
    }

    fn buffered(&self) -> usize {
        self.engine.printed().len()
    }

    fn degraded(&self) -> Option<&str> {
        None
    }

    fn close(self: Box<Self>) -> CloseReport {
        let ops = self.engine.ops().counts();
        CloseReport {
            delivered: self.handed,
            flops: ops.flops(),
            mults: ops.mults(),
            firings: self.engine.firings(),
            degraded: None,
            probe: self.probe.report(),
        }
    }
}
