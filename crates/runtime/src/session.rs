//! The run spine: source → [`front_end`] → [`compile`] → [`Session`].
//!
//! A deterministic stream program satisfies `read(m); read(n) =
//! read(m + n)`, so a one-shot run needs no executor of its own:
//! [`RunSpec::run`] is *compile, open, read n, close*, and the daemon's
//! `open`/`read`/`close` are the same three calls spread over requests.
//! Everything that depends on the run's knobs happens in two places —
//! [`compile`] sees the [`PlanSpec`] and nothing else, [`open`] sees the
//! [`ExecSpec`] — and every phase is recorded on the [`Recorder`] it is
//! handed (an `Option`: `None` is an unrecorded run), so the CLI and an
//! instrumented daemon stream report the same spans (`parse, elaborate,
//! analyze, select, flatten, plan, partition?`). `elaborate` walks every
//! filter body once (rates, lints and the linear verdict are facts of
//! that walk); `analyze` reads the verdicts and builds the linear nodes.
//!
//! Every program that compiles has a static plan — a feedback loop's is
//! derived from its enqueued items — so behind a [`Session`] sits one of
//! two engine families: the **pipeline** ([`PipelineSession`]: stage
//! workers parked on the pool between reads) or the single-threaded
//! **static plan** ([`PlanEngine`]). The data-driven
//! [`crate::engine::Engine`] is the reference they are both held to, not
//! a family. Degradation is the session's behaviour, not a caller's option: a
//! degradable failure ([`RunError::is_degradable`] — a stall or a lost
//! worker, never a program error, which would just recur) tears down
//! that session's pipeline, starts a plan engine on the session's own
//! copy of the graph and plan, fast-forwards it past the values already
//! delivered, and keeps serving bit-identical values.

use std::collections::HashSet;
use std::time::Instant;

use streamlin_core::combine::analyze_graph;
use streamlin_core::cost::CostModel;
use streamlin_core::opt::OptStream;
use streamlin_graph::ir::Stream;
use streamlin_support::{NoCount, OpCounter, Recorder, Tally};

use crate::engine::RunError;
use crate::flat::{flatten_with, note_fused_loops, note_tiers, FlatGraph};
use crate::measure::{ExecMode, Profile, ProfileError};
use crate::parallel::PipelineSession;
use crate::partition::{firing_cost, partition, Partition};
use crate::plan::{self, ExecPlan, PlanEngine};
use crate::spec::{ExecSpec, PlanSpec, RunSpec};

/// What the front end learned about a program, for drivers that report it.
pub struct Front {
    /// Top-level declarations in the source.
    pub decls: usize,
    /// The elaborated graph.
    pub graph: Stream,
    /// How many of its filters are linear.
    pub linear: usize,
    /// The stream the requested configuration built.
    pub opt: OptStream,
}

/// Runs `f` as the compile phase `name`: a span on `probe` when there is
/// one, no clock read when there is not.
fn phase<R>(probe: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let t0 = probe.as_deref().map_or(0, Recorder::now);
    let out = f();
    if let Some(rec) = probe {
        rec.phase(name, t0);
    }
    out
}

/// Parse → elaborate → linear analysis → configuration, each a phase on
/// `probe`.
///
/// # Errors
///
/// The first front-end diagnostic, rendered.
pub fn front_end(
    src: &str,
    spec: &PlanSpec,
    mut probe: Option<&mut Recorder>,
) -> Result<Front, String> {
    let probe = &mut probe;
    let program =
        phase(probe, "parse", || streamlin_lang::parse(src)).map_err(|e| e.to_string())?;
    let graph = phase(probe, "elaborate", || streamlin_graph::elaborate(&program))
        .map_err(|e| e.to_string())?;
    let analysis = phase(probe, "analyze", || analyze_graph(&graph));
    let opt = phase(probe, "select", || spec.config.apply(&graph, &analysis))
        .map_err(|e| e.to_string())?;
    Ok(Front {
        decls: program.decls.len(),
        linear: analysis.linear_count(),
        graph,
        opt,
    })
}

/// A compiled program, ready to open sessions on. Its immutable tables —
/// every kernel's coefficients, spectra, twiddles, redundancy tuples and
/// periodic values, and the plans' step lists — are behind [`Arc`]s, so
/// a clone (what [`open`] takes, one per session) shares them and copies
/// only what a session mutates: node wiring, interpreted filters'
/// globals, empty kernel scratch and the channel capacities.
///
/// [`Arc`]: std::sync::Arc
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The graph to execute.
    pub flat: FlatGraph,
    /// The static schedule of `flat`.
    pub plan: ExecPlan,
    /// The pipeline partition, present when the spec has a stage budget.
    pub part: Option<Partition>,
    /// The spec's cycle quantum.
    pub quantum: u64,
}

impl Compiled {
    /// Worker threads a session of this artifact occupies: the
    /// partition's stage count (which may be below the budget), else 1.
    pub fn workers_needed(&self) -> usize {
        self.part.as_ref().map_or(1, |p| p.num_stages)
    }

    /// Bytes of the tables the artifact holds, each counted once however
    /// many of its nodes share it: what keeping the artifact costs beyond
    /// its wiring.
    pub fn table_bytes(&self) -> usize {
        let mut seen = HashSet::new();
        let nodes = self.flat.nodes.iter().filter_map(|n| n.kind.table());
        nodes
            .chain(self.plan.tables())
            .filter(|&(id, _)| seen.insert(id))
            .map(|(_, bytes)| bytes)
            .sum()
    }
}

/// Flatten → plan → partition, each a phase on `probe`, with the
/// decisions (schedule shape, partition) as notes and the graph's node
/// names and cost-model predictions for the metrics report.
///
/// # Errors
///
/// Flattening failures, and [`ProfileError::Plan`] for a graph with no
/// static schedule (an under-supplied feedback loop, inconsistent rates).
pub fn compile(
    opt: &OptStream,
    spec: &PlanSpec,
    mut probe: Option<&mut Recorder>,
) -> Result<Compiled, ProfileError> {
    let probe = &mut probe;
    let flat = phase(probe, "flatten", || {
        flatten_with(opt, spec.matmul, spec.tier, spec.cert)
    })?;
    let plan = phase(probe, "plan", || plan::compile(&flat))?;
    let model = CostModel::default();
    if let Some(rec) = probe {
        for (i, node) in flat.nodes.iter().enumerate() {
            rec.node_name(i, &node.name);
            rec.node_cost(i, firing_cost(node, &model));
        }
        rec.note("schedule", &plan.summary(&flat));
        note_tiers(&flat.nodes, rec);
    }
    let part = spec.threads.map(|threads| {
        let part = phase(probe, "partition", || {
            partition(&flat, &plan, threads, &model)
        });
        if let Some(rec) = probe {
            rec.note("pipeline", &part.summary());
        }
        part
    });
    Ok(Compiled {
        flat,
        plan,
        part,
        quantum: spec.quantum,
    })
}

/// The whole compiler, source text to artifact: [`front_end`] then
/// [`compile`]. What the daemon's plan cache runs on a miss.
///
/// # Errors
///
/// Any front-end or compile failure, rendered.
pub fn compile_source(
    src: &str,
    spec: &PlanSpec,
    mut probe: Option<&mut Recorder>,
) -> Result<Compiled, String> {
    let front = front_end(src, spec, probe.as_deref_mut())?;
    compile(&front.opt, spec, probe).map_err(|e| e.to_string())
}

/// Final accounting of a closed session.
pub struct Report {
    /// Values delivered over the session's lifetime.
    pub delivered: usize,
    /// Operation tallies (all-zero under [`ExecMode::Fast`]).
    pub ops: OpCounter,
    /// Total node firings.
    pub firings: u64,
    /// Worker threads the session ended on (1 unless the pipeline ran).
    pub threads: usize,
    /// Why the session fell back to the single-threaded plan, if it did.
    pub degraded: Option<String>,
    /// The session's recorder, when it was opened with one.
    pub probe: Option<Recorder>,
}

/// A resident run: engine state persists between reads, and the value
/// sequence is a deterministic prefix of the program's output however the
/// reads are batched.
pub trait Session: Send {
    /// Produces the next `n` values, in order.
    ///
    /// # Errors
    ///
    /// Non-degradable engine failures; the session is then dead.
    fn read(&mut self, n: usize) -> Result<Vec<f64>, RunError>;
    /// Values delivered so far.
    fn delivered(&self) -> usize;
    /// Values produced but not yet delivered: all a session retains of its
    /// output (the overshoot of its last read), however long it lives.
    fn buffered(&self) -> usize;
    /// Why the session runs on the single-threaded fallback, if it does.
    fn degraded(&self) -> Option<&str>;
    /// Tears the engine down and reports.
    fn close(self: Box<Self>) -> Report;
}

/// Opens a session on a compiled artifact. `rec` instruments it (the
/// recorder comes back in the [`Report`]); the fault plan and watchdog of
/// `exec` act on the pipeline executor only — the single-threaded plan
/// engine has no injection sites, so a drill that opens on it is noted as
/// inert. Telemetry and drills are values threaded through; the one
/// monomorphisation chosen here is the `Tally`.
///
/// # Errors
///
/// Pipeline setup failures that cannot degrade.
pub fn open(
    art: Compiled,
    exec: &ExecSpec,
    rec: Option<Recorder>,
) -> Result<Box<dyn Session>, RunError> {
    match exec.mode {
        ExecMode::Measured => Live::<OpCounter>::start(art, exec, rec),
        ExecMode::Fast => Live::<NoCount>::start(art, exec, rec),
    }
}

enum Family<T: Tally> {
    Pipeline(PipelineSession),
    Plan(PlanEngine<T>),
}

/// Values a degrading session replays (and discards) per step of its
/// fast-forward, bounding what the replay holds at once.
const FAST_FORWARD_PIECE: usize = 1 << 16;

struct Live<T: Tally> {
    engine: Family<T>,
    probe: Option<Recorder>,
    /// The graph and plan a degrading session replays on, while the
    /// pipeline is still up.
    replay: Option<(FlatGraph, ExecPlan)>,
    delivered: usize,
    degraded: Option<String>,
    threads: usize,
}

/// Announces a fallback on the recorder and builds the engine it runs on.
fn fallback_engine<T: Tally + Default>(
    probe: Option<&mut Recorder>,
    (flat, plan): (FlatGraph, ExecPlan),
    cause: &RunError,
) -> PlanEngine<T> {
    if let Some(rec) = probe {
        let text = format!("degraded: {cause}; replaying on the single-threaded static plan");
        rec.note("supervisor", &text);
        rec.lane_name(1, "engine (fallback)");
    }
    PlanEngine::new(flat, plan)
}

impl<T: Tally + Default + Send + 'static> Live<T> {
    fn start(
        art: Compiled,
        exec: &ExecSpec,
        mut probe: Option<Recorder>,
    ) -> Result<Box<dyn Session>, RunError> {
        let fault = exec.fault.as_ref();
        let (mut threads, mut degraded, mut replay) = (1, None, None);
        let engine: Family<T> = match art.part {
            Some(part) => {
                // The pipeline consumes its graph; a degradation replays
                // on this untouched copy.
                let pair = (art.flat.clone(), art.plan.clone());
                match PipelineSession::start::<T>(
                    art.flat,
                    &art.plan,
                    &part,
                    art.quantum,
                    probe.as_mut(),
                    fault.cloned(),
                    exec.watchdog,
                ) {
                    Ok(session) => {
                        (threads, replay) = (part.num_stages, Some(pair));
                        Family::Pipeline(session)
                    }
                    // Setup-time degradable failure (e.g. the pool refused
                    // threads): the session starts life on the fallback
                    // instead of failing the open.
                    Err(e) if e.is_degradable() => {
                        degraded = Some(e.to_string());
                        Family::Plan(fallback_engine(probe.as_mut(), pair, &e))
                    }
                    Err(e) => return Err(e),
                }
            }
            None => {
                // A drill on the plan engine has nothing to act on: fault
                // plans have injection sites in the pipeline executor only.
                if let Some(rec) = probe.as_mut() {
                    rec.lane_name(1, "engine");
                    if let Some(fault) = fault {
                        let text = format!("inert: no pipeline executor ({})", fault.describe());
                        rec.note("fault", &text);
                    }
                }
                Family::Plan(PlanEngine::new(art.flat, art.plan))
            }
        };
        Ok(Box::new(Live {
            engine,
            probe,
            replay,
            delivered: 0,
            degraded,
            threads,
        }))
    }

    /// One read on whichever engine is live.
    fn step(&mut self, n: usize) -> Result<Vec<f64>, RunError> {
        match &mut self.engine {
            Family::Pipeline(session) => session.read(n),
            Family::Plan(engine) => {
                engine.run(n, self.probe.as_mut())?;
                Ok(engine.take_printed(n))
            }
        }
    }

    /// Replaces the dead pipeline with a plan engine, fast-forwarded past
    /// everything already delivered. Bit-identity of the continuation is
    /// the executors' shared determinism contract.
    fn degrade(&mut self, cause: &RunError) -> Result<(), RunError> {
        let pair = self.replay.take().expect("degrade needs the replay pair");
        let mut engine = fallback_engine::<T>(self.probe.as_mut(), pair, cause);
        // Replay in bounded pieces: the engine stops at the exact firing
        // that crosses each goal and resumes mid-cycle, so the firing
        // sequence is the same as one long run.
        let mut skip = self.delivered;
        while skip > 0 {
            let piece = skip.min(FAST_FORWARD_PIECE);
            engine.run(piece, self.probe.as_mut())?;
            drop(engine.take_printed(piece));
            skip -= piece;
        }
        if let Family::Pipeline(dead) = std::mem::replace(&mut self.engine, Family::Plan(engine)) {
            // Absorb the dead session's telemetry; its stored failure is
            // expected here, so the result is dropped deliberately.
            let _ = dead.finish(self.probe.as_mut());
        }
        self.threads = 1;
        self.degraded = Some(cause.to_string());
        Ok(())
    }
}

impl<T: Tally + Default + Send + 'static> Session for Live<T> {
    fn read(&mut self, n: usize) -> Result<Vec<f64>, RunError> {
        let values = match self.step(n) {
            Err(e) if e.is_degradable() && self.replay.is_some() => {
                self.degrade(&e)?;
                self.step(n)?
            }
            other => other?,
        };
        self.delivered += n;
        Ok(values)
    }

    fn delivered(&self) -> usize {
        self.delivered
    }

    fn buffered(&self) -> usize {
        match &self.engine {
            Family::Pipeline(session) => session.available() - session.delivered(),
            Family::Plan(engine) => engine.printed().len(),
        }
    }

    fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    fn close(self: Box<Self>) -> Report {
        let mut this = *self;
        let (ops, firings) = match this.engine {
            // A failed pipeline that could not degrade has nothing to add.
            Family::Pipeline(session) => match session.finish(this.probe.as_mut()) {
                Ok(out) => (out.ops, out.firings),
                Err(_) => (OpCounter::default(), 0),
            },
            Family::Plan(engine) => {
                note_fused_loops(engine.nodes(), this.probe.as_mut());
                if let Some(rec) = &mut this.probe {
                    let ([whole, stepped], passes) = (engine.cycles(), engine.passes());
                    let text = format!("{whole} whole in {passes} passes, {stepped} stepped");
                    rec.note("cycles", &text);
                }
                (engine.ops().counts(), engine.firings())
            }
        };
        Report {
            delivered: this.delivered,
            ops,
            firings,
            threads: this.threads,
            degraded: this.degraded,
            probe: this.probe,
        }
    }
}

impl RunSpec {
    /// Compiles `opt` under this spec's [`PlanSpec`].
    ///
    /// # Errors
    ///
    /// As [`compile`].
    pub fn compile(&self, opt: &OptStream) -> Result<Compiled, ProfileError> {
        compile(opt, &self.plan(), None)
    }

    /// Runs an optimized stream until it has produced `n` values and
    /// returns the measurements: *compile, open, read n, close*.
    ///
    /// # Errors
    ///
    /// As [`compile`], plus whatever the run fails with.
    pub fn run(&self, opt: &OptStream, n: usize) -> Result<Profile, ProfileError> {
        self.run_with(opt, n, None)
    }

    /// [`RunSpec::run`] on an artifact already compiled (and possibly
    /// inspected) by [`RunSpec::compile`].
    ///
    /// # Errors
    ///
    /// Whatever the run fails with.
    pub fn run_compiled(&self, art: Compiled, n: usize) -> Result<Profile, ProfileError> {
        self.finish(art, n, None)
    }

    /// [`RunSpec::run`] with every compile phase, firing batch, stall and
    /// decision note recorded into `rec` — the same execution, bit for
    /// bit (pinned by `tests/telemetry_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// As [`RunSpec::run`].
    pub fn run_recorded(
        &self,
        opt: &OptStream,
        n: usize,
        rec: &mut Recorder,
    ) -> Result<Profile, ProfileError> {
        self.run_with(opt, n, Some(rec))
    }

    /// The run behind [`RunSpec::run`] (`None`) and
    /// [`RunSpec::run_recorded`] (`Some`), for a caller that holds the
    /// option.
    ///
    /// # Errors
    ///
    /// As [`RunSpec::run`].
    pub fn run_with(
        &self,
        opt: &OptStream,
        n: usize,
        mut rec: Option<&mut Recorder>,
    ) -> Result<Profile, ProfileError> {
        let art = compile(opt, &self.plan(), rec.as_deref_mut())?;
        self.finish(art, n, rec)
    }

    /// Open, read `n`, close; the session records on a fork of `rec`,
    /// absorbed when it closes.
    fn finish(
        &self,
        art: Compiled,
        n: usize,
        rec: Option<&mut Recorder>,
    ) -> Result<Profile, ProfileError> {
        let mut session = open(art, &self.exec(), rec.as_deref().map(|r| r.fork(0)))?;
        let start = Instant::now();
        let outputs = session.read(n)?;
        let wall = start.elapsed();
        let report = session.close();
        if let (Some(rec), Some(run)) = (rec, report.probe) {
            rec.absorb(run);
        }
        Ok(Profile {
            outputs,
            ops: report.ops,
            wall,
            firings: report.firings,
            threads: report.threads,
            degraded: report.degraded,
        })
    }
}
