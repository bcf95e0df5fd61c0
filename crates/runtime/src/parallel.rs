//! Pipeline-parallel execution of a partitioned static plan.
//!
//! Each stage of a [`Partition`] runs **its slice of the compiled
//! schedule** on its own worker thread: the stage executes exactly the
//! steps of [`ExecPlan::init`]/[`ExecPlan::steady`] whose nodes it owns,
//! in schedule order, over a stage-local [`RingSet`]. Items cross stage
//! boundaries through the lock-free SPSC rings of
//! [`crate::ring::SharedRings`], sized by the partitioner so a producer
//! can run several steady cycles ahead before backpressure blocks it —
//! workers synchronize on the cycle batch, not the firing.
//!
//! **Determinism is the contract.** Every node fires the same number of
//! times, on the same input windows, with the same batch sizes (the plan's
//! steps are executed verbatim, so even the blocked linear multiplies
//! accumulate identically) as under the single-threaded
//! [`crate::plan::PlanEngine`] — and all nodes that can print share one
//! stage, so the output stream is produced by a single worker in schedule
//! order. Printed values are therefore **bit-identical for every worker
//! count**, and because runs are quantized to whole steady cycles by a
//! thread-count-independent pacing protocol, the operation tallies and
//! firing counts are identical across worker counts too (the
//! single-threaded `PlanEngine` stops a few firings earlier, mid-cycle —
//! the printed prefix is the same).
//!
//! The coordinator/worker protocol is intentionally coarse: the
//! coordinator announces a cumulative cycle target, every worker runs to
//! it and reports its printed count, and the coordinator extends the
//! target until the output goal is met. Estimation only looks at
//! deterministic state (printed counts at round boundaries), which is what
//! makes the quantization reproducible.
//!
//! # Supervision
//!
//! [`PipelineSession`] layers fault tolerance on the same protocol
//! without touching the deterministic core. The executor takes the
//! spec's `Option<InjectFaults>` (`None` in production — every injection
//! site is behind `if let Some`; a plan gives seeded, reproducible worker
//! panics, stage wedges, ring delays and pool refusals) and, like every
//! executor, an `Option<&mut Recorder>`. When a wall-clock watchdog is
//! requested (or a fault plan is present), the coordinator polls instead
//! of blocking; otherwise it blocks on the report channel, unsupervised.
//! Under supervision per-stage progress counters
//! are snapshotted between report waits, and a deadline with no counter
//! movement trips a clean teardown — poison the run, diagnose the stuck
//! stage from boundary-ring occupancy, collect what reports remain
//! within a grace window, and return a structured [`RunError::Stalled`]
//! instead of hanging. Workers whose pool thread died surface as
//! [`RunError::WorkerLost`]; a teardown that had to abandon workers
//! mid-job retires the whole thread complement to the pool's self-
//! healing path instead of re-parking threads in unknown states. Both
//! error classes are [`RunError::is_degradable`]: the caller
//! ([`crate::session`]) replays them on the single-threaded static plan,
//! which is *correct* because every execution family is pinned
//! bit-identical.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streamlin_support::{FaultAction, InjectFaults, OpCounter, Recorder, StallKind, Tally};

use crate::engine::RunError;
use crate::flat::{note_fused_loops, FlatGraph, FlatNode, NodeKind};
use crate::partition::Partition;
use crate::plan::{batch_need, exec_batch, node_rates, ExecPlan, PlanState, Rates};
use crate::pool;
use crate::ring::{Backoff, RingSet, SharedRings};

/// Default cycle-count quantum of the pacing protocol, in steady cycles:
/// the coordinator only ever runs whole multiples of this many cycles,
/// which is what makes run lengths (and with them tallies and firing
/// counts) identical across worker counts.
///
/// The quantum is a field of the run's spec
/// ([`crate::spec::RunSpec::quantum`]): an explicit knob (`streamlinc
/// --quantum`, a per-stream `streamlind` member), else this default.
/// Larger quanta amortize coordinator round trips on long-running
/// streams; quantum 1 removes the up-to-4× sub-cycle overshoot on short
/// ones.
pub const CYCLE_QUANTUM: u64 = 4;

/// Outcome of a pipeline run: the merged view a profiler needs.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The program's printed output, in schedule order.
    pub printed: Vec<f64>,
    /// Summed operation tallies of all workers.
    pub ops: OpCounter,
    /// Summed node firings of all workers.
    pub firings: u64,
    /// Steady cycles executed (identical for every worker count).
    pub cycles: u64,
    /// Worker threads that ran (= stages of the partition).
    pub stages: usize,
}

/// Consecutive output-less steady cycles tolerated before the run is
/// declared dead (mirrors `PlanEngine::MAX_SILENT_CYCLES`).
const MAX_SILENT_CYCLES: u64 = 1 << 16;

/// Watchdog deadline used when a fault plan is present but the caller gave
/// no explicit deadline: injection must never convert a test run into a
/// hang, so supervision always has *some* wall-clock bound.
const DEFAULT_ARMED_WATCHDOG: Duration = Duration::from_secs(5);

/// After a trip (watchdog or dead worker), how long the coordinator keeps
/// collecting reports/results from the surviving workers before it
/// abandons the stragglers and retires the run's threads.
const TEARDOWN_GRACE: Duration = Duration::from_millis(750);

/// Marker detail for errors caused by *another* worker's failure; the
/// coordinator reports the root cause instead when one exists.
const PEER_FAILURE: &str = "aborted: a pipeline peer failed";

fn peer_failure() -> RunError {
    RunError::Deadlock {
        detail: PEER_FAILURE.into(),
    }
}

/// A partitioner/setup invariant violated at run time: surfaced as a
/// structured error (these paths used to `expect`-panic mid-setup).
fn setup_bug(what: &str) -> RunError {
    RunError::Eval(format!(
        "internal pipeline setup invariant violated: {what}"
    ))
}

/// Keep the root cause: a peer-failure abort only stands in until the
/// real error arrives; everything else is first-come-first-kept.
fn absorb_err(slot: &mut Option<RunError>, e: RunError) {
    let is_peer =
        |e: &RunError| matches!(e, RunError::Deadlock { detail } if detail == PEER_FAILURE);
    match slot {
        None => *slot = Some(e),
        Some(cur) if is_peer(cur) && !is_peer(&e) => *slot = Some(e),
        _ => {}
    }
}

/// Best-effort panic payload message (panics carry `&str` or `String`).
fn panic_detail(payload: &dyn std::any::Any) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// One schedule step owned by a stage, with its boundary actions.
#[derive(Debug, Clone)]
struct LocalStep {
    /// Node index *within the stage's local node vector*.
    node: usize,
    /// Node index in the *global* flat graph (telemetry span naming).
    gnode: usize,
    /// Consecutive firings (verbatim from the plan — batch sizes must not
    /// change, or blocked linear multiplies would accumulate differently).
    times: u32,
    /// Boundary input channels to receive on before firing:
    /// `(input slot, channel)`.
    recv: Vec<(usize, usize)>,
    /// Boundary output channels to flush after firing.
    send: Vec<usize>,
}

/// Commands from the coordinator to a worker.
enum Cmd {
    /// Run until `cycles == target` (the first command also runs init).
    Run(u64),
    /// Hand back results and exit.
    Finish,
}

/// One worker's answer to a [`Cmd::Run`] round. The worker drains the
/// values it printed during the round into the report, so the
/// coordinator can hand out ordered output incrementally (the resident
/// [`PipelineSession`] reads) — concatenation in arrival order is exact
/// because all printing nodes share one stage.
struct Report {
    stage: usize,
    values: Vec<f64>,
    err: Option<RunError>,
}

/// Final per-worker results, returned through the join handle.
struct StageResult {
    stage: usize,
    printed: Vec<f64>,
    ops: OpCounter,
    firings: u64,
    /// The worker's forked recorder, absorbed by the coordinator.
    probe: Option<Recorder>,
}

/// A stage's executable state, moved onto its (pooled) worker thread.
struct StageWorker<T: Tally> {
    stage: usize,
    /// Telemetry lane of this worker: `stage + 1` (lane 0 = coordinator).
    lane: u32,
    /// Forked recorder, recording into `lane`.
    probe: Option<Recorder>,
    /// This worker's clone of the run's fault plan (`None` in production).
    fault: Option<InjectFaults>,
    /// Executed schedule steps, the key for batch-site fault injection.
    steps: u64,
    /// Per-stage progress counters read by the supervisor's watchdog.
    progress: Arc<Vec<AtomicU64>>,
    /// Whether to maintain `progress` (true only under supervision).
    watch: bool,
    nodes: Vec<FlatNode>,
    /// Rate signatures, indexed like `nodes`.
    rates: Vec<Rates>,
    /// First firing still pending, indexed like `nodes`.
    fresh: Vec<bool>,
    init_steps: Vec<LocalStep>,
    steady_steps: Vec<LocalStep>,
    state: PlanState<T>,
    /// Local ring capacities (for computing drain room on boundary-ins).
    local_caps: Vec<usize>,
    shared: Arc<SharedRings>,
    poisoned: Arc<AtomicBool>,
    /// True when the host has a single hardware thread (skip spinning).
    solo: bool,
    cycles: u64,
    init_done: bool,
}

impl<T: Tally> StageWorker<T> {
    fn poison_check(&self) -> Result<(), RunError> {
        if self.poisoned.load(Ordering::Relaxed) {
            Err(peer_failure())
        } else {
            Ok(())
        }
    }

    /// Moves available items of a boundary-in channel from the SPSC ring
    /// into the local ring, bounded by local space. Returns items moved.
    fn drain(&mut self, chan: usize) -> usize {
        let free = self.local_caps[chan] - self.state.rings.len(chan);
        if free == 0 {
            return 0;
        }
        let shared = &self.shared;
        let rings = &mut self.state.rings;
        shared.consume(chan, free, |a, b| {
            rings.produce(chan, a);
            rings.produce(chan, b);
        })
    }

    /// Pushes everything buffered on a boundary-out channel into its SPSC
    /// ring, blocking (with bounded exponential backoff) while the
    /// consumer lags.
    fn flush(&mut self, chan: usize) -> Result<(), RunError> {
        let mut remaining = self.state.rings.len(chan);
        let mut backoff = Backoff::new(self.solo);
        // Stall accounting starts lazily at the first full retry, so the
        // happy path (consumer keeping up) records nothing but a sample.
        let mut stall_t0 = 0u64;
        while remaining > 0 {
            let shared = &self.shared;
            let window = self.state.rings.window(chan, remaining);
            let pushed = shared.produce(chan, window);
            if pushed == 0 {
                if let (Some(rec), 0) = (&mut self.probe, stall_t0) {
                    stall_t0 = rec.now();
                    rec.ring_stall(chan, true);
                }
                self.poison_check()?;
                if let Some(d) = self.fault.as_ref().and_then(|f| f.ring_wait(chan, true)) {
                    std::thread::sleep(d);
                }
                backoff.wait();
            } else {
                self.state.rings.consume(chan, pushed);
                remaining -= pushed;
                backoff.reset();
            }
        }
        if let Some(rec) = &mut self.probe {
            if stall_t0 != 0 {
                rec.stall(self.lane, StallKind::SendFull, stall_t0);
            }
            let ts = rec.now();
            rec.ring_depth(chan, self.shared.occupancy(chan), ts);
        }
        Ok(())
    }

    fn exec_step(&mut self, step: &LocalStep) -> Result<(), RunError> {
        if let Some(fault) = &self.fault {
            let idx = self.steps;
            self.steps += 1;
            match fault.batch_action(self.stage, idx) {
                FaultAction::None => {}
                FaultAction::Panic(msg) => panic!("{msg}"),
                FaultAction::Sleep(d) => std::thread::sleep(d),
                // Stop making progress but stay responsive to teardown:
                // the watchdog poisons the run, and this loop notices.
                FaultAction::Wedge => loop {
                    self.poison_check()?;
                    std::thread::sleep(Duration::from_micros(200));
                },
            }
        }
        let first = self.fresh[step.node];
        for &(slot, chan) in &step.recv {
            let need = batch_need(&self.rates[step.node], first, step.times as u64, slot) as usize;
            let mut backoff = Backoff::new(self.solo);
            let mut stall_t0 = 0u64;
            while self.state.rings.len(chan) < need {
                if self.drain(chan) == 0 {
                    if let (Some(rec), 0) = (&mut self.probe, stall_t0) {
                        stall_t0 = rec.now();
                        rec.ring_stall(chan, false);
                    }
                    self.poison_check()?;
                    if let Some(d) = self.fault.as_ref().and_then(|f| f.ring_wait(chan, false)) {
                        std::thread::sleep(d);
                    }
                    backoff.wait();
                } else {
                    backoff.reset();
                }
            }
            if stall_t0 != 0 {
                if let Some(rec) = &mut self.probe {
                    rec.stall(self.lane, StallKind::RecvEmpty, stall_t0);
                }
            }
        }
        let t0 = self.probe.as_ref().map_or(0, Recorder::now);
        exec_batch(
            &mut self.nodes[step.node],
            step.times,
            &mut self.state,
            usize::MAX,
        )?;
        if let Some(rec) = &mut self.probe {
            rec.batch(self.lane, step.gnode, step.times, t0);
        }
        self.fresh[step.node] = false;
        for &chan in &step.send {
            self.flush(chan)?;
        }
        if self.watch {
            // Relaxed is enough: the watchdog only compares snapshots for
            // *movement*, never for a precise value.
            self.progress[self.stage].fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Runs a whole phase (borrow juggling: the steps are taken out of
    /// `self` for the duration so `exec_step` can borrow freely).
    fn run_steps(&mut self, init: bool) -> Result<(), RunError> {
        let steps = if init {
            std::mem::take(&mut self.init_steps)
        } else {
            std::mem::take(&mut self.steady_steps)
        };
        let result = steps.iter().try_for_each(|s| self.exec_step(s));
        if init {
            self.init_steps = steps;
        } else {
            self.steady_steps = steps;
        }
        result
    }

    fn run_to(&mut self, target: u64) -> Result<(), RunError> {
        if !self.init_done {
            self.init_done = true;
            self.run_steps(true)?;
        }
        while self.cycles < target {
            self.run_steps(false)?;
            self.cycles += 1;
        }
        Ok(())
    }
}

/// The worker thread body: serve `Run` rounds until `Finish`.
fn worker_main<T: Tally>(
    mut w: StageWorker<T>,
    rx: Receiver<Cmd>,
    tx: Sender<Report>,
) -> StageResult {
    let mut failed = false;
    loop {
        // Time between rounds is the worker sitting idle, waiting for the
        // coordinator's next target.
        let idle_t0 = w.probe.as_ref().map_or(0, Recorder::now);
        let Ok(cmd) = rx.recv() else { break };
        if let Some(rec) = &mut w.probe {
            rec.stall(w.lane, StallKind::Idle, idle_t0);
        }
        match cmd {
            Cmd::Run(target) => {
                let err = if failed {
                    None
                } else {
                    match std::panic::catch_unwind(AssertUnwindSafe(|| w.run_to(target))) {
                        Ok(Ok(())) => None,
                        Ok(Err(e)) => Some(e),
                        Err(payload) => Some(RunError::WorkerLost {
                            detail: format!(
                                "pipeline stage {} panicked: {}",
                                w.stage,
                                panic_detail(payload.as_ref())
                            ),
                        }),
                    }
                };
                if err.is_some() {
                    failed = true;
                    w.poisoned.store(true, Ordering::Relaxed);
                }
                let report = Report {
                    stage: w.stage,
                    values: std::mem::take(&mut w.state.printed),
                    err,
                };
                if tx.send(report).is_err() {
                    break;
                }
            }
            Cmd::Finish => break,
        }
    }
    note_fused_loops(&w.nodes, w.probe.as_mut());
    StageResult {
        stage: w.stage,
        printed: std::mem::take(&mut w.state.printed),
        ops: w.state.ops.counts(),
        firings: w.state.firings,
        probe: w.probe,
    }
}

/// The watchdog's diagnosis of a no-progress pipeline, built from state
/// the executor already has: progress counters, which stages still owe a
/// report, and boundary-ring occupancy. A stage that has input available
/// and output space yet made no progress is singled out — everything
/// around a wedged stage is starved or backed up instead.
fn diagnose_stall(
    deadline: Duration,
    counts: &[u64],
    reported: &[bool],
    part: &Partition,
    shared: &SharedRings,
) -> String {
    use std::fmt::Write;
    let mut d = format!(
        "watchdog: no pipeline progress for {}ms",
        deadline.as_millis()
    );
    let pending: Vec<usize> = (0..reported.len()).filter(|&s| !reported[s]).collect();
    let _ = write!(
        d,
        "; stage step counters {counts:?}, awaiting stages {pending:?}"
    );
    for &s in &pending {
        let starved = part
            .boundaries
            .iter()
            .any(|b| b.to_stage == s && shared.occupancy(b.chan) == 0);
        let blocked = part
            .boundaries
            .iter()
            .any(|b| b.from_stage == s && shared.occupancy(b.chan) >= b.capacity);
        if !starved && !blocked {
            let _ = write!(
                d,
                "; stage {s} has input available and output space but made no \
                 progress (suspected wedged)"
            );
        }
    }
    let rings: Vec<String> = part
        .boundaries
        .iter()
        .map(|b| {
            format!(
                "chan {}: {}/{}",
                b.chan,
                shared.occupancy(b.chan),
                b.capacity
            )
        })
        .collect();
    let _ = write!(d, "; boundary rings [{}]", rings.join(", "));
    d
}

/// Per-stage payload prepared during setup, handed to the stage's worker.
struct StageSeed {
    nodes: Vec<FlatNode>,
    rates: Vec<Rates>,
    caps: Vec<usize>,
    initial: Vec<(usize, Vec<f64>)>,
    init_steps: Vec<LocalStep>,
    steady_steps: Vec<LocalStep>,
}

/// A **resident** pipeline run: the stage workers stay parked on their
/// pooled threads between reads, all engine state (ring occupancy, node
/// state, cycle position) persists, and the caller pulls ordered output
/// incrementally. This is the pipeline family behind
/// [`crate::session::Session`] — a daemon stream lives across many
/// protocol round trips, and a one-shot run is the degenerate case
/// (start → one read → finish), so every equivalence suite that pins the
/// one-shot executor pins the resident one too.
///
/// The pacing protocol is unchanged and remains a deterministic function
/// of printed counts at round boundaries; the *values* delivered for a
/// given program are a deterministic prefix regardless of how the reads
/// are batched (overshoot beyond a read goal is buffered, not
/// discarded).
///
/// Dropping a session without [`PipelineSession::finish`] tears it down:
/// workers are told to finish and collected within the usual grace
/// rules; threads are released back to the pool (or retired when
/// abandoned mid-job).
pub struct PipelineSession {
    cmd_txs: Vec<Sender<Cmd>>,
    report_rx: Receiver<Report>,
    result_rx: Receiver<StageResult>,
    threads: Vec<pool::PoolThread>,
    progress: Arc<Vec<AtomicU64>>,
    poisoned: Arc<AtomicBool>,
    shared: Arc<SharedRings>,
    part: Partition,
    num_stages: usize,
    supervised: bool,
    deadline: Duration,
    /// Pacing quantum in steady cycles.
    quantum: u64,
    est_per_cycle: u64,
    /// Cumulative cycle target announced to the workers.
    target: u64,
    /// Target when output last grew (silent-cycle accounting).
    progress_at: u64,
    /// Values printed but not yet handed out through [`Self::read`], in
    /// schedule order.
    values: VecDeque<f64>,
    /// How many values have been handed out through [`Self::read`].
    delivered: usize,
    tripped: bool,
    failed: Option<RunError>,
    done: bool,
    /// Coordinator-lane recorder (forked at start, absorbed at finish);
    /// boxed so an unrecorded session does not carry its footprint.
    coord: Option<Box<Recorder>>,
}

impl PipelineSession {
    /// Sets up stage workers on pooled threads and runs nothing yet.
    /// `quantum` is in steady cycles (see [`CYCLE_QUANTUM`]). A `fault`
    /// plan or a `watchdog` deadline makes the
    /// coordinator poll under supervision (a plan without a deadline gets
    /// a default one, so injection can never hang a run); with neither the
    /// coordinator blocks on the report channel, unsupervised.
    ///
    /// # Errors
    ///
    /// Setup invariant violations and pool refusals
    /// ([`RunError::WorkerLost`]).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is 0.
    pub fn start<T: Tally + Default + Send>(
        flat: FlatGraph,
        plan: &ExecPlan,
        part: &Partition,
        quantum: u64,
        mut probe: Option<&mut Recorder>,
        fault: Option<InjectFaults>,
        watchdog: Option<Duration>,
    ) -> Result<Self, RunError> {
        assert!(quantum >= 1, "the cycle quantum must be at least 1");
        let num_stages = part.num_stages;
        let num_channels = flat.num_channels;
        let rates: Vec<Rates> = flat.nodes.iter().map(node_rates).collect();

        // Boundary lookup: per channel, the crossing (if any) and capacity.
        let mut spsc_caps = vec![0usize; num_channels];
        let mut boundary_to: Vec<Option<usize>> = vec![None; num_channels];
        let mut boundary_from: Vec<Option<usize>> = vec![None; num_channels];
        for b in &part.boundaries {
            spsc_caps[b.chan] = b.capacity;
            boundary_to[b.chan] = Some(b.to_stage);
            boundary_from[b.chan] = Some(b.from_stage);
        }

        // Expected prints per steady cycle (sinks only; interpreted printers
        // are data-dependent and contribute nothing to the estimate), with
        // a floor of one print per cycle.
        let mut est_per_cycle = 0u64;
        for step in plan.stepped() {
            if let NodeKind::PrintSink { pop } = &flat.nodes[step.node].kind {
                est_per_cycle += step.times as u64 * *pop as u64;
            }
        }
        let est_per_cycle = est_per_cycle.max(1);

        // Distribute nodes, rates, ring capacities and schedule slices.
        let mut local_idx = vec![usize::MAX; flat.nodes.len()];
        let mut stage_nodes: Vec<Vec<FlatNode>> = (0..num_stages).map(|_| Vec::new()).collect();
        let mut stage_rates: Vec<Vec<Rates>> = (0..num_stages).map(|_| Vec::new()).collect();
        let mut stage_caps: Vec<Vec<usize>> =
            (0..num_stages).map(|_| vec![0; num_channels]).collect();
        for (i, node) in flat.nodes.into_iter().enumerate() {
            let s = part.stage_of[i];
            // Ring capacities, from this node's endpoint perspective:
            // boundary-ins get the SPSC capacity (drain headroom), everything
            // else keeps the plan's exact bound.
            for &c in &node.inputs {
                stage_caps[s][c] = if boundary_to[c] == Some(s) {
                    spsc_caps[c]
                } else {
                    plan.caps[c]
                };
            }
            for &c in &node.outputs {
                if boundary_from[c] != Some(s) {
                    stage_caps[s][c] = plan.caps[c];
                } else {
                    // Staging room for one step's pushes before the flush.
                    stage_caps[s][c] = stage_caps[s][c].max(plan.caps[c]);
                }
            }
            local_idx[i] = stage_nodes[s].len();
            stage_rates[s].push(rates[i].clone());
            stage_nodes[s].push(node);
        }
        // Initial items (feedback preloads) land in the consumer's local ring,
        // mirroring the sequential engine's starting occupancy.
        let mut stage_initial: Vec<Vec<(usize, Vec<f64>)>> =
            (0..num_stages).map(|_| Vec::new()).collect();
        for (c, items) in flat.initial {
            let consumer_stage = (0..num_stages)
                .find(|&s| stage_nodes[s].iter().any(|n| n.inputs.contains(&c)))
                .ok_or_else(|| {
                    setup_bug(&format!(
                        "initial items on channel {c} have no consuming stage"
                    ))
                })?;
            stage_initial[consumer_stage].push((c, items));
        }

        let slice_steps = |steps: &[crate::plan::Step]| -> Vec<Vec<LocalStep>> {
            let mut per_stage: Vec<Vec<LocalStep>> = (0..num_stages).map(|_| Vec::new()).collect();
            for step in steps {
                let s = part.stage_of[step.node];
                let node = &stage_nodes[s][local_idx[step.node]];
                let recv = node
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| boundary_to[c] == Some(s))
                    .map(|(slot, &c)| (slot, c))
                    .collect();
                let send = node
                    .outputs
                    .iter()
                    .copied()
                    .filter(|&c| boundary_from[c] == Some(s))
                    .collect();
                per_stage[s].push(LocalStep {
                    node: local_idx[step.node],
                    gnode: step.node,
                    times: step.times,
                    recv,
                    send,
                });
            }
            per_stage
        };
        let mut init_slices = slice_steps(&plan.init);
        let mut steady_slices = slice_steps(&plan.stepped().collect::<Vec<_>>());

        // Bundle every stage's payload *before* touching the worker pool, so
        // all fallible setup completes while nothing is held. Built in
        // reverse so each `pop` hands a stage its own data (a miscount here
        // is a partitioner bug, surfaced structurally instead of the
        // `expect` panics this loop used to contain).
        let mut seeds: Vec<StageSeed> = Vec::with_capacity(num_stages);
        for _ in 0..num_stages {
            seeds.push(StageSeed {
                nodes: stage_nodes
                    .pop()
                    .ok_or_else(|| setup_bug("missing per-stage nodes"))?,
                rates: stage_rates
                    .pop()
                    .ok_or_else(|| setup_bug("missing per-stage rates"))?,
                caps: stage_caps
                    .pop()
                    .ok_or_else(|| setup_bug("missing per-stage ring capacities"))?,
                initial: stage_initial
                    .pop()
                    .ok_or_else(|| setup_bug("missing per-stage initial items"))?,
                init_steps: init_slices
                    .pop()
                    .ok_or_else(|| setup_bug("missing per-stage init slice"))?,
                steady_steps: steady_slices
                    .pop()
                    .ok_or_else(|| setup_bug("missing per-stage steady slice"))?,
            });
        }

        let shared = Arc::new(SharedRings::new(&spsc_caps));
        let poisoned = Arc::new(AtomicBool::new(false));
        let solo = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        let (report_tx, report_rx) = channel::<Report>();
        let (result_tx, result_rx) = channel::<StageResult>();

        // Supervision: poll instead of block whenever a watchdog was asked
        // for or the run carries a fault plan (injected faults must never
        // turn a run into a hang, so a drilled run always gets a deadline).
        let supervised = fault.is_some() || watchdog.is_some();
        let deadline = watchdog.unwrap_or(DEFAULT_ARMED_WATCHDOG);
        let progress: Arc<Vec<AtomicU64>> =
            Arc::new((0..num_stages).map(|_| AtomicU64::new(0)).collect());
        if let Some(fault) = &fault {
            fault.arm(num_stages, num_channels);
            if let Some(rec) = &mut probe {
                rec.note("fault", &fault.describe());
            }
        }

        // Stage workers come from the persistent process-wide pool (acquired
        // atomically so concurrent runs never starve each other) instead of
        // being spawned per run — repeated profiling runs reuse the threads.
        let spawned_before = probe.as_ref().map_or(0, |_| pool::global_spawned());
        let threads = match pool::acquire_global_faulted(num_stages, fault.as_ref()) {
            Ok(t) => t,
            Err(reason) => {
                return Err(RunError::WorkerLost {
                    detail: format!("worker pool refused {num_stages} stage workers: {reason}"),
                })
            }
        };
        if let Some(rec) = &mut probe {
            rec.lane_name(0, "coordinator");
            for b in &part.boundaries {
                rec.ring_cap(b.chan, b.capacity);
            }
            let fresh = pool::global_spawned() - spawned_before;
            rec.note(
                "pool",
                &format!(
                    "acquired {num_stages} workers ({} reused, {fresh} newly spawned; \
                 {} spawned process-wide, {} left idle)",
                    num_stages - fresh,
                    pool::global_spawned(),
                    pool::global_idle()
                ),
            );
        }
        let mut cmd_txs = Vec::with_capacity(num_stages);
        for (stage, seed) in seeds.into_iter().rev().enumerate() {
            let (tx, rx) = channel::<Cmd>();
            cmd_txs.push(tx);
            let report_tx = report_tx.clone();
            let result_tx = result_tx.clone();
            let shared = Arc::clone(&shared);
            let poisoned = Arc::clone(&poisoned);
            let wprogress = Arc::clone(&progress);
            let wfault = fault.clone();
            let lane = stage as u32 + 1;
            let wprobe = probe.as_deref_mut().map(|rec| {
                rec.lane_name(lane, &format!("stage {stage}"));
                rec.fork(lane)
            });
            threads[stage].run(Box::new(move || {
                if wfault.as_ref().is_some_and(|f| f.spawn_abort(stage)) {
                    // Deliberately *outside* worker_main's containment: this
                    // unwinds into the pool thread's loop and kills the
                    // thread itself, exercising liveness detection and pool
                    // self-healing.
                    panic!("injected fault: stage {stage} worker thread died at job start");
                }
                let fresh = vec![true; seed.nodes.len()];
                let worker = StageWorker {
                    stage,
                    lane,
                    probe: wprobe,
                    fault: wfault,
                    steps: 0,
                    progress: wprogress,
                    watch: supervised,
                    rates: seed.rates,
                    fresh,
                    init_steps: seed.init_steps,
                    steady_steps: seed.steady_steps,
                    state: PlanState {
                        rings: RingSet::new(&seed.caps, &seed.initial),
                        printed: Vec::new(),
                        ops: T::default(),
                        firings: 0,
                        out_buf: Vec::new(),
                    },
                    local_caps: seed.caps,
                    nodes: seed.nodes,
                    shared,
                    poisoned,
                    solo,
                    cycles: 0,
                    init_done: false,
                };
                let result = worker_main(worker, rx, report_tx);
                let _ = result_tx.send(result);
            }));
        }
        drop(report_tx);
        drop(result_tx);

        let coord = probe.map(|rec| Box::new(rec.fork(0)));
        Ok(PipelineSession {
            cmd_txs,
            report_rx,
            result_rx,
            threads,
            progress,
            poisoned,
            shared,
            part: part.clone(),
            num_stages,
            supervised,
            deadline,
            quantum,
            est_per_cycle,
            target: 0,
            progress_at: 0,
            values: VecDeque::new(),
            delivered: 0,
            tripped: false,
            failed: None,
            done: false,
            coord,
        })
    }

    /// Total values printed so far (delivered or not).
    pub fn available(&self) -> usize {
        self.delivered + self.values.len()
    }

    /// Values handed out through [`Self::read`] so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Runs until `n` further values are available and hands them out,
    /// in order. The value sequence is independent of how reads are
    /// batched: overshoot beyond the goal stays buffered for the next
    /// read, and delivered values are not retained.
    ///
    /// # Errors
    ///
    /// Evaluation and rate errors from work functions; a deadlock when
    /// `MAX_SILENT_CYCLES` consecutive cycles print nothing;
    /// [`RunError::Stalled`] on a watchdog trip and
    /// [`RunError::WorkerLost`] for a dead or refused pool thread (both
    /// [`RunError::is_degradable`]). Once a session has failed, every
    /// subsequent read reports the same error.
    pub fn read(&mut self, n: usize) -> Result<Vec<f64>, RunError> {
        let end = self.delivered + n;
        self.run_until(end)?;
        self.delivered = end;
        Ok(self.values.drain(..n).collect())
    }

    /// The pacing protocol: extends the cumulative cycle target until at
    /// least `goal` total values have been printed. Every quantity here
    /// is a deterministic function of printed counts at round
    /// boundaries, and targets are quantized to whole multiples of
    /// `quantum` cycles, so the total cycle count — and with it tallies
    /// and firing counts — is independent of the worker count and of how
    /// a session's reads are batched.
    ///
    /// # Errors
    ///
    /// As [`Self::read`].
    pub fn run_until(&mut self, goal: usize) -> Result<(), RunError> {
        while self.available() < goal && self.failed.is_none() {
            let remaining = (goal - self.available()) as u64;
            let printed = self.available() as u64;
            let add = if printed > 0 {
                // Observed rate so far, rounded pessimistically upward.
                (remaining * self.target).div_ceil(printed)
            } else {
                remaining.div_ceil(self.est_per_cycle)
            };
            let silent = self.target - self.progress_at;
            let add = add.clamp(1, MAX_SILENT_CYCLES.saturating_sub(silent).max(1));
            let add = add.div_ceil(self.quantum) * self.quantum;
            self.target += add;
            for tx in &self.cmd_txs {
                if tx.send(Cmd::Run(self.target)).is_err() {
                    absorb_err(
                        &mut self.failed,
                        RunError::WorkerLost {
                            detail: "a pipeline worker exited before its run command".into(),
                        },
                    );
                }
            }
            let before = self.values.len();
            let wait_t0 = self.coord.as_deref().map_or(0, Recorder::now);
            if self.supervised {
                self.collect_round_supervised();
            } else {
                self.collect_round();
            }
            if let Some(rec) = &mut self.coord {
                rec.stall(0, StallKind::Quantum, wait_t0);
            }
            if self.values.len() > before {
                self.progress_at = self.target;
            } else if self.target - self.progress_at >= MAX_SILENT_CYCLES && self.failed.is_none() {
                self.failed = Some(RunError::Deadlock {
                    detail: format!(
                        "{} consecutive steady cycles produced no program output",
                        self.target - self.progress_at
                    ),
                });
            }
        }
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn absorb_report(&mut self, rep: Report) {
        self.values.extend(rep.values);
        if let Some(e) = rep.err {
            absorb_err(&mut self.failed, e);
        }
    }

    /// One unsupervised round: block until every stage reports.
    fn collect_round(&mut self) {
        for _ in 0..self.num_stages {
            match self.report_rx.recv() {
                Ok(rep) => self.absorb_report(rep),
                Err(_) => {
                    absorb_err(
                        &mut self.failed,
                        RunError::WorkerLost {
                            detail: "a pipeline worker exited without reporting".into(),
                        },
                    );
                    break;
                }
            }
        }
    }

    /// Supervised wait: poll with a timeout, watching per-stage progress
    /// counters and pool-thread liveness between polls. A deadline with
    /// no counter movement (or a dead thread) trips teardown: poison,
    /// diagnose, then give the surviving workers a grace window to
    /// report before abandoning them.
    fn collect_round_supervised(&mut self) {
        let poll = (self.deadline / 8).clamp(Duration::from_millis(2), Duration::from_millis(50));
        let mut reported = vec![false; self.num_stages];
        let mut got = 0usize;
        let mut last_counts: Vec<u64> = self
            .progress
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let mut last_advance = Instant::now();
        let mut tripped_at: Option<Instant> = None;
        while got < self.num_stages {
            match self.report_rx.recv_timeout(poll) {
                Ok(rep) => {
                    if !reported[rep.stage] {
                        reported[rep.stage] = true;
                        got += 1;
                    }
                    self.absorb_report(rep);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    absorb_err(
                        &mut self.failed,
                        RunError::WorkerLost {
                            detail: "a pipeline worker exited without reporting".into(),
                        },
                    );
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {
                    let dead = self.threads.iter().position(|t| !t.is_alive());
                    let worker_died = |stage: usize| RunError::WorkerLost {
                        detail: format!("stage {stage} worker thread died mid-run"),
                    };
                    if let Some(t0) = tripped_at {
                        // On a starved host the stall deadline can run out
                        // before a dying thread has been scheduled to die:
                        // a worker found dead inside the grace window is
                        // the cause of the stall, not a bystander, so the
                        // verdict is corrected rather than first-come.
                        if let (Some(stage), Some(RunError::Stalled { .. })) = (dead, &self.failed)
                        {
                            self.failed = Some(worker_died(stage));
                        }
                        if t0.elapsed() >= TEARDOWN_GRACE {
                            break;
                        }
                        continue;
                    }
                    if let Some(stage) = dead {
                        self.poisoned.store(true, Ordering::Relaxed);
                        absorb_err(&mut self.failed, worker_died(stage));
                        tripped_at = Some(Instant::now());
                        continue;
                    }
                    let counts: Vec<u64> = self
                        .progress
                        .iter()
                        .map(|c| c.load(Ordering::Relaxed))
                        .collect();
                    if counts != last_counts {
                        last_counts = counts;
                        last_advance = Instant::now();
                    } else if last_advance.elapsed() >= self.deadline {
                        self.poisoned.store(true, Ordering::Relaxed);
                        let detail = diagnose_stall(
                            self.deadline,
                            &last_counts,
                            &reported,
                            &self.part,
                            &self.shared,
                        );
                        absorb_err(&mut self.failed, RunError::Stalled { detail });
                        tripped_at = Some(Instant::now());
                    }
                }
            }
        }
        if tripped_at.is_some() {
            self.tripped = true;
            if let (Some(rec), Some(e)) = (&mut self.coord, &self.failed) {
                rec.note("supervisor", &format!("tripped: {e}"));
            }
        }
    }

    /// Tells every worker to finish, collects their results within the
    /// usual grace rules, and returns the threads to the pool (retiring
    /// the whole complement when any worker had to be abandoned mid-job
    /// — never re-park a thread that might still be executing an
    /// abandoned job). Collection errors land in `self.failed`.
    fn shutdown(&mut self) -> Vec<StageResult> {
        self.done = true;
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Finish);
        }
        let mut results: Vec<StageResult> = Vec::with_capacity(self.num_stages);
        let mut abandoned = false;
        if !self.supervised {
            for _ in 0..self.num_stages {
                match self.result_rx.recv() {
                    Ok(r) => results.push(r),
                    Err(_) => {
                        // Disconnection means every outstanding job ended
                        // (each holds a sender) — at least one without
                        // reporting, i.e. it panicked outside the
                        // contained run path.
                        if self.failed.is_none() {
                            self.failed = Some(RunError::WorkerLost {
                                detail: "a pipeline worker panicked outside its contained run path"
                                    .into(),
                            });
                        }
                        break;
                    }
                }
            }
        } else {
            let t0 = Instant::now();
            let mut have = vec![false; self.num_stages];
            while results.len() < self.num_stages {
                match self.result_rx.recv_timeout(Duration::from_millis(20)) {
                    Ok(r) => {
                        if r.stage < have.len() {
                            have[r.stage] = true;
                        }
                        results.push(r);
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        // All jobs ended; a missing result means its
                        // thread died mid-job. The survivors already
                        // finished, so the pool's own liveness filtering
                        // suffices.
                        if self.failed.is_none() {
                            self.failed = Some(RunError::WorkerLost {
                                detail: "a pipeline worker panicked outside its contained run path"
                                    .into(),
                            });
                        }
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        let missing_all_dead = (0..self.num_stages)
                            .filter(|&s| !have[s])
                            .all(|s| !self.threads[s].is_alive());
                        let grace_over = self.tripped && t0.elapsed() >= TEARDOWN_GRACE;
                        if missing_all_dead || grace_over {
                            if self.failed.is_none() {
                                self.failed = Some(RunError::WorkerLost {
                                    detail: "stage workers were abandoned mid-run".into(),
                                });
                            }
                            abandoned = true;
                            break;
                        }
                    }
                }
            }
        }
        let threads = std::mem::take(&mut self.threads);
        if abandoned {
            if let Some(rec) = &mut self.coord {
                rec.note(
                    "supervisor",
                    &format!(
                        "retired {} pool workers after an abandoned run",
                        self.num_stages
                    ),
                );
            }
            pool::retire_global(threads);
        } else {
            // `result_rx` answered for every job (or disconnected,
            // meaning all jobs ended), so the surviving threads are idle
            // again.
            pool::release_global(threads);
        }
        results
    }

    /// Finishes the run: tears the workers down, absorbs the coordinator's
    /// and the workers' recorders into `probe`, and merges the outcome. The
    /// outcome's `printed` holds what [`Self::read`] has not handed out —
    /// everything, for a one-shot run.
    ///
    /// # Errors
    ///
    /// Reports the session's stored failure (or one discovered during
    /// teardown) instead of an outcome.
    pub fn finish(mut self, mut probe: Option<&mut Recorder>) -> Result<PipelineOutcome, RunError> {
        let mut results = self.shutdown();
        if let (Some(rec), Some(coord)) = (&mut probe, self.coord.take()) {
            rec.absorb(*coord);
        }
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        results.sort_by_key(|r| r.stage);
        let mut outcome = PipelineOutcome {
            printed: std::mem::take(&mut self.values).into(),
            ops: OpCounter::default(),
            firings: 0,
            cycles: self.target,
            stages: self.num_stages,
        };
        for r in results {
            // Undrained leftovers (normally none) land after the drained
            // values; concatenation in stage order is exact because
            // printers share one stage.
            outcome.printed.extend(r.printed);
            outcome.ops.merge(&r.ops);
            outcome.firings += r.firings;
            if let (Some(rec), Some(worker)) = (&mut probe, r.probe) {
                rec.absorb(worker);
            }
        }
        Ok(outcome)
    }
}

impl Drop for PipelineSession {
    fn drop(&mut self) {
        if !self.done {
            let _ = self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::flatten;
    use crate::linear_exec::MatMulStrategy;
    use crate::partition::partition;
    use crate::plan::{compile, PlanEngine};
    use streamlin_core::cost::CostModel;
    use streamlin_core::opt::OptStream;
    use streamlin_support::NoCount;

    fn planned(src: &str) -> (FlatGraph, ExecPlan) {
        let p = streamlin_lang::parse(src).unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        let flat = flatten(&OptStream::from_graph(&g), MatMulStrategy::Unrolled).unwrap();
        let plan = compile(&flat).unwrap();
        (flat, plan)
    }

    /// An unrecorded session on `threads` stages, drilled with `fault`.
    fn start<T: Tally + Default + Send>(
        (flat, plan): (FlatGraph, ExecPlan),
        threads: usize,
        fault: Option<&str>,
        watchdog: Option<Duration>,
    ) -> Result<PipelineSession, RunError> {
        let part = partition(&flat, &plan, threads, &CostModel::default());
        let fault = fault.map(|spec| InjectFaults::parse(spec).unwrap());
        let quantum = CYCLE_QUANTUM;
        PipelineSession::start::<T>(flat, &plan, &part, quantum, None, fault, watchdog)
    }

    /// One-shot use of a session: start, run to `outputs`, finish.
    fn run<T: Tally + Default + Send>(
        graph: (FlatGraph, ExecPlan),
        threads: usize,
        outputs: usize,
        fault: Option<&str>,
        watchdog: Option<Duration>,
    ) -> Result<PipelineOutcome, RunError> {
        let mut session = start::<T>(graph, threads, fault, watchdog)?;
        let _ = session.run_until(outputs);
        session.finish(None)
    }

    fn run_threads(src: &str, threads: usize, outputs: usize) -> PipelineOutcome {
        run::<OpCounter>(planned(src), threads, outputs, None, None).unwrap()
    }

    const CHAIN: &str = "void->void pipeline Main { add S(); add G(); add H(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float filter G { work pop 1 push 1 { push(3 * pop()); } }
         float->float filter H { work peek 2 pop 1 push 1 { push(peek(1) - peek(0)); pop(); } }
         float->void filter K { work pop 1 { println(pop()); } }";

    #[test]
    fn pipeline_matches_plan_engine_output() {
        let (flat, plan) = planned(CHAIN);
        let mut seq = PlanEngine::<OpCounter>::new(flat, plan);
        seq.run_until_outputs(40).unwrap();
        let expected: Vec<f64> = seq.printed()[..40].to_vec();
        for threads in [1, 2, 3, 4] {
            let out = run_threads(CHAIN, threads, 40);
            assert!(out.printed.len() >= 40);
            assert_eq!(&out.printed[..40], &expected[..], "threads {threads}");
        }
    }

    #[test]
    fn tallies_are_identical_across_worker_counts() {
        let one = run_threads(CHAIN, 1, 64);
        for threads in [2, 4] {
            let many = run_threads(CHAIN, threads, 64);
            assert_eq!(one.cycles, many.cycles, "threads {threads}");
            assert_eq!(one.firings, many.firings, "threads {threads}");
            assert_eq!(one.ops, many.ops, "threads {threads}");
            assert_eq!(one.printed, many.printed, "threads {threads}");
        }
    }

    #[test]
    fn multirate_splitjoin_pipeline_is_exact() {
        const SJ: &str = "void->void pipeline Main { add S(); add SJ(); add C(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float splitjoin SJ {
                 split duplicate;
                 add G(10.0); add G(100.0);
                 join roundrobin;
             }
             float->float filter G(float k) { work pop 1 push 1 { push(k * pop()); } }
             float->float filter C { work pop 2 push 1 { push(pop() + pop()); } }
             float->void filter K { work pop 1 { println(pop()); } }";
        let (flat, plan) = planned(SJ);
        let mut seq = PlanEngine::<OpCounter>::new(flat, plan);
        seq.run_until_outputs(30).unwrap();
        let expected: Vec<f64> = seq.printed()[..30].to_vec();
        for threads in [2, 4] {
            let out = run_threads(SJ, threads, 30);
            assert_eq!(&out.printed[..30], &expected[..], "threads {threads}");
        }
    }

    #[test]
    fn init_phases_cross_boundaries() {
        // The peeking filter needs a 2-item prologue from the source; with
        // a cut between them the prologue flows through the SPSC ring.
        const PEEKY: &str = "void->void pipeline Main { add S(); add D(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter D {
                 work peek 3 pop 1 push 1 { push(peek(2) - peek(0)); pop(); }
             }
             float->void filter K { work pop 1 { println(pop()); } }";
        let out = run_threads(PEEKY, 3, 10);
        assert_eq!(&out.printed[..3], &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn uncounted_mode_prints_identical_bits() {
        let fast = run::<NoCount>(planned(CHAIN), 2, 50, None, None).unwrap();
        let counted = run_threads(CHAIN, 2, 50);
        assert_eq!(fast.printed.len(), counted.printed.len());
        for (a, b) in fast.printed.iter().zip(&counted.printed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(fast.ops, OpCounter::default());
    }

    #[test]
    fn rate_violations_poison_the_pipeline() {
        const BAD: &str = "void->void pipeline Main { add S(); add K(); }
             void->float filter S { float x; work push 2 { push(x); if (x > 0.5) push(x); x = x + 1; } }
             float->void filter K { work pop 1 { println(pop()); } }";
        let err = run::<OpCounter>(planned(BAD), 2, 5, None, None).unwrap_err();
        assert!(matches!(err, RunError::RateViolation(_)), "{err}");
    }

    #[test]
    fn conditional_printers_survive_silent_cycles() {
        const SPARSE: &str = "void->void pipeline Main { add S(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->void filter K {
                 int c;
                 work pop 1 {
                     c++;
                     if (c % 3 == 0) println(pop()); else pop();
                 }
             }";
        let out = run_threads(SPARSE, 2, 3);
        assert_eq!(&out.printed[..3], &[2.0, 5.0, 8.0]);
    }

    /// Supervision is opt-in by value: with no fault plan and no watchdog
    /// the coordinator blocks in `collect_round` and the workers keep no
    /// progress counters; either one switches to the polling path.
    #[test]
    fn an_undrilled_unwatched_run_is_unsupervised() {
        let supervised_and_counting = |fault, watchdog| {
            let mut session = start::<OpCounter>(planned(CHAIN), 2, fault, watchdog).unwrap();
            session.run_until(40).unwrap();
            let counted = session
                .progress
                .iter()
                .any(|c| c.load(Ordering::Relaxed) > 0);
            (session.supervised, counted)
        };
        assert_eq!(supervised_and_counting(None, None), (false, false));
        assert_eq!(
            supervised_and_counting(Some("5:slow=1"), None),
            (true, true)
        );
        let watchdog = Some(Duration::from_secs(5));
        assert_eq!(supervised_and_counting(None, watchdog), (true, true));
    }

    #[test]
    fn injected_panic_is_a_structured_worker_loss() {
        let err = run::<OpCounter>(planned(CHAIN), 2, 40, Some("11:panic@s1"), None).unwrap_err();
        assert!(matches!(err, RunError::WorkerLost { .. }), "{err}");
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(err.is_degradable());
    }

    #[test]
    fn watchdog_trips_on_a_wedged_stage() {
        let t0 = Instant::now();
        let deadline = Some(Duration::from_millis(250));
        let err =
            run::<OpCounter>(planned(CHAIN), 2, 40, Some("3:wedge@s0"), deadline).unwrap_err();
        assert!(matches!(err, RunError::Stalled { .. }), "{err}");
        assert!(err.to_string().contains("watchdog"), "{err}");
        // Trip + teardown must be prompt: deadline, grace, slack — not a
        // hang (the pre-supervision executor span here forever).
        assert!(t0.elapsed() < Duration::from_secs(30), "{:?}", t0.elapsed());
    }

    #[test]
    fn output_preserving_faults_keep_bits_identical() {
        let clean = run_threads(CHAIN, 2, 40);
        let out =
            run::<OpCounter>(planned(CHAIN), 2, 40, Some("5:slow@s0=40,delay=20"), None).unwrap();
        assert_eq!(out.printed, clean.printed);
        assert_eq!(out.ops, clean.ops);
        assert_eq!(out.firings, clean.firings);
    }
}
