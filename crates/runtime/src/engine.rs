//! The data-driven execution engine.
//!
//! It polls the nodes in order and fires any whose inputs hold a firing's
//! worth and whose outputs have room, one firing at a time. What a firing
//! needs and pushes comes from the one rate table, `plan::node_rates`, the
//! schedule compiler's own: the first phase until a node has fired, the
//! steady phase after. Channel bounds start at a few firings and double
//! while the graph is otherwise stuck, up to the plan's `CAP_LIMIT`.
//!
//! No session runs on it: every program runs on its static plan. It is the
//! reference every equivalence suite holds the plan to, since it finds a
//! valid schedule with no plan at all, and a deterministic stream program
//! prints the same values under every valid schedule.

use std::collections::VecDeque;

use streamlin_graph::exec::Host;
use streamlin_graph::lower::SlotStore;
use streamlin_graph::value::{EvalError, Value};
use streamlin_support::{OpCounter, Recorder, Tally};

use crate::flat::{FlatGraph, FlatNode, InterpState, NodeKind};
use crate::plan::{node_rates, Rates, CAP_LIMIT};

/// Errors during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// No node can fire but the program has not produced enough output.
    Deadlock {
        /// A description of the stuck state.
        detail: String,
    },
    /// A work function violated its declared rates at runtime.
    RateViolation(String),
    /// A work function failed to evaluate.
    Eval(String),
    /// The supervisor's watchdog tripped: the pipeline made no progress
    /// for the configured deadline and was torn down.
    Stalled {
        /// The watchdog's diagnosis (progress counters, pending stages,
        /// boundary-ring occupancy, suspected wedged stage).
        detail: String,
    },
    /// A pipeline stage worker panicked, its pool thread died, or the
    /// worker pool could not supply threads for the run.
    WorkerLost {
        /// What was lost and where.
        detail: String,
    },
}

impl RunError {
    /// Whether a failed parallel run may be transparently replayed on the
    /// single-threaded static plan: true for infrastructure failures
    /// (lost workers, watchdog trips), false for program errors (rate
    /// violations, evaluation errors, program deadlocks), which would
    /// fail identically under any executor.
    pub fn is_degradable(&self) -> bool {
        matches!(self, RunError::Stalled { .. } | RunError::WorkerLost { .. })
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { detail } => write!(f, "deadlock: {detail}"),
            RunError::RateViolation(m) => write!(f, "rate violation: {m}"),
            RunError::Eval(m) => write!(f, "evaluation error: {m}"),
            RunError::Stalled { detail } => write!(f, "stalled: {detail}"),
            RunError::WorkerLost { detail } => write!(f, "worker lost: {detail}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Shared mutable execution state (kept apart from the nodes so a firing
/// can borrow both).
#[derive(Debug)]
struct EngineState<T> {
    channels: Vec<VecDeque<f64>>,
    /// Per-channel occupancy bound. Starts tight (a small multiple of the
    /// endpoints' rates) so producers cannot run far ahead of demand —
    /// otherwise a node early in the graph would burn operations computing
    /// data the measured run never consumes. Raised adaptively when a
    /// graph (e.g. a splitjoin with imbalanced branches) genuinely needs
    /// deeper buffering.
    caps: Vec<usize>,
    printed: Vec<f64>,
    ops: T,
    firings: u64,
    /// Reusable snapshot of the firing node's peek window.
    window: Vec<f64>,
    /// Reusable staging buffer for an interpreted firing's pushes.
    out_buf: Vec<f64>,
}

/// An executable program instance, generic over the [`Tally`] that its
/// arithmetic threads through ([`OpCounter`] for the measured experiment,
/// [`streamlin_support::NoCount`] for production execution).
#[derive(Debug)]
pub struct Engine<T: Tally = OpCounter> {
    nodes: Vec<FlatNode>,
    /// Every node's [`node_rates`], and whether it has fired: a node's
    /// next firing is its first phase until it has.
    rates: Vec<Rates>,
    fired: Vec<bool>,
    state: EngineState<T>,
}

impl<T: Tally + Default> Engine<T> {
    /// Instantiates a flattened graph (applying feedback preloads).
    pub fn new(flat: FlatGraph) -> Self {
        let mut channels = vec![VecDeque::new(); flat.num_channels];
        for (chan, items) in &flat.initial {
            channels[*chan].extend(items.iter().copied());
        }
        // Initial caps: room for a couple of first firings at each endpoint.
        let rates: Vec<Rates> = flat.nodes.iter().map(node_rates).collect();
        let mut caps = vec![64usize; flat.num_channels];
        for (node, r) in flat.nodes.iter().zip(&rates) {
            let first = r.phase(true);
            for (&c, &need) in node.inputs.iter().zip(&first.in_peek) {
                caps[c] = caps[c].max(4 * need as usize + 16);
            }
            for (&c, &push) in node.outputs.iter().zip(&first.out_push) {
                caps[c] = caps[c].max(4 * push as usize + 16);
            }
        }
        for (chan, items) in &flat.initial {
            caps[*chan] = caps[*chan].max(2 * items.len() + 16);
        }
        Engine {
            rates,
            fired: vec![false; flat.nodes.len()],
            nodes: flat.nodes,
            state: EngineState {
                channels,
                caps,
                printed: Vec::new(),
                ops: T::default(),
                firings: 0,
                window: Vec::new(),
                out_buf: Vec::new(),
            },
        }
    }
}

impl<T: Tally> Engine<T> {
    /// Values printed so far (the program's output stream).
    pub fn printed(&self) -> &[f64] {
        &self.state.printed
    }

    /// The tally so far (use [`Tally::counts`] for the numbers; a
    /// `NoCount` engine reports all-zero tallies).
    pub fn ops(&self) -> &T {
        &self.state.ops
    }

    /// Total node firings so far.
    pub fn firings(&self) -> u64 {
        self.state.firings
    }

    /// Runs until the program has printed at least `n` values.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] if no progress is possible, or any
    /// evaluation/rate error from a work function.
    pub fn run_until_outputs(&mut self, n: usize) -> Result<(), RunError> {
        self.run(n, None)
    }

    /// [`Self::run_until_outputs`] recorded: each firing becomes a span on
    /// lane 1 (the data-driven engine is single-threaded).
    ///
    /// # Errors
    ///
    /// As [`Self::run_until_outputs`].
    pub fn run_probed(&mut self, n: usize, rec: &mut Recorder) -> Result<(), RunError> {
        self.run(n, Some(rec))
    }

    /// The one firing loop behind both entry points; an unrecorded run
    /// reads no clock.
    pub(crate) fn run(&mut self, n: usize, mut rec: Option<&mut Recorder>) -> Result<(), RunError> {
        while self.state.printed.len() < n {
            let mut fired = false;
            for i in 0..self.nodes.len() {
                if self.state.printed.len() >= n {
                    return Ok(());
                }
                if self.readiness(i) == Readiness::Ready {
                    let t0 = rec.as_deref().map_or(0, Recorder::now);
                    fire(&mut self.nodes[i], &mut self.state)?;
                    self.fired[i] = true;
                    if let Some(rec) = &mut rec {
                        rec.batch(1, i, 1, t0);
                    }
                    fired = true;
                }
            }
            if !fired && !self.relieve_backpressure()? {
                let detail = self
                    .nodes
                    .iter()
                    .map(|node| {
                        let ins: Vec<usize> = node
                            .inputs
                            .iter()
                            .map(|&c| self.state.channels[c].len())
                            .collect();
                        format!("{}{ins:?}", node.name)
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                return Err(RunError::Deadlock { detail });
            }
        }
        Ok(())
    }

    /// What, if anything, prevents node `i` from firing.
    fn readiness(&self, i: usize) -> Readiness {
        let node = &self.nodes[i];
        let phase = self.rates[i].phase(!self.fired[i]);
        for (&chan, &need) in node.inputs.iter().zip(&phase.in_peek) {
            if (self.state.channels[chan].len() as u64) < need {
                return Readiness::NeedsInput;
            }
        }
        for (&chan, &push) in node.outputs.iter().zip(&phase.out_push) {
            if self.state.channels[chan].len() + push as usize > self.state.caps[chan] {
                return Readiness::OutputFull(chan);
            }
        }
        Readiness::Ready
    }

    /// When every node is blocked, grow the caps of channels that are the
    /// only obstacle for otherwise-ready nodes (imbalanced splitjoin
    /// branches legitimately need deeper buffers). Returns whether any cap
    /// was raised.
    fn relieve_backpressure(&mut self) -> Result<bool, RunError> {
        let mut raised = false;
        for i in 0..self.nodes.len() {
            if let Readiness::OutputFull(chan) = self.readiness(i) {
                let cap = &mut self.state.caps[chan];
                if *cap as u64 >= CAP_LIMIT {
                    return Err(RunError::Deadlock {
                        detail: format!(
                            "channel of {} exceeded the {CAP_LIMIT}-item bound",
                            self.nodes[i].name
                        ),
                    });
                }
                *cap = (*cap * 2).min(CAP_LIMIT as usize);
                raised = true;
            }
        }
        Ok(raised)
    }
}

/// Why a node can or cannot fire right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Readiness {
    Ready,
    NeedsInput,
    OutputFull(usize),
}

fn fire<T: Tally>(node: &mut FlatNode, state: &mut EngineState<T>) -> Result<(), RunError> {
    state.firings += 1;
    match &mut node.kind {
        NodeKind::Interp(interp) => {
            let (peek, pop, _) = interp_phase_rates(interp);
            read_window(state, node.inputs.first().copied(), peek);
            let EngineState {
                window,
                out_buf,
                printed,
                ops,
                ..
            } = state;
            out_buf.clear();
            fire_interp(interp, window, 1, out_buf, printed, ops, usize::MAX)?;
            consume(state, node.inputs.first().copied(), pop);
            produce_staged(state, node.outputs.first().copied());
            Ok(())
        }
        NodeKind::Linear(exec) => {
            // Read the rates out before the mutable `fire` borrow — the
            // old `exec.node().clone()` copied the whole coefficient
            // matrix every firing.
            let (peek, pop) = (exec.node().peek(), exec.node().pop());
            read_window(state, node.inputs.first().copied(), peek);
            let out = exec.fire(&state.window, &mut state.ops);
            consume(state, node.inputs.first().copied(), pop);
            produce(state, node.outputs.first().copied(), &out);
            Ok(())
        }
        NodeKind::Redund(exec) => {
            let (peek, pop) = (exec.spec().node().peek(), exec.spec().node().pop());
            read_window(state, node.inputs.first().copied(), peek);
            state.out_buf.clear();
            exec.fire(&state.window, &mut state.out_buf, &mut state.ops);
            consume(state, node.inputs.first().copied(), pop);
            produce_staged(state, node.outputs.first().copied());
            Ok(())
        }
        NodeKind::Freq(exec) => {
            let (peek, pop, _push) = exec.current_rates();
            read_window(state, node.inputs.first().copied(), peek);
            state.out_buf.clear();
            exec.fire(&state.window, &mut state.out_buf, &mut state.ops);
            consume(state, node.inputs.first().copied(), pop);
            produce_staged(state, node.outputs.first().copied());
            Ok(())
        }
        NodeKind::Decimator { pop, push } => {
            let (pop, push) = (*pop, *push);
            read_window(state, node.inputs.first().copied(), push);
            consume(state, node.inputs.first().copied(), pop);
            if let Some(&c) = node.outputs.first() {
                state.channels[c].extend(state.window.iter().copied());
            }
            Ok(())
        }
        NodeKind::Periodic { values, pos } => {
            let v = values[*pos];
            *pos = (*pos + 1) % values.len();
            produce(state, node.outputs.first().copied(), &[v]);
            Ok(())
        }
        NodeKind::PrintSink { pop } => {
            let chan = node.inputs[0];
            for _ in 0..*pop {
                let v = state.channels[chan]
                    .pop_front()
                    .expect("fireable checked occupancy");
                state.printed.push(v);
            }
            Ok(())
        }
        NodeKind::DiscardSink { pop } => {
            consume(state, node.inputs.first().copied(), *pop);
            Ok(())
        }
        NodeKind::Duplicate => {
            let v = state.channels[node.inputs[0]]
                .pop_front()
                .expect("fireable checked occupancy");
            for &o in &node.outputs {
                state.channels[o].push_back(v);
            }
            Ok(())
        }
        NodeKind::SplitRR(w) => {
            // The weights and the channels live in disjoint structures, so
            // no per-firing `w.clone()` is needed.
            for (k, &count) in w.iter().enumerate() {
                for _ in 0..count {
                    let v = state.channels[node.inputs[0]]
                        .pop_front()
                        .expect("fireable checked occupancy");
                    state.channels[node.outputs[k]].push_back(v);
                }
            }
            Ok(())
        }
        NodeKind::JoinRR(w) => {
            for (k, &count) in w.iter().enumerate() {
                for _ in 0..count {
                    let v = state.channels[node.inputs[k]]
                        .pop_front()
                        .expect("fireable checked occupancy");
                    state.channels[node.outputs[0]].push_back(v);
                }
            }
            Ok(())
        }
    }
}

/// Snapshots the oldest `peek` items of a channel into `state.window`
/// (empty for a node without input).
fn read_window<T>(state: &mut EngineState<T>, chan: Option<usize>, peek: usize) {
    state.window.clear();
    if let Some(c) = chan {
        let (head, tail) = state.channels[c].as_slices();
        let n = peek.min(head.len());
        state.window.extend_from_slice(&head[..n]);
        state.window.extend_from_slice(&tail[..peek - n]);
    }
}

fn consume<T>(state: &mut EngineState<T>, chan: Option<usize>, pop: usize) {
    if let Some(c) = chan {
        state.channels[c].drain(..pop);
    }
}

fn produce<T>(state: &mut EngineState<T>, chan: Option<usize>, items: &[f64]) {
    if let Some(c) = chan {
        state.channels[c].extend(items.iter().copied());
    }
}

/// [`produce`] of what a firing staged in `state.out_buf`.
fn produce_staged<T>(state: &mut EngineState<T>, chan: Option<usize>) {
    if let Some(c) = chan {
        state.channels[c].extend(state.out_buf.iter().copied());
    }
}

// ---- interpreted filters ----------------------------------------------------

/// Tape host over a window snapshot: peeks/pops index into the window,
/// pushes land in the caller's buffer, prints are collected, float
/// operations are tallied.
///
/// `CERT` is the tape discipline. Unset, every access is checked and the
/// caller validates the declared rates after the firing. Set, the phase
/// holds a rate/bounds certificate (see [`streamlin_graph::analyze`]): the
/// abstract interpreter proved every peek/pop stays inside the declared
/// window, so accesses index it directly with no `Option` plumbing and no
/// error formatting. Outputs are bit-identical — the certificate
/// guarantees the checked path would never have taken an error branch.
struct WindowHost<'a, T, const CERT: bool> {
    window: &'a [f64],
    cursor: usize,
    pushed: &'a mut Vec<f64>,
    printed: &'a mut Vec<f64>,
    ops: &'a mut T,
}

impl<T: Tally, const CERT: bool> Host for WindowHost<'_, T, CERT> {
    #[inline]
    fn peek(&mut self, i: usize) -> Result<f64, EvalError> {
        if CERT {
            return Ok(self.window[self.cursor + i]);
        }
        self.window.get(self.cursor + i).copied().ok_or_else(|| {
            EvalError::new(format!(
                "peek({i}) after {} pops exceeds the declared peek window of {}",
                self.cursor,
                self.window.len()
            ))
        })
    }
    #[inline]
    fn pop(&mut self) -> Result<f64, EvalError> {
        let v = self.peek(0)?;
        self.cursor += 1;
        Ok(v)
    }
    #[inline]
    fn push(&mut self, v: f64) -> Result<(), EvalError> {
        self.pushed.push(v);
        Ok(())
    }
    fn print(&mut self, v: Value, _newline: bool) -> Result<(), EvalError> {
        self.printed.push(v.as_f64()?);
        Ok(())
    }
    #[inline]
    fn tape(&self) -> Option<&[f64]> {
        self.window.get(self.cursor..)
    }
    #[inline]
    fn count_add(&mut self) {
        self.ops.add(0.0, 0.0);
    }
    #[inline]
    fn count_mul(&mut self) {
        self.ops.mul(0.0, 0.0);
    }
    #[inline]
    fn count_div(&mut self) {
        self.ops.div(1.0, 1.0);
    }
    #[inline]
    fn count_other(&mut self) {
        self.ops.other(1);
    }
}

/// Interpreter fuel per firing — generous (Radar's largest work functions
/// run tens of thousands of statements per firing).
const FIRING_FUEL: u64 = 50_000_000;

/// `(peek, pop, push)` of an interpreted filter's *next* firing (the init
/// phase on the first firing when declared, the work phase afterwards).
pub(crate) fn interp_phase_rates(interp: &InterpState) -> (usize, usize, usize) {
    let w = match &interp.inst.init_work {
        Some(init) if interp.first => init,
        _ => &interp.inst.work,
    };
    (w.peek, w.pop, w.push)
}

/// The filter's next firing is its `initWork` phase, which runs alone.
pub(crate) fn init_pending(interp: &InterpState) -> bool {
    interp.first && interp.inst.init_work.is_some()
}

/// Runs up to `times` consecutive firings of an interpreted filter — all of
/// the phase the next firing is in, so a pending `initWork` runs alone —
/// over one window: firing `k` sees `window[k * pop..][..peek]`. Pushes are
/// appended to `out`; the caller owns channel consumption and production.
/// Returns how many firings ran: fewer than asked only for the lone init
/// firing, or when the filter prints and `stop_at` outputs exist.
///
/// Shared by the data-driven engine and the static-plan engine, so both
/// execute byte-for-byte the same work-function semantics.
/// What does not change between the firings of a batch is decided once:
/// the phase, the tape discipline (certified phases skip per-access checks
/// and post-firing rate validation), the tier, and whether the print
/// target needs testing at all. Execution defaults to the typed register
/// bytecode ([`streamlin_graph::bytecode`]) over registers the filter
/// keeps between firings — a steady-state firing allocates nothing — with
/// the slot-resolved tree-walker ([`streamlin_graph::lower`]) kept as the
/// differential reference (`--tier treewalk`).
pub(crate) fn fire_interp<T: Tally>(
    interp: &mut InterpState,
    window: &[f64],
    times: u32,
    out: &mut Vec<f64>,
    printed: &mut Vec<f64>,
    ops: &mut T,
    stop_at: usize,
) -> Result<u32, RunError> {
    let use_init = init_pending(interp);
    interp.first = false;
    let certified = match use_init {
        true => interp.init_certified,
        false => interp.work_certified,
    };
    let times = if use_init { 1 } else { times };
    let fire = match certified {
        true => fire_phase::<T, true>,
        false => fire_phase::<T, false>,
    };
    fire(interp, use_init, window, times, out, printed, ops, stop_at)
}

#[allow(clippy::too_many_arguments)]
fn fire_phase<T: Tally, const CERT: bool>(
    interp: &mut InterpState,
    use_init: bool,
    window: &[f64],
    times: u32,
    out: &mut Vec<f64>,
    printed: &mut Vec<f64>,
    ops: &mut T,
    stop_at: usize,
) -> Result<u32, RunError> {
    let InterpState {
        inst,
        globals,
        frame,
        regs,
        use_bytecode,
        ..
    } = interp;
    let (phase, code) = match (use_init, &inst.init_work, &inst.lowered.init_work) {
        (true, Some(phase), Some(code)) => (phase, code),
        _ => (&inst.work, &inst.lowered.work),
    };
    let prints = inst.lowered.prints;
    let mut store = SlotStore { globals, frame };
    // Bound once per batch: scalar globals stay in registers between the
    // firings and are stored back when the binding goes.
    let mut bound = code.code.bind(&mut store, regs, *use_bytecode);
    for done in 0..times {
        if prints && printed.len() >= stop_at {
            return Ok(done);
        }
        let base = done as usize * phase.pop;
        let pushed_before = out.len();
        let mut host = WindowHost::<T, CERT> {
            window: &window[base..base + phase.peek],
            cursor: 0,
            pushed: out,
            printed,
            ops,
        };
        if let Err(e) = bound.fire(&mut host, FIRING_FUEL) {
            return Err(RunError::Eval(format!("{}: {}", inst.name, e.message)));
        }
        if CERT {
            continue; // the certificate is the rate check
        }
        let (popped, pushed) = (host.cursor, out.len() - pushed_before);
        if popped != phase.pop {
            return Err(RunError::RateViolation(format!(
                "{} declared pop {} but popped {popped}",
                inst.name, phase.pop
            )));
        }
        if pushed != phase.push {
            return Err(RunError::RateViolation(format!(
                "{} declared push {} but pushed {pushed}",
                inst.name, phase.push
            )));
        }
    }
    Ok(times)
}

/// The first `n` values `flat` prints on the data-driven engine: what the
/// schedule compiler's unit tests hold a plan to.
#[cfg(test)]
pub(crate) fn reference_outputs(flat: FlatGraph, n: usize) -> Vec<f64> {
    let mut engine = Engine::<OpCounter>::new(flat);
    engine.run_until_outputs(n).unwrap();
    engine.printed()[..n].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::flatten;
    use crate::linear_exec::MatMulStrategy;
    use streamlin_core::opt::OptStream;

    fn engine_for(src: &str) -> Engine {
        let p = streamlin_lang::parse(src).unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        Engine::new(flatten(&OptStream::from_graph(&g), MatMulStrategy::Unrolled).unwrap())
    }

    #[test]
    fn ramp_through_gain() {
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add G(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter G { work pop 1 push 1 { push(3 * pop()); } }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        e.run_until_outputs(4).unwrap();
        assert_eq!(&e.printed()[..4], &[0.0, 3.0, 6.0, 9.0]);
        assert!(e.ops().mults() >= 4);
    }

    #[test]
    fn peeking_filter_sees_lookahead() {
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add D(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter D {
                 work peek 2 pop 1 push 1 { push(peek(1) - peek(0)); pop(); }
             }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        e.run_until_outputs(3).unwrap();
        assert_eq!(&e.printed()[..3], &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn splitjoin_round_trip() {
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add SJ(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float splitjoin SJ {
                 split duplicate;
                 add G(10.0); add G(100.0);
                 join roundrobin;
             }
             float->float filter G(float k) { work pop 1 push 1 { push(k * pop()); } }
             float->void filter K { work pop 2 { println(pop()); println(pop()); } }",
        );
        e.run_until_outputs(4).unwrap();
        assert_eq!(&e.printed()[..4], &[0.0, 0.0, 10.0, 100.0]);
    }

    #[test]
    fn feedback_accumulator() {
        // y[n] = x[n] + y[n-1] via a feedback loop around an adder.
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add FB(); add K(); }
             void->float filter S { float x; work push 1 { x = x + 1; push(x); } }
             float->void filter K { work pop 1 { println(pop()); } }
             float->float feedbackloop FB {
                 join roundrobin(1, 1);
                 body Adder();
                 loop Id();
                 split duplicate;
                 enqueue 0;
             }
             float->float filter Adder { work pop 2 push 1 { push(pop() + pop()); } }
             float->float filter Id { work pop 1 push 1 { push(pop()); } }",
        );
        e.run_until_outputs(4).unwrap();
        // x = 1,2,3,4 -> running sums 1,3,6,10
        assert_eq!(&e.printed()[..4], &[1.0, 3.0, 6.0, 10.0]);
    }

    #[test]
    fn rate_violation_is_reported() {
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add K(); }
             void->float filter S { float x; work push 2 { push(x); if (x > 0.5) push(x); x = x + 1; } }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let err = e.run_until_outputs(1).unwrap_err();
        assert!(matches!(err, RunError::RateViolation(_)), "{err}");
    }

    #[test]
    fn deadlock_is_detected() {
        // A feedback loop with no enqueued items can never fire.
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add FB(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->void filter K { work pop 1 { println(pop()); } }
             float->float feedbackloop FB {
                 join roundrobin(1, 1);
                 body Adder();
                 loop Id();
                 split duplicate;
             }
             float->float filter Adder { work pop 2 push 1 { push(pop() + pop()); } }
             float->float filter Id { work pop 1 push 1 { push(pop()); } }",
        );
        let err = e.run_until_outputs(1).unwrap_err();
        assert!(matches!(err, RunError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn init_work_phase_runs_once() {
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add P(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter P {
                 initWork pop 2 push 1 { push(pop() + pop()); }
                 work pop 1 push 1 { push(pop()); }
             }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        e.run_until_outputs(3).unwrap();
        // First firing consumes 0,1 -> 1; then identity: 2, 3.
        assert_eq!(&e.printed()[..3], &[1.0, 2.0, 3.0]);
    }
}
