//! Static steady-state execution plans (the schedule compiler).
//!
//! StreamIt programs run under a schedule resolved entirely at compile
//! time (§2.1 of the paper): the balance equations give every node a fixed
//! repetition count per steady-state cycle, an initialization phase
//! satisfies peek prologues and `initWork` phases, and channel occupancies
//! are periodic — so buffer sizes are known exactly before the first item
//! flows. This module compiles a [`crate::flat::FlatGraph`] into that
//! form:
//!
//! * [`compile`] solves the flat balance equations (via
//!   [`streamlin_graph::steady::balance`]), topologically orders the
//!   nodes, derives an **init schedule** (extra upstream firings that build
//!   up each consumer's `peek − pop` lookahead slack, plus every firing
//!   whose rates differ from the steady phase, e.g. `initWork`), then
//!   symbolically executes init + one steady cycle to compute **exact
//!   per-channel capacities** — yielding an [`ExecPlan`].
//! * **Feedback loops** are scheduled from their enqueued items, as
//!   StreamIt does. The channel a loop's `enqueue`s seed (flattening lists
//!   it in [`FlatGraph::initial`] even when a loop enqueues nothing) is its
//!   back edge, and the topological order ignores it. A graph with a back
//!   edge derives its init phase demand-driven too, and fires the nodes on
//!   a loop one at a time, so a loop's items circulate: DToA's low-pass
//!   filter below its loop needs 255 items of slack, 255 trips around the
//!   loop on one enqueued item. A loop whose items cannot keep it supplied
//!   is [`PlanError::Shortfall`], naming its joiner and the missing items.
//! * The steady cycle is linearised **twice**. [`ExecPlan::steady`], the
//!   *stepped* order, pulls each sink one firing at a time and defines
//!   where a run stops: at the firing that crosses the requested output
//!   count. [`ExecPlan::cycle`] fires every node once with all its
//!   repetitions in one batch. Cutting a deterministic node's firings into
//!   different batches changes nothing it computes, so the two orders
//!   leave every ring, every node and the firing count identical at the
//!   cycle boundary; only a stop *inside* the cycle could tell them apart.
//! * [`PlanEngine`] executes a plan over [`crate::ring::RingSet`] ring
//!   buffers in one contiguous slab: no readiness polling, no `VecDeque`
//!   shuffling, no per-firing window allocation. Consecutive firings of a
//!   linear node become one blocked multiply
//!   ([`crate::linear_exec::LinearExec::fire_batch`]), of a splitter or
//!   joiner one slice move per channel. At a cycle boundary it takes the
//!   cycle order while `printed + prints_per_cycle < n` — the cycle cannot
//!   contain the stop — and the stepped order otherwise, so firing counts,
//!   tallies and overshoot at every stop are the stepped order's.
//! * A **pass** runs [`ExecPlan::passes`] cycles in the cycle order at
//!   once, every step's firings multiplied, so a single-rate kernel fires
//!   a batch of many cycles instead of one. The engine takes a pass while
//!   all its prints fall short of `n`, by the same strict rule, before
//!   single cycles; its high-water marks are part of the capacities. There
//!   is nothing to tune: the plan fixes the pass, and the engine decides
//!   from `n`.
//!
//! Graphs the compiler cannot schedule — an under-supplied loop, zero-rate
//! channels, or inconsistent rates — are [`PlanError`]s, which every
//! caller reports as a compile error.
//!
//! What one firing of each node kind peeks, pops and pushes is written
//! once, in `node_rates` (a steady phase, plus a distinct first phase for
//! `initWork` and frequency priming). It is the one
//! rate table: the balance equations, the init derivation and the symbolic
//! execution here read it, and so do partitioning, the pipeline executor
//! and the data-driven engine's readiness test.
//!
//! The firing *semantics* are shared with the data-driven reference
//! [`crate::engine::Engine`] (same slot-resolved work-function interpreter
//! via [`crate::engine::fire_interp`], same kernels, same operation
//! counting), so a program prints the same bits under either; every
//! equivalence suite holds the plan to that reference.

use std::sync::Arc;

use streamlin_graph::steady::{balance, RateEdge};
use streamlin_support::{OpCounter, Recorder, Tally};

use crate::engine::{fire_interp, init_pending, interp_phase_rates, RunError};
use crate::flat::{FlatGraph, FlatNode, NodeKind};
use crate::ring::RingSet;

/// Per-channel capacity bound, for plans and the data-driven engine alike.
pub(crate) const CAP_LIMIT: u64 = 1 << 24;
/// Bound on the whole slab, across all channels.
const SLAB_LIMIT: u64 = 1 << 26;
/// Bound on firings per steady cycle (keeps plans and runs tractable).
const FIRINGS_LIMIT: u64 = 1 << 26;
/// Values a pass of the cycle order aims to print: a plan runs the
/// smallest power of two of cycles per pass that prints at least this many.
const PASS_PRINTS: usize = 64;
/// Buffer slots a pass may add to what one cycle in either order needs.
const PASS_SLOTS: u64 = 1 << 16;

/// Why a graph has no static plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A feedback loop's enqueued items cannot keep it supplied: which
    /// joiner ran dry, and how many items it needed enqueued.
    Shortfall(String),
    /// The balance equations have no consistent solution.
    Unschedulable(String),
    /// The plan exists but exceeds implementation bounds.
    TooLarge(String),
    /// A structural invariant of flattening is violated.
    Malformed(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Shortfall(m) => write!(f, "feedback loop {m}"),
            PlanError::Unschedulable(m) => write!(f, "not statically schedulable: {m}"),
            PlanError::TooLarge(m) => write!(f, "plan exceeds bounds: {m}"),
            PlanError::Malformed(m) => write!(f, "malformed flat graph: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// `times` consecutive firings of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Node index in the flat graph.
    pub node: usize,
    /// Consecutive firings.
    pub times: u32,
}

/// `steady[start..start + len]`, run `times` times in a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeat {
    pub start: usize,
    pub len: usize,
    pub times: u32,
}

/// A compiled schedule: run `init` once, then repeat one steady cycle
/// forever, in either of its two orders. The step lists are immutable and
/// behind [`Arc`]s, so a clone — one per session opened on a compiled
/// artifact — shares them; where a session is in the schedule is the
/// engine's, not the plan's.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    /// Initialization firings (peek prologues, `initWork` phases).
    pub init: Arc<[Step]>,
    /// One steady-state cycle in the stepped order: sinks pulled one
    /// firing at a time. Where a run stops is defined on this order,
    /// with each of `repeats` unrolled ([`ExecPlan::stepped`]).
    pub steady: Arc<[Step]>,
    /// Blocks of `steady` that run several times in a row, sorted and
    /// disjoint. A loop fires one trip at a time, so its stepped order is
    /// one short block thousands of times over (DToA: 17 151 trips a
    /// cycle under `autosel`); an acyclic plan has none.
    pub repeats: Arc<[Repeat]>,
    /// The same cycle with every node once, all its firings in one batch,
    /// in topological order. Empty when there is none: a filter prints
    /// (`prints_per_cycle` is `None`) or the order exceeds the buffer
    /// bounds.
    pub cycle: Arc<[Step]>,
    /// Values one cycle prints; `None` when an interpreted filter prints,
    /// whose output per cycle depends on the data.
    pub prints_per_cycle: Option<usize>,
    /// Cycles one *pass* runs: the cycle order with every step's firings
    /// multiplied by this, so a node fires `passes` cycles' worth in one
    /// batch. The smallest power of two whose pass prints at least 64
    /// values, halved while the pass would add more than 65 536 buffer
    /// slots or exceed a bound; 1 without a cycle order.
    pub passes: u32,
    /// Exact per-channel capacity (the maximum occupancy over init plus
    /// one steady cycle in either order plus one pass — and therefore over
    /// the whole run).
    pub caps: Vec<usize>,
    /// Every node once, in the topological order the compiler computed
    /// (feedback back edges ignored): the order `cycle` follows and
    /// pipeline partitioning cuts.
    pub order: Vec<usize>,
}

impl ExecPlan {
    /// The stepped order, step by step, with every repeat unrolled.
    pub fn stepped(&self) -> impl Iterator<Item = Step> + '_ {
        let mut runs = Vec::with_capacity(2 * self.repeats.len() + 1);
        let mut at = 0;
        for r in self.repeats.iter() {
            runs.push((at..r.start, 1));
            runs.push((r.start..r.start + r.len, r.times));
            at = r.start + r.len;
        }
        runs.push((at..self.steady.len(), 1));
        runs.into_iter().flat_map(move |(steps, times)| {
            (0..times).flat_map(move |_| self.steady[steps.clone()].iter().copied())
        })
    }

    /// Firings per steady cycle.
    pub fn steady_firings(&self) -> u64 {
        self.stepped().map(|s| s.times as u64).sum()
    }

    /// Firings in the init phase.
    pub fn init_firings(&self) -> u64 {
        self.init.iter().map(|s| s.times as u64).sum()
    }

    /// Total buffer slots across all channels.
    pub fn buffer_slots(&self) -> usize {
        self.caps.iter().sum()
    }

    /// The step lists every clone of the plan shares, as identity and
    /// bytes.
    pub fn tables(&self) -> [(*const (), usize); 4] {
        fn table<T>(list: &Arc<[T]>) -> (*const (), usize) {
            (list.as_ptr().cast(), std::mem::size_of_val(&**list))
        }
        [
            table(&self.init),
            table(&self.steady),
            table(&self.repeats),
            table(&self.cycle),
        ]
    }

    /// One-line description for logs and the CLI; `flat` is the planned
    /// graph, to say what rules the cycle order out.
    pub fn summary(&self, flat: &FlatGraph) -> String {
        let cycle = match self.prints_per_cycle {
            Some(prints) if !self.cycle.is_empty() => {
                let (steps, k) = (self.cycle.len(), self.passes);
                let cycles = if k == 1 { "cycle" } else { "cycles" };
                format!("{steps} steps, {prints} outputs, {k} {cycles} per pass")
            }
            // A loop's items bound how many of its firings can run at once.
            Some(_) if !flat.initial.is_empty() => "none (feedback loop)".to_string(),
            Some(_) => "none (exceeds slab bound)".to_string(),
            None => {
                let printer = flat
                    .nodes
                    .iter()
                    .find(|n| prints(n))
                    .map_or("a filter", |n| &n.name);
                format!("none ({printer} prints)")
            }
        };
        format!(
            "{} init + {} steady firings/cycle over {} channels ({} buffer slots); \
             cycle order: {cycle}",
            self.init_firings(),
            self.steady_firings(),
            self.caps.len(),
            self.buffer_slots()
        )
    }
}

/// Whether a node prints a data-dependent number of values per firing.
fn prints(node: &FlatNode) -> bool {
    node.interp().is_some_and(|s| s.inst.lowered.prints)
}

/// `(peek, pop)` per input channel and pushes per output channel for one
/// firing phase of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Phase {
    pub(crate) in_peek: Vec<u64>,
    pub(crate) in_pop: Vec<u64>,
    pub(crate) out_push: Vec<u64>,
}

/// A node's rate signature: the steady phase, plus a distinct first-firing
/// phase when one exists (`initWork`, frequency priming).
#[derive(Debug, Clone)]
pub(crate) struct Rates {
    pub(crate) steady: Phase,
    pub(crate) first: Option<Phase>,
}

impl Rates {
    /// The phase of the node's next firing, given whether that is its
    /// first (the data-driven engine's readiness test reads it per poll).
    #[inline]
    pub(crate) fn phase(&self, first_firing: bool) -> &Phase {
        match (&self.first, first_firing) {
            (Some(f), true) => f,
            _ => &self.steady,
        }
    }

    fn has_distinct_first(&self) -> bool {
        self.first.as_ref().is_some_and(|f| *f != self.steady)
    }
}

fn phase_for(node: &FlatNode, peek: u64, pop: u64, push: u64) -> Phase {
    Phase {
        in_peek: node.inputs.iter().map(|_| peek.max(pop)).collect(),
        in_pop: node.inputs.iter().map(|_| pop).collect(),
        out_push: node.outputs.iter().map(|_| push).collect(),
    }
}

/// What one firing of `node` peeks, pops and pushes on each slot, in its
/// steady phase and in its first phase while that is still to come: the
/// one rate table (see the module docs).
pub(crate) fn node_rates(node: &FlatNode) -> Rates {
    match &node.kind {
        NodeKind::Interp(s) => {
            let w = &s.inst.work;
            let steady = phase_for(node, w.peek as u64, w.pop as u64, w.push as u64);
            let first = s
                .inst
                .init_work
                .as_ref()
                .filter(|_| s.first)
                .map(|iw| phase_for(node, iw.peek as u64, iw.pop as u64, iw.push as u64));
            Rates { steady, first }
        }
        NodeKind::Linear(exec) => {
            let n = exec.node();
            Rates {
                steady: phase_for(node, n.peek() as u64, n.pop() as u64, n.push() as u64),
                first: None,
            }
        }
        NodeKind::Redund(exec) => {
            let n = exec.spec().node();
            Rates {
                steady: phase_for(node, n.peek() as u64, n.pop() as u64, n.push() as u64),
                first: None,
            }
        }
        NodeKind::Freq(exec) => {
            let spec = exec.spec();
            let (peek, pop, push) = spec.work_rates();
            let steady = phase_for(node, peek as u64, pop as u64, push as u64);
            let first = spec
                .init_work_rates()
                .map(|(pe, po, pu)| phase_for(node, pe as u64, po as u64, pu as u64));
            Rates { steady, first }
        }
        NodeKind::Decimator { pop, push } => Rates {
            steady: phase_for(node, *pop as u64, *pop as u64, *push as u64),
            first: None,
        },
        NodeKind::Periodic { .. } => Rates {
            steady: phase_for(node, 0, 0, 1),
            first: None,
        },
        NodeKind::PrintSink { pop } | NodeKind::DiscardSink { pop } => Rates {
            steady: phase_for(node, *pop as u64, *pop as u64, 0),
            first: None,
        },
        NodeKind::Duplicate => Rates {
            steady: Phase {
                in_peek: vec![1],
                in_pop: vec![1],
                out_push: vec![1; node.outputs.len()],
            },
            first: None,
        },
        NodeKind::SplitRR(w) => Rates {
            steady: Phase {
                in_peek: vec![w.iter().map(|&x| x as u64).sum()],
                in_pop: vec![w.iter().map(|&x| x as u64).sum()],
                out_push: w.iter().map(|&x| x as u64).collect(),
            },
            first: None,
        },
        NodeKind::JoinRR(w) => Rates {
            steady: Phase {
                in_peek: w.iter().map(|&x| x as u64).collect(),
                in_pop: w.iter().map(|&x| x as u64).collect(),
                out_push: vec![w.iter().map(|&x| x as u64).sum()],
            },
            first: None,
        },
    }
}

/// Items a batch of `k` firings needs buffered on input slot `s` before it
/// starts (the peak of `consumed-so-far + peek` over the batch).
pub(crate) fn batch_need(rates: &Rates, first_firing: bool, k: u64, s: usize) -> u64 {
    if k == 0 {
        return 0;
    }
    let fp = rates.phase(first_firing);
    let sp = &rates.steady;
    let mut need = fp.in_peek[s];
    if k >= 2 {
        need = need.max(fp.in_pop[s] + (k - 2) * sp.in_pop[s] + sp.in_peek[s]);
    }
    need
}

/// Items a batch of `k` firings pops from input slot `s` in total.
pub(crate) fn batch_pop(rates: &Rates, first_firing: bool, k: u64, s: usize) -> u64 {
    if k == 0 {
        return 0;
    }
    let fp = rates.phase(first_firing);
    fp.in_pop[s] + (k - 1) * rates.steady.in_pop[s]
}

/// Items a batch of `k` firings pushes to output slot `s` in total.
pub(crate) fn batch_push(rates: &Rates, first_firing: bool, k: u64, s: usize) -> u64 {
    if k == 0 {
        return 0;
    }
    let fp = rates.phase(first_firing);
    fp.out_push[s] + (k - 1) * rates.steady.out_push[s]
}

/// Minimal firings of a producer (whose first firing may still be pending
/// when `fired` is false) so that its pushes on output slot `s` cover
/// `deficit` items. `None` when no number of firings can (zero steady
/// push). Shared by the init-phase derivation and the demand-driven steady
/// generator so the two can never disagree.
fn fires_to_cover(rates: &Rates, fired: bool, s: usize, deficit: u64) -> Option<u64> {
    debug_assert!(deficit > 0, "no firings needed for a zero deficit");
    let first_push = rates.phase(!fired).out_push[s];
    let steady_push = rates.steady.out_push[s];
    if first_push >= deficit {
        Some(1)
    } else if steady_push == 0 {
        None
    } else {
        Some(1 + (deficit - first_push).div_ceil(steady_push))
    }
}

/// Compiles a flat graph into a static execution plan.
///
/// # Errors
///
/// See [`PlanError`].
pub fn compile(flat: &FlatGraph) -> Result<ExecPlan, PlanError> {
    let n = flat.nodes.len();
    let rates: Vec<Rates> = flat.nodes.iter().map(node_rates).collect();

    // Channel endpoints: (node, slot) of the producer and the consumer.
    let mut prod: Vec<Option<(usize, usize)>> = vec![None; flat.num_channels];
    let mut cons: Vec<Option<(usize, usize)>> = vec![None; flat.num_channels];
    for (i, node) in flat.nodes.iter().enumerate() {
        for (s, &c) in node.outputs.iter().enumerate() {
            if prod[c].replace((i, s)).is_some() {
                return Err(PlanError::Malformed(format!(
                    "channel {c} has two producers"
                )));
            }
        }
        for (s, &c) in node.inputs.iter().enumerate() {
            if cons[c].replace((i, s)).is_some() {
                return Err(PlanError::Malformed(format!(
                    "channel {c} has two consumers"
                )));
            }
        }
    }
    let mut edges = Vec::with_capacity(flat.num_channels);
    let mut endpoints = Vec::with_capacity(flat.num_channels);
    for c in 0..flat.num_channels {
        let (p, ps) =
            prod[c].ok_or_else(|| PlanError::Malformed(format!("channel {c} has no producer")))?;
        let (q, qs) =
            cons[c].ok_or_else(|| PlanError::Malformed(format!("channel {c} has no consumer")))?;
        edges.push(RateEdge {
            from: p,
            to: q,
            push: rates[p].steady.out_push[ps],
            pop: rates[q].steady.in_pop[qs],
        });
        endpoints.push(((p, ps), (q, qs)));
    }
    let name = |i: usize| flat.nodes[i].name.clone();
    if let Some(e) = edges.iter().find(|e| e.push == 0 || e.pop == 0) {
        return Err(PlanError::Unschedulable(format!(
            "channel `{}` -> `{}` has a zero steady rate",
            name(e.from),
            name(e.to)
        )));
    }

    // Repetition vector.
    let reps = balance(n, &edges).map_err(|e| PlanError::Unschedulable(e.render(name)))?;
    let total: u64 = reps.iter().sum();
    if total > FIRINGS_LIMIT || reps.iter().any(|&q| q > u32::MAX as u64) {
        return Err(PlanError::TooLarge(format!(
            "{total} firings per steady cycle"
        )));
    }

    // Feedback back edges: the channels a loop's enqueued items seed.
    let mut back = vec![false; flat.num_channels];
    let mut initial_items = vec![0u64; flat.num_channels];
    for (c, items) in &flat.initial {
        back[*c] = true;
        initial_items[*c] = items.len() as u64;
    }

    // Topological order (Kahn) with back edges ignored; a leftover node is
    // on a cycle that no back edge breaks.
    let mut indeg = vec![0usize; n];
    for (ei, e) in edges.iter().enumerate() {
        indeg[e.to] += usize::from(!back[ei]);
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut topo = Vec::with_capacity(n);
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ei, e) in edges.iter().enumerate() {
        out_edges[e.from].push(ei);
    }
    while let Some(i) = ready.pop() {
        topo.push(i);
        for &ei in out_edges[i].iter().filter(|&&ei| !back[ei]) {
            let t = edges[ei].to;
            indeg[t] -= 1;
            if indeg[t] == 0 {
                ready.push(t);
            }
        }
    }
    if topo.len() != n {
        return Err(PlanError::Malformed("a cycle has no back edge".into()));
    }

    // Symbolic execution of init + one steady cycle: validates the
    // schedule and records each channel's exact maximum occupancy.
    //
    // An acyclic graph's init phase runs topo-batched (a one-time cost);
    // a graph with a loop derives it demand-driven (see [`Sim::prime`]).
    // The steady cycle is linearised twice. The *stepped* order is
    // demand-driven: sinks are pulled one firing at a time, each pull
    // firing producers in the largest batch that covers the remaining
    // demand (one firing at a time on a loop) — the fine
    // interleaving the data-driven engine discovers at run time. It is the
    // stop rule: a run ends at the firing of this order that crosses the
    // requested output count, never a whole cycle past it (frequency-heavy
    // graphs emit thousands of outputs per cycle). The *cycle* order fires
    // every node once, all its repetitions in one batch; it is the
    // throughput path, and the engine takes it only for a cycle that
    // cannot contain the stop (see [`PlanEngine::run`]).
    let mut sim = Sim {
        flat,
        rates: &rates,
        prod: &prod,
        back: &back,
        on_loop: on_loops(flat, &endpoints, &back),
        occ: initial_items.clone(),
        max_occ: initial_items,
        fired: vec![false; n],
        active: vec![false; n],
        frames: Vec::new(),
        budget: vec![0; n],
        seq: Vec::new(),
        replays: !flat.initial.is_empty(),
        log: Vec::new(),
        logged: 0,
        delta: vec![0; flat.num_channels],
        peak: vec![None; flat.num_channels],
        fires: vec![0; n],
    };
    if flat.initial.is_empty() {
        // Init repetition counts, consumers before producers: every node
        // whose first firing has distinct rates must fire during init; a
        // producer fires enough extra times to cover its consumers' init
        // consumption plus their steady lookahead slack (peek − pop).
        for &j in topo.iter().rev() {
            let mut k = u64::from(rates[j].has_distinct_first());
            for &ei in &out_edges[j] {
                let ((_, ps), (q, qs)) = endpoints[ei];
                let init_fires = sim.budget[q];
                let slack = rates[q].steady.in_peek[qs] - rates[q].steady.in_pop[qs];
                let consumed = batch_pop(&rates[q], true, init_fires, qs);
                let needed_on_chan =
                    batch_need(&rates[q], true, init_fires, qs).max(consumed + slack);
                if needed_on_chan == 0 {
                    continue;
                }
                // Minimal fires of j so its (first + steady) pushes cover it.
                let fires =
                    fires_to_cover(&rates[j], false, ps, needed_on_chan).ok_or_else(|| {
                        PlanError::Unschedulable(format!(
                            "node {} cannot supply its consumer's init prologue",
                            flat.nodes[j].name
                        ))
                    })?;
                k = k.max(fires);
            }
            if k > u32::MAX as u64 {
                return Err(PlanError::TooLarge("init phase too long".into()));
            }
            sim.budget[j] = k;
        }
        for &i in &topo {
            let k = sim.budget[i];
            if k > 0 {
                sim.fire_batch(i, k)?;
            }
        }
    } else {
        sim.prime(&topo)?;
    }
    let init = std::mem::take(&mut sim.seq);
    let post_init = sim.occ.clone();
    sim.budget.copy_from_slice(&reps);
    let sinks: Vec<usize> = (0..n)
        .filter(|&i| flat.nodes[i].outputs.is_empty())
        .collect();
    if sinks.is_empty() {
        return Err(PlanError::Unschedulable("graph has no sink".into()));
    }
    let mut again = None;
    loop {
        let mut any = false;
        for &s in &sinks {
            if sim.budget[s] > 0 {
                sim.pull(s, 1, &mut again)?;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    // Nodes whose output the sinks drew from *buffered* slack (built up by
    // the init phase) still owe firings this cycle: replenish in topo
    // order so every channel returns to its periodic occupancy.
    for &i in &topo {
        while sim.budget[i] > 0 {
            let k = if sim.on_loop[i] { 1 } else { sim.budget[i] };
            sim.pull(i, k, &mut again)?;
        }
    }
    if let Some(i) = (0..n).find(|&i| sim.budget[i] > 0) {
        return Err(PlanError::Unschedulable(format!(
            "node {} has {} unconsumed firings per cycle",
            flat.nodes[i].name, sim.budget[i]
        )));
    }
    if sim.occ != post_init {
        return Err(PlanError::Unschedulable(
            "steady cycle does not restore channel occupancies".into(),
        ));
    }
    if sim.max_occ.iter().sum::<u64>() > SLAB_LIMIT {
        return Err(PlanError::TooLarge(
            "total buffering exceeds the slab bound".into(),
        ));
    }
    let steady = std::mem::take(&mut sim.seq);
    let (steady, repeats) = match flat.initial.is_empty() {
        true => (steady, Vec::new()),
        false => fold_repeats(steady),
    };

    // The cycle order, from the same post-init state (every node whose
    // first firing differs has fired by then, so `fired` stands as it is).
    // It costs buffer space (a producer's whole cycle is in flight at
    // once), so a graph it would push past the bounds keeps the stepped
    // order alone.
    let prints_per_cycle = (!flat.nodes.iter().any(prints)).then(|| {
        let printed = |(node, &q): (&FlatNode, &u64)| match node.kind {
            NodeKind::PrintSink { pop } => q as usize * pop,
            _ => 0,
        };
        flat.nodes.iter().zip(&reps).map(printed).sum()
    });
    let stepped_occ = sim.max_occ.clone();
    sim.budget.copy_from_slice(&reps);
    let whole = prints_per_cycle.is_some()
        && topo.iter().all(|&i| sim.fire_batch(i, reps[i]).is_ok())
        && sim.occ == post_init
        && sim.max_occ.iter().sum::<u64>() <= SLAB_LIMIT;
    if !whole {
        sim.seq.clear();
        sim.max_occ = stepped_occ;
    }
    let cycle = steps(std::mem::take(&mut sim.seq));
    let passes = match prints_per_cycle {
        Some(prints) if whole => sim.passes(&cycle, prints, total),
        _ => 1,
    };
    Ok(ExecPlan {
        init: steps(init),
        steady: steps(steady),
        repeats: repeats.into(),
        cycle,
        prints_per_cycle,
        passes,
        caps: sim.max_occ.into_iter().map(|v| v as usize).collect(),
        order: topo,
    })
}

/// The recorded `(node, times)` pairs as [`Step`]s.
fn steps(seq: Vec<(u32, u32)>) -> Arc<[Step]> {
    let step = |(node, times): (u32, u32)| Step {
        node: node as usize,
        times,
    };
    seq.into_iter().map(step).collect()
}

/// Folds every run of identical consecutive blocks of `steps` (of the
/// shortest length, at most 32 steps, that repeats there) into one block
/// and a [`Repeat`]; unrolling the repeats gives `steps` back.
fn fold_repeats<T: Copy + PartialEq>(steps: Vec<T>) -> (Vec<T>, Vec<Repeat>) {
    let (mut kept, mut repeats) = (Vec::new(), Vec::new());
    let mut rest = &steps[..];
    while !rest.is_empty() {
        let copies = |len| {
            let block = &rest[..len];
            1 + rest[len..]
                .chunks_exact(len)
                .take_while(|c| *c == block)
                .count()
        };
        let (len, times) = (1..=32.min(rest.len()))
            .map(|len| (len, copies(len)))
            .find(|&(_, times)| times > 1)
            .unwrap_or((1, 1));
        if times > 1 {
            let (start, times) = (kept.len(), times as u32);
            repeats.push(Repeat { start, len, times });
        }
        kept.extend_from_slice(&rest[..len]);
        rest = &rest[len * times..];
    }
    (kept, repeats)
}

/// `((producer, output slot), (consumer, input slot))` of one channel.
type Endpoints = ((usize, usize), (usize, usize));

/// Which nodes lie on a feedback loop: those a back edge's consumer
/// reaches that reach its producer.
fn on_loops(flat: &FlatGraph, endpoints: &[Endpoints], back: &[bool]) -> Vec<bool> {
    let reach = |from: usize| {
        let mut seen = vec![false; flat.nodes.len()];
        let mut stack = vec![from];
        while let Some(i) = stack.pop() {
            if !std::mem::replace(&mut seen[i], true) {
                stack.extend(flat.nodes[i].outputs.iter().map(|&c| endpoints[c].1 .0));
            }
        }
        seen
    };
    let mut on = vec![false; flat.nodes.len()];
    for c in (0..back.len()).filter(|&c| back[c]) {
        let ((p, _), (q, _)) = endpoints[c];
        for (i, ahead) in reach(q).into_iter().enumerate() {
            on[i] |= ahead && reach(i)[p];
        }
    }
    on
}

/// Bound on the pulls in progress at once (the simulator's stack depth).
const DEPTH_LIMIT: usize = 100_000;
/// Events a block may hold and still be replayed.
const BLOCK_LIMIT: usize = 256;

/// Symbolic executor used by [`compile`]: tracks occupancies, firing
/// budgets and high-water marks while recording the firing sequence.
///
/// A pull is demand-driven: the pulled node waits until each input holds
/// what its batch needs, pulling producers in turn, then fires. The pulls
/// in progress are an explicit stack (`frames`), so how deep demand runs
/// is bounded by [`DEPTH_LIMIT`], not by the thread's stack.
///
/// In a graph with a feedback loop, whose nodes fire one at a time, a
/// pull's every decision — comparisons of channel levels with needs, and
/// budgets — is logged with the firings it led to.
/// When a node pulls the same producer again — or the top level the same
/// node — the simulator holds the last pull's block of events against
/// the state it is in now: a channel the block moves by a net `Δ` reads `Δ`
/// higher at each repetition, so each logged comparison stays true for a
/// computable number of repetitions. That many are appended as they are,
/// with their net occupancy, budget and high-water changes applied at once;
/// the first repetition some comparison would decide differently runs as
/// an ordinary pull. A repeated pull of a deterministic schedule is the
/// same function of the same state, so the firing sequence, capacities and
/// errors are exactly the unreplayed ones.
struct Sim<'a> {
    flat: &'a FlatGraph,
    rates: &'a [Rates],
    /// Per channel: `(producer node, output slot)`.
    prod: &'a [Option<(usize, usize)>],
    /// Per channel: whether it is a feedback loop's back edge.
    back: &'a [bool],
    /// Per node: whether it lies on a loop, and so is pulled one firing at
    /// a time (a batch would ask the loop for items it has yet to
    /// circulate).
    on_loop: Vec<bool>,
    occ: Vec<u64>,
    max_occ: Vec<u64>,
    fired: Vec<bool>,
    /// Per node: waiting for its inputs, so a demand reaching it again has
    /// gone around a loop.
    active: Vec<bool>,
    /// The pulls in progress, innermost last.
    frames: Vec<Frame>,
    budget: Vec<u64>,
    /// The firings recorded so far, as `(node, times)`: a [`Step`] in half
    /// its bytes. A loop's stepped order runs to tens of thousands of steps
    /// before it is folded (DToA: 85 927), and held as `Step`s it raised
    /// `daemon_churn`'s peak RSS by 3 % (x86-64 Linux, glibc). Every node
    /// fires in a cycle, so [`FIRINGS_LIMIT`] bounds the node count far
    /// below `u32::MAX`.
    seq: Vec<(u32, u32)>,
    /// Whether pulls are logged and replayed: in a graph with a feedback
    /// loop, whose nodes a pull fires one at a time. Elsewhere a pull fires
    /// each producer in the batch that covers its deficit, so pulls seldom
    /// repeat, and logging them costs more than replaying saves.
    replays: bool,
    /// The latest events, `log[0]` being event number `logged`: at least
    /// the last [`BLOCK_LIMIT`], unless a replay cleared them.
    log: Vec<Event>,
    logged: usize,
    /// Scratch for [`Sim::replay`], all zero between calls: net change
    /// per channel and per node firings over a block, and the channels'
    /// highest level after a push relative to the block's start.
    delta: Vec<i64>,
    peak: Vec<Option<i64>>,
    fires: Vec<u64>,
}

/// A pull in progress: `node` is waiting until input `slot` holds what
/// `need` asks of it, slot by slot.
#[derive(Clone, Copy)]
struct Frame {
    node: usize,
    slot: usize,
    need: Need,
    /// Where, in events, the pull this frame is waiting on began.
    began: usize,
    /// The events of the pull this frame just finished, which its next
    /// pull may repeat.
    again: Option<Block>,
}

/// What a frame asks of its inputs.
#[derive(Clone, Copy)]
enum Need {
    /// Enough for a batch of `k` firings (`first`: the first of them is
    /// the node's first), which follows.
    Batch { k: u64, first: bool },
    /// Its lookahead slack, `peek − pop` (the init phase of a loop).
    Slack,
}

impl Need {
    fn on(self, rates: &Rates, s: usize) -> u64 {
        match self {
            Need::Batch { k, first } => batch_need(rates, first, k, s),
            Need::Slack => rates.steady.in_peek[s] - rates.steady.in_pop[s],
        }
    }
}

/// Event numbers `start..end`.
type Block = (usize, usize);

/// What the simulator logs: each comparison a pull is decided on, and each
/// firing.
#[derive(Clone, Copy)]
enum Event {
    /// `chan` held `level` where `need` was wanted, which `pulled` its
    /// producer, or not.
    Decide {
        chan: usize,
        level: u64,
        need: u64,
        pulled: Pulled,
    },
    /// `node` fired `k` times; `first`: the first was its first.
    Fire { node: usize, k: u64, first: bool },
}

#[derive(Clone, Copy)]
enum Pulled {
    /// The level sufficed.
    No,
    /// One firing of a producer on a loop, whatever the deficit.
    One,
    /// `times` firings of a producer pushing `push` a firing: as many as
    /// cover the deficit.
    Cover { times: u64, push: u64 },
}

impl Sim<'_> {
    /// The init phase of a graph with a feedback loop, demand-driven:
    /// consumers before producers, each node fires its distinct first
    /// firing (if any) and has its inputs filled to their lookahead slack
    /// (`peek − pop`). A firing needs `peek` items and leaves `peek − pop`,
    /// so no later pull takes a channel below its slack: one pass fills
    /// them all, and how often each node fires falls out of the demand.
    fn prime(&mut self, topo: &[usize]) -> Result<(), PlanError> {
        self.budget.fill(u64::MAX);
        for &q in topo.iter().rev() {
            if self.rates[q].has_distinct_first() && !self.fired[q] {
                self.pull(q, 1, &mut None)?;
            }
            self.push_frame(q, Need::Slack);
            self.drive()?;
        }
        Ok(())
    }

    /// Cycles per pass for a plan whose cycle order is `cycle` and prints
    /// `prints` values a cycle, with `total` firings a cycle (see
    /// [`ExecPlan::passes`]). Starts from the post-init state (where the
    /// cycle order leaves it) and leaves the chosen pass's high-water
    /// marks folded into `max_occ`; a pass, like a cycle, restores every
    /// occupancy.
    fn passes(&mut self, cycle: &[Step], prints: usize, total: u64) -> u32 {
        if prints == 0 {
            return 1; // no pass prints anything: one cycle at a time
        }
        let (occ, max_occ) = (self.occ.clone(), self.max_occ.clone());
        let slots = max_occ.iter().sum::<u64>();
        self.budget.fill(u64::MAX);
        let mut k = PASS_PRINTS.div_ceil(prints).next_power_of_two() as u64;
        while k > 1 {
            let fits = k * total <= FIRINGS_LIMIT
                && cycle.iter().all(|s| s.times as u64 * k <= u32::MAX as u64)
                && cycle
                    .iter()
                    .all(|s| self.fire_batch(s.node, s.times as u64 * k).is_ok())
                && self.occ == occ
                && self.max_occ.iter().sum::<u64>() <= SLAB_LIMIT.min(slots + PASS_SLOTS);
            self.seq.clear();
            if fits {
                return k as u32;
            }
            self.occ.clone_from(&occ);
            self.max_occ.clone_from(&max_occ);
            k /= 2;
        }
        1
    }

    /// Fires node `i` exactly `k` consecutive times, assuming its inputs
    /// are already buffered (the init phase, and the end of a pull).
    fn fire_batch(&mut self, i: usize, k: u64) -> Result<(), PlanError> {
        let first = !self.fired[i];
        let node = &self.flat.nodes[i];
        for (s, &c) in node.inputs.iter().enumerate() {
            let need = batch_need(&self.rates[i], first, k, s);
            if self.occ[c] < need {
                return Err(PlanError::Unschedulable(format!(
                    "node {} needs {need} items buffered but only {} arrive",
                    node.name, self.occ[c]
                )));
            }
            self.occ[c] -= batch_pop(&self.rates[i], first, k, s);
        }
        for (s, &c) in node.outputs.iter().enumerate() {
            self.occ[c] += batch_push(&self.rates[i], first, k, s);
            self.max_occ[c] = self.max_occ[c].max(self.occ[c]);
            if self.occ[c] > CAP_LIMIT {
                return Err(PlanError::TooLarge(format!(
                    "channel of {} needs {} items buffered",
                    node.name, self.occ[c]
                )));
            }
        }
        if self.budget[i] < k {
            return Err(PlanError::Unschedulable(format!(
                "node {} is demanded beyond its repetition count",
                node.name
            )));
        }
        self.budget[i] -= k;
        self.fired[i] = true;
        self.record(i, k);
        self.log(Event::Fire { node: i, k, first });
        Ok(())
    }

    /// Appends `k` firings of node `i` to the sequence.
    fn record(&mut self, i: usize, k: u64) {
        match self.seq.last_mut() {
            Some((node, times))
                if *node as usize == i && (*times as u64 + k) <= u32::MAX as u64 =>
            {
                *times += k as u32;
            }
            _ => self.seq.push((i as u32, k as u32)),
        }
    }

    /// Fires node `i` in a batch of `k` from the top level, first pulling
    /// every producer whose channel lacks the items the batch needs.
    /// `again` holds the block of the top-level pull just before: when it
    /// was this same pull, its repetitions are replayed first, and the
    /// pull itself runs only if `i` has budget left.
    fn pull(
        &mut self,
        i: usize,
        k: u64,
        again: &mut Option<(usize, u64, Block)>,
    ) -> Result<(), PlanError> {
        if let Some((_, _, block)) = again.take().filter(|a| (a.0, a.1) == (i, k)) {
            if self.replay(block) && self.budget[i] == 0 {
                return Ok(());
            }
        }
        let began = self.events();
        self.enter(i, k)?;
        self.drive()?;
        *again = self.block_from(began).map(|block| (i, k, block));
        Ok(())
    }

    /// Starts a pull of node `i` for a batch of `k`.
    fn enter(&mut self, i: usize, k: u64) -> Result<(), PlanError> {
        if self.active[i] {
            return Err(self.shortfall());
        }
        if self.frames.len() > DEPTH_LIMIT {
            return Err(PlanError::TooLarge("pull recursion too deep".into()));
        }
        let first = !self.fired[i];
        self.push_frame(i, Need::Batch { k, first });
        Ok(())
    }

    /// A demand went around a loop and back to a node still waiting for its
    /// inputs: the innermost back edge on the way ran dry.
    fn shortfall(&self) -> PlanError {
        let dry = self.frames.iter().rev().find_map(|f| {
            let c = self.flat.nodes[f.node].inputs[f.slot];
            self.back[c].then_some((f.node, c, f.need.on(&self.rates[f.node], f.slot)))
        });
        let (joiner, c, need) = dry.expect("a cycle has a back edge");
        let has = self.flat.initial.iter().find(|(b, _)| *b == c);
        let has = has.map_or(0, |(_, items)| items.len() as u64);
        let (at, needs) = (&self.flat.nodes[joiner].name, has + need - self.occ[c]);
        let why = format!("at `{at}` (node {joiner}) needs {needs} enqueued item(s), has {has}");
        PlanError::Shortfall(why)
    }

    /// Makes node `i` wait for its inputs, from its first.
    fn push_frame(&mut self, i: usize, need: Need) {
        self.active[i] = true;
        self.frames.push(Frame {
            node: i,
            slot: 0,
            need,
            began: 0,
            again: None,
        });
    }

    /// Runs the pulls on the stack to completion. The top frame either
    /// has every input supplied — it fires, and its parent may repeat the
    /// block that took — or replays its last pull's repetitions, or finds
    /// its current input short and pulls the producer, in the largest
    /// batch that covers the deficit (one firing on a loop). While a node
    /// waits it is active, so it cannot fire, and what it needs stays put;
    /// every pull raises the channel's occupancy (or spends a producer's
    /// first firing), so the stack empties.
    fn drive(&mut self) -> Result<(), PlanError> {
        while let Some(top) = self.frames.len().checked_sub(1) {
            let Frame {
                node: i,
                slot: s,
                need,
                ..
            } = self.frames[top];
            let Some(&c) = self.flat.nodes[i].inputs.get(s) else {
                self.frames.pop();
                self.active[i] = false;
                if let Need::Batch { k, .. } = need {
                    self.fire_batch(i, k)?;
                }
                if let (true, Some(parent)) = (self.replays, self.frames.last()) {
                    let block = self.block_from(parent.began);
                    self.frames[top - 1].again = block;
                }
                continue;
            };
            if let Some(block) = self.frames[top].again.take() {
                if self.replay(block) {
                    continue;
                }
            }
            let (level, want) = (self.occ[c], need.on(&self.rates[i], s));
            if level >= want {
                let pulled = Pulled::No;
                self.log(Event::Decide {
                    chan: c,
                    level,
                    need: want,
                    pulled,
                });
                self.frames[top].slot = s + 1;
                continue;
            }
            let (p, ps) = self.prod[c].expect("validated above");
            let (t, pulled) = match self.on_loop[p] {
                true => (1, Pulled::One),
                false => {
                    let t = fires_to_cover(&self.rates[p], self.fired[p], ps, want - level);
                    let t = t.ok_or_else(|| {
                        PlanError::Unschedulable(format!(
                            "node {} cannot supply {}",
                            self.flat.nodes[p].name, self.flat.nodes[i].name
                        ))
                    })?;
                    let push = self.rates[p].steady.out_push[ps];
                    (t, Pulled::Cover { times: t, push })
                }
            };
            self.frames[top].began = self.events();
            self.log(Event::Decide {
                chan: c,
                level,
                need: want,
                pulled,
            });
            self.enter(p, t)?;
        }
        Ok(())
    }

    /// Events logged so far.
    fn events(&self) -> usize {
        self.logged + self.log.len()
    }

    fn log(&mut self, event: Event) {
        if !self.replays {
            return;
        }
        if self.log.len() == 2 * BLOCK_LIMIT {
            self.log.drain(..BLOCK_LIMIT);
            self.logged += BLOCK_LIMIT;
        }
        self.log.push(event);
    }

    /// The events since `began`, if all are still logged and few enough to
    /// replay.
    fn block_from(&self, began: usize) -> Option<Block> {
        let end = self.events();
        (self.replays && began >= self.logged && end - began <= BLOCK_LIMIT).then_some((began, end))
    }

    /// Replays `block` as many more times as it would run as it did from
    /// the current state — every comparison in it decided alike, every
    /// node in it with the budget, no channel past its cap — and says
    /// whether it ran at all (never, if it fired a node's distinct first
    /// phase). The events logged before are dropped: a block that holds a
    /// replay is too long to replay.
    fn replay(&mut self, (start, end): Block) -> bool {
        #[cfg(test)]
        if tests::NO_REPLAY.with(|c| c.get()) {
            return false;
        }
        let log = std::mem::take(&mut self.log);
        let block = &log[start - self.logged..end - self.logged];
        // A block opens with a comparison on the current state, the one a
        // repetition most often decides differently.
        let opens = match block[0] {
            Event::Decide {
                chan, need, pulled, ..
            } => pulled.holds(need, self.occ[chan].into()),
            Event::Fire { .. } => true,
        };
        let times = if opens { self.repetitions(block) } else { 0 };
        if times > 0 {
            self.append(block, times);
        }
        if opens {
            self.apply(block, times);
        }
        self.log = log;
        if times > 0 {
            self.logged += self.log.len();
            self.log.clear();
        }
        times > 0
    }

    /// How many repetitions of `block` would run as it did, leaving its
    /// net change per channel, firings per node and each channel's
    /// highest level after a push (from the block's start) in the
    /// scratch.
    fn repetitions(&mut self, block: &[Event]) -> u64 {
        let mut times = u64::MAX;
        for &event in block {
            let Event::Fire { node, k, first } = event else {
                continue;
            };
            if first && self.rates[node].has_distinct_first() {
                times = 0;
            }
            let (n, rates) = (&self.flat.nodes[node], &self.rates[node]);
            self.fires[node] += k;
            for (s, &c) in n.inputs.iter().enumerate() {
                self.delta[c] -= batch_pop(rates, false, k, s) as i64;
            }
            for (s, &c) in n.outputs.iter().enumerate() {
                self.delta[c] += batch_push(rates, false, k, s) as i64;
                self.peak[c] = Some(self.peak[c].map_or(self.delta[c], |p| p.max(self.delta[c])));
            }
        }
        // Repetition `j` (the logged run is 0) reads `level + j·Δ` where
        // the logged run read `level`: the comparison is decided alike
        // while that stays in its range.
        let most = |room: i128, step: i128| u64::try_from((room / step).max(0)).unwrap_or(u64::MAX);
        for &event in block {
            match event {
                Event::Decide {
                    chan,
                    level,
                    need,
                    pulled,
                } => {
                    let (lo, hi) = pulled.range(need);
                    let level = i128::from(level);
                    times = times.min(match i128::from(self.delta[chan]) {
                        0 => u64::MAX,
                        d if d > 0 => most(hi.saturating_sub(level + 1), d),
                        d => most(level.saturating_sub(lo), -d),
                    });
                }
                Event::Fire { node, .. } => {
                    times = times.min(self.budget[node] / self.fires[node]);
                    for &c in &self.flat.nodes[node].outputs {
                        // Repetition `j`'s high-water mark is `peak + (j−1)·Δ`
                        // above the current level.
                        let peak = self.peak[c].expect("a push sets a peak");
                        let room =
                            i128::from(CAP_LIMIT) - i128::from(self.occ[c]) - i128::from(peak);
                        times = times.min(match self.delta[c] {
                            _ if room < 0 => 0,
                            d if d > 0 => most(room, d.into()).saturating_add(1),
                            _ => u64::MAX,
                        });
                    }
                }
            }
        }
        times
    }

    /// Appends `times` repetitions of `block`'s firings to the sequence.
    fn append(&mut self, block: &[Event], times: u64) {
        let fired = || {
            block.iter().filter_map(|&event| match event {
                Event::Fire { node, k, .. } => Some((node, k)),
                Event::Decide { .. } => None,
            })
        };
        let (first, last) = (fired().next(), fired().next_back());
        let from = self.seq.len();
        for (node, k) in fired() {
            self.record(node, k);
        }
        match (first, last) {
            // A repetition cannot merge into the one before: each appends
            // the steps the first did.
            (Some((a, _)), Some((b, _))) if a != b => {
                let (len, mut have) = (self.seq.len() - from, 1);
                while have < times {
                    let more = have.min(times - have);
                    self.seq
                        .extend_from_within(from..from + more as usize * len);
                    have += more;
                }
            }
            _ => {
                for _ in 1..times {
                    for (node, k) in fired() {
                        self.record(node, k);
                    }
                }
            }
        }
    }

    /// Applies `times` repetitions of `block` to occupancies, high-water
    /// marks and budgets, and clears the scratch [`Sim::repetitions`]
    /// left.
    fn apply(&mut self, block: &[Event], times: u64) {
        for &event in block {
            let Event::Fire { node, .. } = event else {
                continue;
            };
            self.budget[node] -= times * std::mem::take(&mut self.fires[node]);
            let n = &self.flat.nodes[node];
            for &c in n.inputs.iter().chain(&n.outputs) {
                let delta = i128::from(std::mem::take(&mut self.delta[c]));
                let (start, times) = (i128::from(self.occ[c]), i128::from(times));
                self.occ[c] = (start + times * delta) as u64;
                if let Some(peak) = self.peak[c].take().filter(|_| times > 0) {
                    let top = start + i128::from(peak) + delta.max(0) * (times - 1);
                    self.max_occ[c] = self.max_occ[c].max(top as u64);
                }
            }
        }
    }
}

impl Pulled {
    /// The levels at which a comparison with `need` is decided like this.
    fn range(self, need: u64) -> (i128, i128) {
        let need = i128::from(need);
        match self {
            Pulled::No => (need, i128::MAX),
            Pulled::One => (i128::MIN, need),
            // `times` firings cover a deficit in `(times−1)·push + 1 ..=
            // times·push`.
            Pulled::Cover { times, push } => {
                let (t, u) = (i128::from(times), i128::from(push));
                (need - t * u, need - (t - 1) * u)
            }
        }
    }

    fn holds(self, need: u64, level: i128) -> bool {
        let (lo, hi) = self.range(need);
        (lo..hi).contains(&level)
    }
}

/// Mutable run state, kept apart from the nodes so a firing can borrow
/// both (mirrors the dynamic engine's split).
#[derive(Debug)]
pub(crate) struct PlanState<T> {
    pub(crate) rings: RingSet,
    pub(crate) printed: Vec<f64>,
    pub(crate) ops: T,
    pub(crate) firings: u64,
    /// Reusable staging buffer for batched outputs.
    pub(crate) out_buf: Vec<f64>,
}

/// Executes a compiled [`ExecPlan`] over ring buffers, generic over the
/// [`Tally`] its arithmetic threads through ([`OpCounter`] for the
/// measured experiment, [`streamlin_support::NoCount`] for production
/// execution).
#[derive(Debug)]
pub struct PlanEngine<T: Tally = OpCounter> {
    nodes: Vec<FlatNode>,
    plan: ExecPlan,
    state: PlanState<T>,
    init_done: bool,
    /// Next steady step to execute (the cycle position survives across
    /// calls, so a run can stop a few firings past the requested output
    /// count and resume mid-cycle later).
    cursor: usize,
    /// Firings of `steady[cursor]` already executed.
    partial: u32,
    /// The repeat the cursor is in or before, and its runs completed.
    region: usize,
    runs: u32,
    /// Output count when the cursor last wrapped (progress detection).
    printed_at_wrap: usize,
    /// Steady cycles begun so far: `[whole, stepped]`.
    cycles: [u64; 2],
    /// Passes run so far (each `plan.passes` of the whole cycles).
    passes: u64,
}

impl<T: Tally + Default> PlanEngine<T> {
    /// Instantiates a flat graph under a plan compiled from it.
    pub fn new(flat: FlatGraph, plan: ExecPlan) -> Self {
        let rings = RingSet::new(&plan.caps, &flat.initial);
        PlanEngine {
            nodes: flat.nodes,
            plan,
            state: PlanState {
                rings,
                printed: Vec::new(),
                ops: T::default(),
                firings: 0,
                out_buf: Vec::new(),
            },
            init_done: false,
            cursor: 0,
            partial: 0,
            region: 0,
            runs: 0,
            printed_at_wrap: 0,
            cycles: [0; 2],
            passes: 0,
        }
    }
}

impl<T: Tally> PlanEngine<T> {
    /// The nodes, with the state their firings have left in them.
    pub fn nodes(&self) -> &[FlatNode] {
        &self.nodes
    }

    /// Values printed so far (the program's output stream), less any
    /// removed by [`Self::take_printed`].
    pub fn printed(&self) -> &[f64] {
        &self.state.printed
    }

    /// Removes and returns the first `n` printed values, keeping any
    /// overshoot for the next call — how a resident stream hands out its
    /// output without retaining what it has delivered. Afterwards
    /// [`Self::printed`] and the `n` of [`Self::run_until_outputs`] count
    /// from the first value not yet taken.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` values have been printed.
    pub fn take_printed(&mut self, n: usize) -> Vec<f64> {
        // Rebase the wrap marker with the buffer. Values taken from past
        // the marker were printed in the current cycle, so the marker must
        // not equal the rebased length at the next wrap.
        self.printed_at_wrap = self.printed_at_wrap.checked_sub(n).unwrap_or(usize::MAX);
        self.state.printed.drain(..n).collect()
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

    /// Steady cycles begun so far: `[whole, stepped]`, by the order each
    /// ran in.
    pub fn cycles(&self) -> [u64; 2] {
        self.cycles
    }

    /// Passes run so far: runs of the cycle order `plan.passes` cycles at
    /// a time, counted among the whole cycles of [`Self::cycles`].
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Guard against programs that never print: how many consecutive
    /// output-less steady cycles to tolerate before giving up. A filter
    /// may legitimately print only every k-th cycle (conditional
    /// `println`s), so this is generous; the dynamic engine's equivalent
    /// backstop is its channel-capacity ceiling.
    const MAX_SILENT_CYCLES: u32 = 1 << 16;

    /// Runs the steady schedule (after the one-time init phase) until the
    /// program has printed at least `n` values, stopping at the exact
    /// firing of the stepped order that crosses the threshold — the cycle
    /// position is kept so a later call resumes mid-cycle.
    ///
    /// # Errors
    ///
    /// Propagates evaluation/rate errors from work functions, and reports
    /// a deadlock if [`Self::MAX_SILENT_CYCLES`] consecutive steady cycles
    /// produce no output (the program can never reach `n`).
    pub fn run_until_outputs(&mut self, n: usize) -> Result<(), RunError> {
        self.run(n, None)
    }

    /// [`Self::run_until_outputs`] recorded: every firing batch becomes a
    /// span on lane 1 and local ring occupancy is sampled after each batch.
    ///
    /// # Errors
    ///
    /// As [`Self::run_until_outputs`].
    pub fn run_probed(&mut self, n: usize, rec: &mut Recorder) -> Result<(), RunError> {
        self.run(n, Some(rec))
    }

    /// Fires up to `times` firings of `node`, stopping at `stop_at`
    /// outputs, and returns how many ran. Every record site is behind
    /// `if let Some`, so an unrecorded run reads no clock.
    fn fire(
        &mut self,
        node: usize,
        times: u32,
        stop_at: usize,
        rec: &mut Option<&mut Recorder>,
    ) -> Result<u32, RunError> {
        let t0 = rec.as_deref().map_or(0, Recorder::now);
        let done = exec_batch(&mut self.nodes[node], times, &mut self.state, stop_at)?;
        if let Some(rec) = rec {
            rec.batch(1, node, done, t0);
            let ts = rec.now();
            for &c in &self.nodes[node].outputs {
                rec.ring_depth(c, self.state.rings.len(c), ts);
                rec.ring_cap(c, self.plan.caps[c]);
            }
        }
        Ok(done)
    }

    /// The one schedule loop behind both entry points.
    ///
    /// At a cycle boundary, a pass whose prints all fall short of `n` runs
    /// `plan.passes` cycles in the cycle order at once; failing that, a
    /// cycle whose prints all fall short of `n` runs in the cycle order;
    /// otherwise the stepped order runs. Every order leaves every ring,
    /// every node and the firing count in the same state at the next
    /// boundary, so the stop is where the stepped order alone would have
    /// put it. The comparison is strict: a cycle that reaches `n` exactly
    /// ends, in the stepped order, before the replenishing firings that
    /// follow its last print.
    pub(crate) fn run(&mut self, n: usize, mut rec: Option<&mut Recorder>) -> Result<(), RunError> {
        if !self.init_done {
            self.init_done = true;
            for si in 0..self.plan.init.len() {
                let step = self.plan.init[si];
                self.fire(step.node, step.times, usize::MAX, &mut rec)?;
            }
            self.printed_at_wrap = self.state.printed.len();
        }
        let mut silent_cycles = 0u32;
        while self.state.printed.len() < n {
            let boundary = self.cursor == 0 && self.partial == 0 && self.runs == 0;
            let (printed, passes) = (self.state.printed.len(), self.plan.passes);
            let falls_short = |k: u32| {
                !self.plan.cycle.is_empty()
                    && (self.plan.prints_per_cycle)
                        .is_some_and(|prints| printed + k as usize * prints < n)
            };
            let whole = match boundary {
                true => [passes, 1].into_iter().find(|&k| falls_short(k)),
                false => None,
            };
            if boundary {
                let cycles = whole.map_or(1, u64::from);
                self.cycles[usize::from(whole.is_none())] += cycles;
                self.passes += u64::from(whole == Some(passes));
            }
            if let Some(k) = whole {
                for si in 0..self.plan.cycle.len() {
                    let step = self.plan.cycle[si];
                    self.fire(step.node, step.times * k, usize::MAX, &mut rec)?;
                }
            } else {
                let step = self.plan.steady[self.cursor];
                let remaining = step.times - self.partial;
                let done = self.fire(step.node, remaining, n, &mut rec)?;
                if done < remaining {
                    self.partial += done; // the print target interrupted the batch
                    continue;
                }
                self.partial = 0;
                self.cursor += 1;
                let repeat = self.plan.repeats.get(self.region);
                if let Some(&r) = repeat.filter(|r| self.cursor == r.start + r.len) {
                    self.runs = (self.runs + 1) % r.times;
                    if self.runs > 0 {
                        self.cursor = r.start;
                    } else {
                        self.region += 1;
                    }
                }
                if self.cursor < self.plan.steady.len() {
                    continue;
                }
                (self.cursor, self.region) = (0, 0);
            }
            // A cycle just ended.
            if self.state.printed.len() == self.printed_at_wrap {
                silent_cycles += 1;
                if silent_cycles >= Self::MAX_SILENT_CYCLES {
                    return Err(RunError::Deadlock {
                        detail: format!(
                            "{silent_cycles} consecutive steady cycles produced no \
                             program output"
                        ),
                    });
                }
            } else {
                silent_cycles = 0;
                self.printed_at_wrap = self.state.printed.len();
            }
        }
        Ok(())
    }
}

/// Fires one node up to `times` consecutive times over the ring buffers.
/// Nodes that can print (interpreted filters) stop as soon as `stop_at`
/// outputs exist — exactly like the data-driven engine's between-firing
/// check — and report how many firings actually ran; all other node kinds
/// always complete the batch.
pub(crate) fn exec_batch<T: Tally>(
    node: &mut FlatNode,
    times: u32,
    state: &mut PlanState<T>,
    stop_at: usize,
) -> Result<u32, RunError> {
    let input = node.inputs.first().copied();
    let output = node.outputs.first().copied();
    match &mut node.kind {
        NodeKind::Interp(interp) => {
            let PlanState {
                rings,
                printed,
                ops,
                firings,
                out_buf,
            } = state;
            let mut done = 0;
            // One window per run of same-phase firings (a pending
            // `initWork` is a run of its own).
            while done < times {
                let (peek, pop, _) = interp_phase_rates(interp);
                let want = if init_pending(interp) {
                    1
                } else {
                    times - done
                };
                let window: &[f64] = match input {
                    Some(c) => rings.window(c, (want as usize - 1) * pop + peek),
                    None => &[],
                };
                out_buf.clear();
                let ran = fire_interp(interp, window, want, out_buf, printed, ops, stop_at)?;
                if ran == 0 {
                    break; // a printing filter, and the target is reached
                }
                *firings += ran as u64;
                if let Some(c) = input {
                    rings.consume(c, ran as usize * pop);
                }
                if let Some(c) = output {
                    rings.produce(c, out_buf);
                }
                done += ran;
            }
            Ok(done)
        }
        NodeKind::Linear(exec) => {
            state.firings += times as u64;
            let k = times as usize;
            let (peek, pop) = (exec.node().peek(), exec.node().pop());
            state.out_buf.clear();
            match input {
                Some(c) => {
                    let span = (k - 1) * pop + peek;
                    let window = state.rings.window(c, span);
                    exec.fire_batch(window, k, &mut state.out_buf, &mut state.ops);
                    state.rings.consume(c, k * pop);
                }
                None => exec.fire_batch(&[], k, &mut state.out_buf, &mut state.ops),
            }
            if let Some(c) = output {
                state.rings.produce(c, &state.out_buf);
            }
            Ok(times)
        }
        // Frequency and redundancy firings append to the staging buffer one
        // window at a time, and the batch is produced at once.
        NodeKind::Redund(exec) => {
            state.firings += times as u64;
            let (peek, pop) = (exec.spec().node().peek(), exec.spec().node().pop());
            let PlanState {
                rings,
                ops,
                out_buf,
                ..
            } = state;
            out_buf.clear();
            for _ in 0..times {
                let window: &[f64] = match input {
                    Some(c) => rings.window(c, peek),
                    None => &[],
                };
                exec.fire(window, out_buf, ops);
                if let Some(c) = input {
                    rings.consume(c, pop);
                }
            }
            if let Some(c) = output {
                rings.produce(c, out_buf);
            }
            Ok(times)
        }
        NodeKind::Freq(exec) => {
            state.firings += times as u64;
            let PlanState {
                rings,
                ops,
                out_buf,
                ..
            } = state;
            out_buf.clear();
            for _ in 0..times {
                let (peek, pop, _push) = exec.current_rates();
                let window: &[f64] = match input {
                    Some(c) => rings.window(c, peek),
                    None => &[],
                };
                exec.fire(window, out_buf, ops);
                if let Some(c) = input {
                    rings.consume(c, pop);
                }
            }
            if let Some(c) = output {
                rings.produce(c, out_buf);
            }
            Ok(times)
        }
        NodeKind::Decimator { pop, push } => {
            state.firings += times as u64;
            let (pop, push) = (*pop, *push);
            let c_in = input.expect("decimators always have an input");
            let PlanState { rings, out_buf, .. } = state;
            out_buf.clear();
            for firing in rings.window(c_in, times as usize * pop).chunks_exact(pop) {
                out_buf.extend_from_slice(&firing[..push]);
            }
            rings.consume(c_in, times as usize * pop);
            if let Some(c) = output {
                rings.produce(c, out_buf);
            }
            Ok(times)
        }
        NodeKind::Periodic { values, pos } => {
            state.firings += times as u64;
            state.out_buf.clear();
            for _ in 0..times {
                state.out_buf.push(values[*pos]);
                *pos = (*pos + 1) % values.len();
            }
            if let Some(c) = output {
                state.rings.produce(c, &state.out_buf);
            }
            Ok(times)
        }
        NodeKind::PrintSink { pop } => {
            let pop = *pop;
            let c_in = input.expect("sinks always have an input");
            // Every firing prints exactly `pop` items, so the number of
            // firings before the print target interrupts the batch is
            // known up front — run them as one slice append.
            let deficit = stop_at.saturating_sub(state.printed.len());
            if deficit == 0 {
                return Ok(0);
            }
            let run = (times as usize).min(deficit.div_ceil(pop)) as u32;
            let span = run as usize * pop;
            let PlanState { rings, printed, .. } = state;
            printed.extend_from_slice(rings.window(c_in, span));
            state.rings.consume(c_in, span);
            state.firings += run as u64;
            Ok(run)
        }
        NodeKind::DiscardSink { pop } => {
            state.firings += times as u64;
            let c_in = input.expect("sinks always have an input");
            state.rings.consume(c_in, *pop * times as usize);
            Ok(times)
        }
        // Splitters and joiners move all `times` firings as slices: one
        // window and one consume per input, a gather or scatter through
        // the staging buffer, one produce per output.
        NodeKind::Duplicate => {
            state.firings += times as u64;
            let c_in = input.expect("splitters always have an input");
            let PlanState { rings, out_buf, .. } = state;
            out_buf.clear();
            out_buf.extend_from_slice(rings.window(c_in, times as usize));
            rings.consume(c_in, times as usize);
            for &o in &node.outputs {
                rings.produce(o, out_buf);
            }
            Ok(times)
        }
        NodeKind::SplitRR(w) => {
            state.firings += times as u64;
            let c_in = input.expect("splitters always have an input");
            let PlanState { rings, out_buf, .. } = state;
            let (k, round) = (times as usize, w.iter().sum::<usize>());
            // Gathered output by output: `k * w[j]` items for output `j`.
            let window = rings.window(c_in, k * round);
            out_buf.clear();
            let mut at = 0;
            for &count in w.iter() {
                for firing in window.chunks_exact(round) {
                    out_buf.extend_from_slice(&firing[at..at + count]);
                }
                at += count;
            }
            rings.consume(c_in, k * round);
            let mut at = 0;
            for (&o, &count) in node.outputs.iter().zip(w.iter()) {
                rings.produce(o, &out_buf[at..at + k * count]);
                at += k * count;
            }
            Ok(times)
        }
        NodeKind::JoinRR(w) => {
            state.firings += times as u64;
            let c_out = output.expect("joiners always have an output");
            let PlanState { rings, out_buf, .. } = state;
            let (k, round) = (times as usize, w.iter().sum::<usize>());
            out_buf.resize(k * round, 0.0); // every slot is overwritten below
            let mut at = 0;
            for (&c_in, &count) in node.inputs.iter().zip(w.iter()) {
                let window = rings.window(c_in, k * count);
                for (firing, items) in out_buf.chunks_exact_mut(round).zip(window.chunks(count)) {
                    firing[at..at + count].copy_from_slice(items);
                }
                rings.consume(c_in, k * count);
                at += count;
            }
            rings.produce(c_out, out_buf);
            Ok(times)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::flatten;

    thread_local! {
        /// Plans every pull of this thread's compiles: no block is
        /// replayed.
        pub(super) static NO_REPLAY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
    use crate::linear_exec::MatMulStrategy;
    use streamlin_core::opt::OptStream;

    fn flat_for(src: &str) -> FlatGraph {
        let p = streamlin_lang::parse(src).unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        flatten(&OptStream::from_graph(&g), MatMulStrategy::Unrolled).unwrap()
    }

    const RAMP: &str = "void->void pipeline Main { add S(); add G(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float filter G { work pop 1 push 1 { push(3 * pop()); } }
         float->void filter K { work pop 1 { println(pop()); } }";

    #[test]
    fn simple_pipeline_plans_one_firing_each() {
        let plan = compile(&flat_for(RAMP)).unwrap();
        assert!(plan.init.is_empty(), "{plan:?}");
        assert_eq!(plan.steady_firings(), 3);
        // One print a cycle: a pass is 64 cycles, each firing 64 at once.
        assert_eq!(plan.passes, 64);
        assert_eq!(plan.caps, vec![64, 64]);
    }

    #[test]
    fn plan_engine_matches_dynamic_output() {
        let flat = flat_for(RAMP);
        let plan = compile(&flat).unwrap();
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(4).unwrap();
        assert_eq!(&e.printed()[..4], &[0.0, 3.0, 6.0, 9.0]);
        assert!(e.ops().mults() >= 4);
    }

    #[test]
    fn peek_prologue_gets_init_firings() {
        // D peeks 3, pops 1: the source must prime 2 items of slack.
        let flat = flat_for(
            "void->void pipeline Main { add S(); add D(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter D {
                 work peek 3 pop 1 push 1 { push(peek(2) - peek(0)); pop(); }
             }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let plan = compile(&flat).unwrap();
        assert_eq!(plan.init_firings(), 2, "{plan:?}");
        // Channel S->D holds the 2-item prologue plus a pass's 64 items.
        assert_eq!(plan.caps[0], 66);
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(3).unwrap();
        assert_eq!(&e.printed()[..3], &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn init_work_phase_is_scheduled_in_init() {
        let flat = flat_for(
            "void->void pipeline Main { add S(); add P(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter P {
                 initWork pop 2 push 1 { push(pop() + pop()); }
                 work pop 1 push 1 { push(pop()); }
             }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let plan = compile(&flat).unwrap();
        assert!(plan.init_firings() >= 1, "{plan:?}");
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(3).unwrap();
        // Same semantics as the dynamic engine's init_work test.
        assert_eq!(&e.printed()[..3], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn multirate_pipeline_balances_firings() {
        let flat = flat_for(
            "void->void pipeline Main { add S(); add E(); add C(); add K(); }
             void->float filter S { work push 1 { push(1.0); } }
             float->float filter E { work pop 1 push 3 { push(pop()); push(0); push(0); } }
             float->float filter C { work pop 2 push 1 { push(pop()); pop(); } }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let plan = compile(&flat).unwrap();
        // E pushes 3, C pops 2: q = [2, 2, 3, 3].
        assert_eq!(plan.steady_firings(), 10, "{plan:?}");
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(6).unwrap();
        assert_eq!(e.printed()[0], 1.0);
    }

    #[test]
    fn splitjoin_round_trip_matches_dynamic() {
        let flat = flat_for(
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
        let plan = compile(&flat).unwrap();
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(4).unwrap();
        assert_eq!(&e.printed()[..4], &[0.0, 0.0, 10.0, 100.0]);
    }

    /// A running sum through a feedback loop, then `tail`, then a printer;
    /// `body` is the loop's body and `enqueue` its enqueue statements.
    fn looped(body: &str, enqueue: &str, tail: &str) -> String {
        format!(
            "void->void pipeline Main {{ add S(); add FB(); add T(); add K(); }}
             void->float filter S {{ float x; work push 1 {{ x = x + 1; push(x); }} }}
             float->void filter K {{ work pop 1 {{ println(pop()); }} }}
             float->float feedbackloop FB {{
                 join roundrobin(1, 1);
                 body B();
                 loop Id();
                 split duplicate;
                 {enqueue}
             }}
             float->float filter B {{ {body} }}
             float->float filter Id {{ work pop 1 push 1 {{ push(pop()); }} }}
             float->float filter T {{ {tail} }}"
        )
    }

    const ADDER: &str = "work pop 2 push 1 { push(pop() + pop()); }";
    const COPY: &str = "work pop 1 push 1 { push(pop()); }";

    /// Runs `flat` to `n` outputs on its plan and on the data-driven
    /// engine, and holds the two to the same bits.
    fn plan_agrees_with_engine(flat: FlatGraph, n: usize) -> Vec<f64> {
        let plan = compile(&flat).unwrap();
        let mut planned = PlanEngine::<OpCounter>::new(flat.clone(), plan);
        planned.run_until_outputs(n).unwrap();
        let reference = crate::engine::reference_outputs(flat, n);
        let bits = |v: &[f64]| v[..n].iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(planned.printed()), bits(&reference));
        planned.printed()[..n].to_vec()
    }

    #[test]
    fn feedback_loops_plan_from_their_enqueued_items() {
        let flat = flat_for(&looped(ADDER, "enqueue 0;", COPY));
        let printed = plan_agrees_with_engine(flat, 40);
        // x = 1, 2, 3, 4 -> running sums 1, 3, 6, 10.
        assert_eq!(&printed[..4], &[1.0, 3.0, 6.0, 10.0]);
    }

    #[test]
    fn a_loop_circulates_its_items_to_fill_the_slack_below_it() {
        // T peeks 8: the init phase needs 7 items below the loop, seven
        // trips around it on its one enqueued item.
        let tail = "work peek 8 pop 1 push 1 { push(peek(7) - peek(0)); pop(); }";
        let flat = flat_for(&looped(ADDER, "enqueue 0;", tail));
        let plan = compile(&flat).unwrap();
        let on_loop = |step: &Step| {
            ["fb-join", "B", "fb-split", "Id"].contains(&&*flat.nodes[step.node].name)
        };
        let trips = plan
            .init
            .iter()
            .filter(|s| flat.nodes[s.node].name == "fb-join");
        assert_eq!(trips.map(|s| s.times).sum::<u32>(), 7, "{plan:?}");
        let steps: Vec<Step> = plan.init.iter().copied().chain(plan.stepped()).collect();
        assert!(steps.iter().filter(|s| on_loop(s)).all(|s| s.times == 1));
        // A cycle order needs a batch per node, more than one item allows.
        assert!(plan.cycle.is_empty());
        assert!(plan
            .summary(&flat)
            .ends_with("cycle order: none (feedback loop)"));
        plan_agrees_with_engine(flat, 64);
    }

    #[test]
    fn a_loops_repeated_trips_stop_where_the_unrolled_order_does() {
        // T pops 4: a cycle is four trips around the loop, three of them
        // alike (the fourth ends in T's and K's firings).
        let tail = "work pop 4 push 1 { push(pop() - pop() + pop() * pop()); }";
        let flat = flat_for(&looped(ADDER, "enqueue 0;", tail));
        let plan = compile(&flat).unwrap();
        let trip = Repeat {
            start: 1,
            len: 5,
            times: 3,
        };
        assert_eq!(*plan.repeats, [trip], "{plan:?}");
        let unrolled = ExecPlan {
            steady: plan.stepped().collect(),
            repeats: [].into(),
            ..plan.clone()
        };
        assert_eq!(unrolled.steady.len(), plan.steady.len() + 2 * trip.len);
        for n in 1..=24 {
            let mut folded = PlanEngine::<OpCounter>::new(flat.clone(), plan.clone());
            let mut plain = PlanEngine::<OpCounter>::new(flat.clone(), unrolled.clone());
            // Two reads, so the second resumes inside a repeat.
            for goal in [n, n + 5] {
                folded.run_until_outputs(goal).unwrap();
                plain.run_until_outputs(goal).unwrap();
                assert_eq!(folded.printed(), plain.printed(), "n = {n}");
                assert_eq!(folded.firings(), plain.firings(), "n = {n}");
                assert_eq!(folded.ops(), plain.ops(), "n = {n}");
            }
        }
    }

    #[test]
    fn a_loop_that_enqueues_nothing_is_refused_by_its_joiner() {
        let flat = flat_for(&looped(ADDER, "", COPY));
        let joiner = flat.nodes.iter().position(|n| n.name == "fb-join").unwrap();
        let why = format!("at `fb-join` (node {joiner}) needs 1 enqueued item(s), has 0");
        assert_eq!(compile(&flat), Err(PlanError::Shortfall(why.clone())));
        assert_eq!(
            compile(&flat).unwrap_err().to_string(),
            format!("feedback loop {why}")
        );
    }

    #[test]
    fn a_loop_short_of_its_own_lookahead_is_refused() {
        // B peeks one item past the pair it pops: two joiner firings, so
        // two items around the loop, must be in flight before it fires.
        let body = "work peek 3 pop 2 push 1 { push(pop() + pop() + peek(0)); }";
        let err = compile(&flat_for(&looped(body, "enqueue 0;", COPY))).unwrap_err();
        assert!(
            err.to_string().ends_with("needs 2 enqueued item(s), has 1"),
            "{err}"
        );
        plan_agrees_with_engine(flat_for(&looped(body, "enqueue 0; enqueue 0.5;", COPY)), 32);
    }

    #[test]
    fn a_zero_rate_channel_is_refused_by_name() {
        let flat = flat_for(
            "void->void pipeline Main { add S(); add SJ(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float splitjoin SJ {
                 split roundrobin(1, 0);
                 add G(); add G();
                 join roundrobin(1, 1);
             }
             float->float filter G { work pop 1 push 1 { push(pop()); } }
             float->void filter K { work pop 2 { println(pop()); println(pop()); } }",
        );
        let why = "channel `split` -> `G` has a zero steady rate";
        assert_eq!(compile(&flat), Err(PlanError::Unschedulable(why.into())));
    }

    #[test]
    fn conditionally_printing_sinks_survive_silent_cycles() {
        // The sink prints only every third firing, so two out of three
        // steady cycles produce no output — that must not be mistaken for
        // a deadlock (the dynamic engine runs this program fine).
        let flat = flat_for(
            "void->void pipeline Main { add S(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->void filter K {
                 int c;
                 work pop 1 {
                     c++;
                     if (c % 3 == 0) println(pop()); else pop();
                 }
             }",
        );
        let plan = compile(&flat).unwrap();
        // How many values a cycle prints depends on the data, so no cycle
        // can be shown to fall short of a stop: the stepped order alone.
        assert_eq!(plan.prints_per_cycle, None);
        assert!(plan.cycle.is_empty());
        assert!(plan
            .summary(&flat)
            .ends_with("cycle order: none (K prints)"));
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(3).unwrap();
        assert_eq!(&e.printed()[..3], &[2.0, 5.0, 8.0]);
        assert_eq!(e.cycles()[0], 0);
    }

    const PROLOGUE: &str = "void->void pipeline Main { add S(); add P(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float filter P {
             initWork pop 2 push 1 { push(pop() + pop()); }
             work pop 1 push 1 { push(pop()); }
         }
         float->void filter K { work pop 1 { println(pop()); } }";

    const SPLITJOIN: &str = "void->void pipeline Main { add S(); add SJ(); add D(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float splitjoin SJ {
             split roundrobin(2, 1);
             add G(10.0); add G(100.0);
             join roundrobin(2, 1);
         }
         float->float filter G(float k) { work pop 1 push 2 { push(k * pop()); push(k); } }
         float->float filter D { work peek 5 pop 2 push 1 { push(peek(4) - peek(0)); pop(); pop(); } }
         float->void filter K { work pop 1 { println(pop()); } }";

    /// Replays `steps` over channel occupancies; returns each channel's peak.
    fn replay(flat: &FlatGraph, steps: &[Step], occ: &mut [u64], fired: &mut [bool]) -> Vec<u64> {
        let mut peak = occ.to_vec();
        for step in steps {
            let node = &flat.nodes[step.node];
            let (rates, first, k) = (node_rates(node), !fired[step.node], step.times as u64);
            for (s, &c) in node.inputs.iter().enumerate() {
                assert!(
                    occ[c] >= batch_need(&rates, first, k, s),
                    "{step:?} starves"
                );
                occ[c] -= batch_pop(&rates, first, k, s);
            }
            for (s, &c) in node.outputs.iter().enumerate() {
                occ[c] += batch_push(&rates, first, k, s);
                peak[c] = peak[c].max(occ[c]);
            }
            fired[step.node] = true;
        }
        peak
    }

    #[test]
    fn both_orders_are_the_same_cycle() {
        for src in [RAMP, PROLOGUE, SPLITJOIN] {
            let flat = flat_for(src);
            let plan = compile(&flat).unwrap();
            let per_node = |steps: &[Step]| {
                let mut fires = vec![0u64; flat.nodes.len()];
                steps.iter().for_each(|s| fires[s.node] += s.times as u64);
                fires
            };
            assert_eq!(plan.cycle.len(), flat.nodes.len(), "one step per node");
            assert_eq!(per_node(&plan.cycle), per_node(&plan.steady));

            let mut occ = vec![0u64; flat.num_channels];
            let mut fired = vec![false; flat.nodes.len()];
            let mut peak = replay(&flat, &plan.init, &mut occ, &mut fired);
            let post_init = occ.clone();
            let pass: Vec<Step> = (plan.cycle.iter())
                .map(|s| Step {
                    times: s.times * plan.passes,
                    ..*s
                })
                .collect();
            for order in [&plan.steady[..], &plan.cycle, &pass] {
                let reached = replay(&flat, order, &mut occ, &mut fired.clone());
                assert_eq!(occ, post_init, "a cycle restores the occupancies");
                peak.iter_mut()
                    .zip(reached)
                    .for_each(|(p, r)| *p = (*p).max(r));
            }
            let caps: Vec<u64> = plan.caps.iter().map(|&c| c as u64).collect();
            assert_eq!(caps, peak, "caps cover steady, cycle and pass, exactly");
        }
    }

    /// Runs `src` to each `n` on a fresh engine, with the cycle order and
    /// with it cleared, and holds the two to the same firing.
    fn assert_stops_like_stepped(src: &str, ns: impl IntoIterator<Item = usize>) {
        let flat = flat_for(src);
        let plan = compile(&flat).unwrap();
        let stepped = ExecPlan {
            cycle: [].into(),
            ..plan.clone()
        };
        for n in ns {
            let mut both = PlanEngine::<OpCounter>::new(flat.clone(), plan.clone());
            let mut only = PlanEngine::<OpCounter>::new(flat.clone(), stepped.clone());
            both.run_until_outputs(n).unwrap();
            only.run_until_outputs(n).unwrap();
            assert_eq!(both.printed(), only.printed(), "n = {n}");
            assert_eq!(both.firings(), only.firings(), "n = {n}");
            assert_eq!(both.ops(), only.ops(), "n = {n}");
            assert_eq!((only.cycles()[0], only.passes()), (0, 0));
            // Whole cycles while their prints fall short of `n`, strictly;
            // passes of them while a pass's prints do.
            let prints = plan.prints_per_cycle.unwrap();
            let whole = (n - 1) / prints;
            assert_eq!(both.cycles()[0], whole as u64, "n = {n}");
            let pass = plan.passes as usize;
            assert_eq!(both.passes(), (whole / pass) as u64, "n = {n}");
        }
    }

    #[test]
    fn a_cycle_that_reaches_the_target_exactly_is_stepped() {
        // The sink's first firing of a cycle draws on what `initWork` left
        // buffered, and the firings that replenish it follow the print: a
        // run to `printed + prints_per_cycle` stops before them.
        let flat = flat_for(PROLOGUE);
        let plan = compile(&flat).unwrap();
        assert_eq!(plan.prints_per_cycle, Some(1));
        let first = &flat.nodes[plan.steady[0].node];
        assert!(matches!(first.kind, NodeKind::PrintSink { .. }), "{plan:?}");
        assert_stops_like_stepped(PROLOGUE, 1..=6);
        assert_stops_like_stepped(SPLITJOIN, 1..=40);
    }

    #[test]
    fn a_pass_stops_where_single_cycles_do() {
        // RAMP prints one value a cycle, so a pass is 64 cycles: `n` on
        // either side of one and two passes' prints.
        let plan = compile(&flat_for(RAMP)).unwrap();
        assert_eq!((plan.prints_per_cycle, plan.passes), (Some(1), 64));
        assert_stops_like_stepped(RAMP, [1, 2, 63, 64, 65, 127, 128, 129, 200]);
        assert_stops_like_stepped(PROLOGUE, [63, 64, 65, 127, 128, 129]);

        // A read sequence that straddles a pass: the first read stops
        // inside the second pass's cycles, the next ones resume there.
        let flat = flat_for(RAMP);
        let stepped = ExecPlan {
            cycle: [].into(),
            ..plan.clone()
        };
        let mut both = PlanEngine::<OpCounter>::new(flat.clone(), plan);
        let mut only = PlanEngine::<OpCounter>::new(flat, stepped);
        for goal in [100, 101, 190, 300] {
            both.run_until_outputs(goal).unwrap();
            only.run_until_outputs(goal).unwrap();
            assert_eq!(both.printed(), only.printed(), "goal = {goal}");
            assert_eq!(both.firings(), only.firings(), "goal = {goal}");
            assert_eq!(both.ops(), only.ops(), "goal = {goal}");
        }
        // 99 = 64 + 35 whole to 100; 64 + 24 to 190; 64 + 45 to 300.
        assert_eq!((both.cycles(), both.passes()), ([296, 4], 3));
        assert_eq!(only.cycles(), [0, 300]);
    }

    #[test]
    fn a_cycle_order_past_the_bounds_leaves_the_stepped_plan() {
        // U's whole cycle is 4096 firings of 4099 pushes: more than
        // `CAP_LIMIT` in flight on one channel, where the stepped order
        // holds two firings' worth.
        let flat = flat_for(
            "void->void pipeline Main { add S(); add U(); add D(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter U {
                 work pop 1 push 4099 { float x = pop(); for (int i = 0; i < 4099; i++) push(x); }
             }
             float->float filter D {
                 work pop 4096 push 1 {
                     float s = 0;
                     for (int i = 0; i < 4096; i++) s += pop();
                     push(s);
                 }
             }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let plan = compile(&flat).unwrap();
        assert!(plan.cycle.is_empty());
        assert_eq!(plan.prints_per_cycle, Some(4099));
        assert!(plan.caps.iter().all(|&c| c < 3 * 4099), "{:?}", plan.caps);
        assert!(plan
            .summary(&flat)
            .ends_with("cycle order: none (exceeds slab bound)"));
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(2).unwrap();
        assert_eq!(e.printed(), &[0.0, 4093.0]);
        assert_eq!(e.cycles(), [0, 1]);
    }

    /// Compiles `flat` twice: replaying repeated pulls, and pulling every
    /// time.
    fn compile_both(flat: &FlatGraph) -> [Result<ExecPlan, PlanError>; 2] {
        let replayed = compile(flat);
        NO_REPLAY.with(|c| c.set(true));
        let pulled = compile(flat);
        NO_REPLAY.with(|c| c.set(false));
        [replayed, pulled]
    }

    #[test]
    fn replaying_a_repeated_pull_plans_what_pulling_it_again_does() {
        let mut graphs = Vec::new();
        for bench in streamlin_benchmarks::all_default() {
            let analysis = streamlin_core::analyze_graph(bench.graph());
            for config in streamlin_core::Config::ALL {
                let opt = config.apply(bench.graph(), &analysis).unwrap();
                graphs.push((bench.name().to_string(), config.label(), opt));
            }
        }
        for (name, config, opt) in &graphs {
            let flat = flatten(opt, MatMulStrategy::Unrolled).unwrap();
            let [replayed, pulled] = compile_both(&flat);
            assert_eq!(replayed, pulled, "{name} under {config}");
        }
        // Loops that circulate, batch below themselves, peek past their
        // items, and run short of them.
        let peeks = "work peek 8 pop 1 push 1 { push(peek(7) - peek(0)); pop(); }";
        let pops = "work pop 4 push 1 { push(pop() - pop() + pop() * pop()); }";
        let lookahead = "work peek 3 pop 2 push 1 { push(pop() + pop() + peek(0)); }";
        for (body, enqueue, tail) in [
            (ADDER, "enqueue 0;", COPY),
            (ADDER, "enqueue 0;", peeks),
            (ADDER, "enqueue 0;", pops),
            (ADDER, "enqueue 0; enqueue 1; enqueue 2;", pops),
            (ADDER, "", COPY),
            (lookahead, "enqueue 0;", COPY),
            (lookahead, "enqueue 0; enqueue 0.5;", peeks),
        ] {
            let [replayed, pulled] = compile_both(&flat_for(&looped(body, enqueue, tail)));
            assert_eq!(replayed, pulled, "{body} / {enqueue} / {tail}");
        }
        // Loops of every small shape: joiner and splitter weights, the
        // body's lookahead, and more or fewer items than it needs.
        for shape in 0..2 * 2 * 2 * 2 * 3 * 3 {
            let w = |k: usize| 1 + (shape >> k & 1);
            let (win, back, down, around) = (w(0), w(1), w(2), w(3));
            let (ahead, enqueued) = (shape / 16 % 3, shape / 48);
            let (pop, push) = (win + back, down + around);
            let src = format!(
                "void->void pipeline Main {{ add S(); add FB(); add T(); add K(); }}
                 void->float filter S {{ float x; work push 1 {{ x = x + 1; push(x); }} }}
                 float->void filter K {{ work pop 1 {{ println(pop()); }} }}
                 float->float feedbackloop FB {{
                     join roundrobin({win}, {back});
                     body B();
                     loop L();
                     split roundrobin({down}, {around});
                     {}
                 }}
                 float->float filter B {{
                     work peek {} pop {pop} push {push} {{
                         float s = peek({});
                         for (int i = 0; i < {push}; i++) push(s + i);
                         for (int i = 0; i < {pop}; i++) s += pop();
                     }}
                 }}
                 float->float filter L {{
                     work pop {around} push {back} {{
                         float t = 0;
                         for (int i = 0; i < {around}; i++) t += pop();
                         for (int i = 0; i < {back}; i++) push(t * 0.5);
                     }}
                 }}
                 float->float filter T {{ work pop 3 push 1 {{ push(pop() - pop() + pop()); }} }}",
                "enqueue 0.25; ".repeat(back * (1 + ahead) + enqueued),
                pop + ahead,
                pop + ahead - 1,
            );
            let [replayed, pulled] = compile_both(&flat_for(&src));
            assert_eq!(replayed, pulled, "{src}");
        }
    }

    #[test]
    fn a_fifty_thousand_node_chain_plans_on_a_small_stack() {
        // A source, a chain of pass-through nodes and a sink: the sink's
        // first pull runs demand down the whole chain at once.
        let chain = |n: usize| {
            let node = |name: String, kind, inputs, outputs| FlatNode {
                name,
                kind,
                inputs,
                outputs,
            };
            let values = vec![1.0].into();
            let mut nodes = vec![node(
                "src".into(),
                NodeKind::Periodic { values, pos: 0 },
                vec![],
                vec![0],
            )];
            nodes.extend((0..n).map(|c| {
                let kind = NodeKind::Decimator { pop: 1, push: 1 };
                node(format!("d{c}"), kind, vec![c], vec![c + 1])
            }));
            nodes.push(node(
                "sink".into(),
                NodeKind::DiscardSink { pop: 1 },
                vec![n],
                vec![],
            ));
            FlatGraph {
                nodes,
                num_channels: n + 1,
                initial: Vec::new(),
            }
        };
        let plan = |flat: FlatGraph| {
            std::thread::Builder::new()
                .stack_size(256 << 10)
                .spawn(move || compile(&flat))
                .unwrap()
                .join()
                .expect("planning a chain needs no deep stack")
        };
        let n = 50_000;
        assert_eq!(plan(chain(n)).unwrap().steady_firings(), n as u64 + 2);
        // Past the bound on pulls in progress, the plan is refused.
        let err = plan(chain(DEPTH_LIMIT + 2)).unwrap_err();
        assert_eq!(err, PlanError::TooLarge("pull recursion too deep".into()));
    }

    #[test]
    fn rate_violation_is_still_reported() {
        let flat = flat_for(
            "void->void pipeline Main { add S(); add K(); }
             void->float filter S { float x; work push 2 { push(x); if (x > 0.5) push(x); x = x + 1; } }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let plan = compile(&flat).unwrap();
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        let err = e.run_until_outputs(1).unwrap_err();
        assert!(matches!(err, RunError::RateViolation(_)), "{err}");
    }
}
