//! Data-parallel fission of stateless and linear nodes.
//!
//! Pipeline partitioning ([`crate::partition`]) cuts the graph at node
//! granularity, so a graph dominated by one node — FIR's frequency stage
//! is ~97 % of steady-state cost — cannot be balanced no matter how many
//! threads are available. This module supplies the missing lever: when
//! the dominant node is *safely duplicable*, the flat graph is rewritten
//! so `W` copies of it each process an interleaved share of the input,
//! and the pipeline partitioner can then spread those copies over stages.
//!
//! A node is safely duplicable when one firing is a pure function of its
//! peek window:
//!
//! * **linear nodes** ([`crate::linear_exec::LinearExec`]) — a firing is
//!   a matrix–vector product;
//! * **naive frequency nodes** ([`FreqExec`] under
//!   [`FreqStrategy::Naive`]) — a firing is FFT → spectrum multiply →
//!   IFFT of its window;
//! * **stateless interpreted filters** — the lowered work body never
//!   assigns a global (field) slot, never prints, and has no `initWork`;
//! * **optimized frequency nodes** ([`FreqStrategy::Optimized`]) — the
//!   one *stateful* kernel fission accepts: firing `f` depends only on
//!   windows `f − 1` and `f` (the carried edge partials are a pure
//!   function of the previous window), so a duplicate can recompute the
//!   partials from a duplicated **prefix** of the stream (an uncounted
//!   priming firing) and then fire exactly as the original would.
//!
//! Everything else — printing filters, filters with mutated fields or an
//! `initWork` phase, redundancy nodes (their caches carry values across
//! firings), plumbing nodes — is refused, with a reason the CLI surfaces
//! under `--emit-graph`. A node on a feedback loop passes these checks but
//! rarely runs fissed: a fissed round needs more items in flight than the
//! loop enqueues, so the fissed graph's schedule is refused (a
//! [`crate::plan::PlanError::Shortfall`]) and the graph runs unfissed.
//!
//! # The rewrite
//!
//! The target node (per-firing rates `peek e / pop o / push u`, firing
//! `q` times per steady cycle) is replaced by
//!
//! ```text
//!            ┌─ worker 0 (B firings) ─┐
//!  split ────┼─ worker 1 (B firings) ─┼──── join
//!            └─ …        (W workers)  ┘
//! ```
//!
//! * the **splitter** ([`FissSplit`]) hands worker `k` one *chunk* per
//!   round: its `B·o` round-robin share of the stream, plus `e − o`
//!   trailing lookahead items duplicated from the next share (the
//!   original node's sliding window overlaps shares), plus — for
//!   optimized frequency kernels — the `r` items of the *previous*
//!   firing's window duplicated as a prefix (the splitter carries the
//!   tail of what it already consumed);
//! * each **worker** ([`FissWorker`]) consumes its whole chunk and runs
//!   `B` kernel firings over sliding sub-windows — bit-for-bit the
//!   arithmetic the original node would have performed on those firings
//!   (linear workers use the same blocked
//!   [`crate::linear_exec::LinearExec::fire_batch`] sweep, which is
//!   pinned bit-identical to repeated single firings);
//! * the **joiner** ([`FissJoin`]) interleaves `B·u`-sized blocks round
//!   robin, reconstructing the original push order exactly.
//!
//! The init phase is kept aligned with the unfissed plan: whatever `F`
//! firings the unfissed plan scheduled during init (an optimized
//! frequency node's `initWork`, or downstream peek slack demanding early
//! output — vocoder's clipper owes 50 firings before the first steady
//! cycle) are replayed verbatim as the *distinct first firing* of the
//! synthesized subgraph — the splitter routes exactly those `F` windows
//! to worker 0, worker 0 runs them as one contiguous kernel batch (its
//! internal state, e.g. frequency edge partials, carries naturally), and
//! the joiner forwards their pushes — so the fissed graph's init performs
//! *the same counted work* as the unfissed one, and the round-robin
//! steady rounds line up right after firing `F`.
//!
//! # Determinism contract
//!
//! Fission preserves the contract PRs 1–4 established, and
//! the `fission` row of `tests/equivalence.rs` pins it on all nine benchmarks:
//!
//! * printed output is **bit-identical** to the unfissed static plan for
//!   every width;
//! * operation tallies and firing counts are **identical across fission
//!   widths, including width 1 (no fission)** under the cycle-quantized
//!   pipeline executor: priming firings run uncounted, the synthesized
//!   splitter/joiner move items without arithmetic and do not count as
//!   firings, and each worker counts its `B` kernel firings — so per
//!   steady cycle the fissed graph performs exactly the unfissed
//!   arithmetic. When `W` does not divide `q` the fissed steady cycle
//!   spans `scale > 1` original cycles; the pipeline coordinator
//!   quantizes every run to a whole number of original cycles (default
//!   [`crate::parallel::CYCLE_QUANTUM`], overridable per run) and
//!   `scale` is constrained to divide that quantum, which is what keeps
//!   run lengths — and with them tallies — width-invariant.

use streamlin_core::cost::CostModel;
use streamlin_core::frequency::{FreqExec, FreqStrategy};
use streamlin_graph::StateEffect;

use crate::flat::{FlatGraph, FlatNode, InterpState, NodeKind};
use crate::linear_exec::LinearExec;
use crate::plan::ExecPlan;

/// How much fission a run applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fission {
    /// No fission (the default).
    #[default]
    Off,
    /// Fiss the dominant node when it is duplicable and the cost model
    /// says splitting helps the requested thread count.
    Auto,
    /// Force a specific width on the dominant node (downgraded to the
    /// nearest feasible width; `0`/`1` mean off).
    Width(usize),
}

impl Fission {
    /// Short label used in tables and CLI output.
    pub fn label(self) -> String {
        match self {
            Fission::Off => "off".into(),
            Fission::Auto => "auto".into(),
            Fission::Width(w) => w.to_string(),
        }
    }
}

/// What the fission pass did, for `--emit-graph` and profiles.
#[derive(Debug, Clone)]
pub struct FissionInfo {
    /// Name of the fissed node.
    pub node: String,
    /// Duplicates created.
    pub width: usize,
    /// Kernel firings per worker per round.
    pub batch: usize,
    /// Original steady cycles one fissed cycle spans (divides the run's
    /// cycle quantum, default [`crate::parallel::CYCLE_QUANTUM`]).
    pub scale: u64,
    /// Which duplicable form the node matched.
    pub kind: &'static str,
}

impl FissionInfo {
    /// One-line description for logs and the CLI.
    pub fn summary(&self) -> String {
        format!(
            "{} -> {} workers x {} firings/round ({}, cycle x{})",
            self.node, self.width, self.batch, self.kind, self.scale
        )
    }
}

/// Synthesized fission splitter: distributes round-robin chunks (with
/// duplicated overlap) to the workers. Moves items without arithmetic and
/// does not count as a firing, so fission leaves tallies and firing
/// counts untouched.
///
/// When the unfissed plan fired the original node during its **init
/// phase** (`initWork`, or downstream peek slack demanding early output),
/// the splitter reproduces that exactly: its distinct first firing routes
/// the first `first_share` consumed items — the windows of precisely
/// those init firings — to worker 0 alone, so the fissed graph's init
/// performs the same counted work as the unfissed one and the round-robin
/// steady rounds start aligned right after.
#[derive(Debug, Clone)]
pub struct FissSplit {
    /// Round-robin share per worker per round (`B·pop`).
    pub share: usize,
    /// Trailing lookahead duplicated into every chunk (`peek − pop`).
    pub suffix: usize,
    /// Preceding-window items duplicated in front of each chunk (the
    /// optimized-frequency priming window; 0 for stateless kernels).
    pub prefix: usize,
    /// Number of workers.
    pub width: usize,
    /// Items consumed by the distinct first firing (`F·pop` for the `F`
    /// init firings of the unfissed plan, routed to worker 0); 0 when the
    /// node fired only in the steady state.
    pub first_share: usize,
    /// True until the first firing happened (selects the `first_share`
    /// phase when one exists).
    pub first: bool,
    /// Last `prefix` items consumed (the priming window for worker 0's
    /// next round).
    pub carry: Vec<f64>,
    /// Reusable window copy (the chunks for all workers are cut from it).
    pub scratch: Vec<f64>,
}

impl FissSplit {
    /// Items popped by a steady firing.
    pub fn steady_pop(&self) -> usize {
        self.width * self.share
    }

    /// Items pushed to every worker by a steady firing.
    pub fn chunk_len(&self) -> usize {
        self.prefix + self.share + self.suffix
    }
}

/// The duplicable kernel a fission worker runs.
#[derive(Debug, Clone)]
pub enum FissKernel {
    /// A direct linear node (batched matrix–matrix sweep).
    Linear(LinearExec),
    /// A frequency-domain stage (naive: pure per firing; optimized:
    /// primed per round from the duplicated prefix).
    Freq(FreqExec),
    /// A stateless interpreted filter (reads fields, never writes them).
    Interp(InterpState),
}

/// Synthesized fission worker: one duplicate of the fissed node, running
/// `batch` kernel firings per round over sliding sub-windows of its
/// chunk. Counts exactly the firings the original node would have
/// counted.
#[derive(Debug, Clone)]
pub struct FissWorker {
    /// The duplicated kernel.
    pub kernel: FissKernel,
    /// Original per-firing peek rate.
    pub peek: usize,
    /// Original per-firing pop rate.
    pub pop: usize,
    /// Original per-firing push rate.
    pub push: usize,
    /// Kernel firings per steady round.
    pub batch: usize,
    /// Priming-window items prepended to each chunk (optimized
    /// frequency only; primed with an *uncounted* kernel firing).
    pub prefix: usize,
    /// Kernel firings of the distinct first firing — worker 0 replays
    /// the `F` init-phase firings of the unfissed plan as one contiguous
    /// batch (no priming prefix; the kernel's own first-firing path runs
    /// naturally). 0 = no distinct first phase (workers `k > 0`, and
    /// worker 0 of a node the unfissed plan never fired during init).
    pub first_fires: usize,
    /// Pushes of the *kernel's* distinct first firing (the optimized
    /// frequency `initWork` pushes `u·m` instead of `u·r`); `None` when
    /// every kernel firing pushes `push`.
    pub first_kernel_push: Option<usize>,
    /// True until the first firing happened.
    pub first: bool,
}

impl FissWorker {
    /// Items a steady round consumes (= the splitter's chunk).
    pub fn chunk_len(&self) -> usize {
        self.prefix + self.batch * self.pop + self.peek.saturating_sub(self.pop)
    }

    /// Items the distinct first firing consumes (the first `F` windows,
    /// overlap included, no priming prefix).
    pub fn first_chunk_len(&self) -> usize {
        self.first_fires * self.pop + self.peek.saturating_sub(self.pop)
    }

    /// Items the distinct first firing pushes (the kernel's own first
    /// firing may push less than `push`).
    pub fn first_pushes(&self) -> usize {
        self.first_kernel_push.unwrap_or(self.push) + (self.first_fires - 1) * self.push
    }
}

/// Synthesized fission joiner: interleaves `weight`-item blocks round
/// robin, reconstructing the original push order. Pure plumbing — no
/// arithmetic, no firing count.
#[derive(Debug, Clone)]
pub struct FissJoin {
    /// Items taken from each worker per steady firing (`B·push`).
    pub weight: usize,
    /// Number of workers.
    pub width: usize,
    /// Items taken from worker 0 by the distinct first firing (the
    /// pushes of the replayed init-phase batch); 0 when uniform.
    pub first_take: usize,
    /// True until the first firing happened.
    pub first: bool,
}

/// The duplicable forms [`fissability`] recognizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FissKind {
    /// [`LinearExec`]: stateless, sliding-window overlap `peek − pop`.
    Linear,
    /// Naive frequency stage: stateless, overlap `peek − pop`.
    FreqNaive,
    /// Optimized frequency stage: stateful prefix (previous window
    /// duplicated, uncounted priming firing per round).
    FreqOptimized,
    /// Interpreted filter whose work body never writes a field.
    StatelessInterp,
}

impl FissKind {
    /// Short label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            FissKind::Linear => "linear",
            FissKind::FreqNaive => "freq-naive",
            FissKind::FreqOptimized => "freq-optimized",
            FissKind::StatelessInterp => "stateless-filter",
        }
    }
}

/// Classifies a flat node as duplicable, or explains why it is not.
///
/// # Errors
///
/// Returns the reason the node must keep its single instance (mutated
/// state, printing, multiple endpoints, plumbing, …).
pub fn fissability(node: &FlatNode) -> Result<FissKind, String> {
    if node.inputs.len() != 1 || node.outputs.len() != 1 {
        return Err(format!(
            "{}: fission needs exactly one input and one output",
            node.name
        ));
    }
    match &node.kind {
        NodeKind::Linear(exec) => {
            if exec.node().pop() == 0 {
                return Err(format!("{}: linear node pops nothing", node.name));
            }
            Ok(FissKind::Linear)
        }
        NodeKind::Freq(exec) => match exec.spec().strategy() {
            FreqStrategy::Naive => Ok(FissKind::FreqNaive),
            FreqStrategy::Optimized => Ok(FissKind::FreqOptimized),
        },
        NodeKind::Interp(s) => {
            let inst = &s.inst;
            if inst.prints {
                return Err(format!("{}: printing filters keep their order", node.name));
            }
            if inst.init_work.is_some() {
                return Err(format!("{}: initWork phase is stateful", node.name));
            }
            if inst.work.pop == 0 || inst.work.push == 0 {
                return Err(format!("{}: sources/sinks are not fissed", node.name));
            }
            // Admissibility comes from the state-effect lattice the
            // abstract interpreter computed at elaboration (see
            // `streamlin_graph::analyze`), not a syntactic walk: a write
            // in a provably dead branch no longer blocks fission.
            match inst.facts.effect {
                StateEffect::Pure | StateEffect::ReadsState => Ok(FissKind::StatelessInterp),
                StateEffect::AffineState => Err(format!(
                    "{}: work body mutates persistent state (affine update — fissable in \
                     principle, not yet implemented)",
                    node.name
                )),
                StateEffect::OpaqueState => {
                    Err(format!("{}: work body mutates persistent state", node.name))
                }
            }
        }
        NodeKind::Redund(_) => Err(format!(
            "{}: redundancy caches carry values across firings",
            node.name
        )),
        NodeKind::Periodic { .. } => Err(format!("{}: stateful source", node.name)),
        NodeKind::PrintSink { .. } => Err(format!("{}: printing sink", node.name)),
        NodeKind::DiscardSink { .. } => Err(format!("{}: sink", node.name)),
        NodeKind::Decimator { .. }
        | NodeKind::Duplicate
        | NodeKind::SplitRR(_)
        | NodeKind::JoinRR(_)
        | NodeKind::FissSplit(_)
        | NodeKind::FissWorker(_)
        | NodeKind::FissJoin(_) => Err(format!("{}: plumbing is never fissed", node.name)),
    }
}

/// `(peek, pop, push, first_push)` of the kernel: steady per-firing rates
/// plus the distinct first-firing push count when one exists.
fn kernel_rates(node: &FlatNode) -> (usize, usize, usize, Option<usize>) {
    match &node.kind {
        NodeKind::Linear(exec) => {
            let n = exec.node();
            (n.peek(), n.pop(), n.push(), None)
        }
        NodeKind::Freq(exec) => {
            let spec = exec.spec();
            let (peek, pop, push) = spec.work_rates();
            let first = spec.init_work_rates().map(|(_, _, pu)| pu);
            (peek, pop, push, first)
        }
        NodeKind::Interp(s) => {
            let w = &s.inst.work;
            (w.peek, w.pop, w.push, None)
        }
        _ => unreachable!("kernel_rates is only called on fissable nodes"),
    }
}

/// Picks the widest feasible width `<= requested` and the smallest cycle
/// expansion `scale` (a divisor of the run's cycle `quantum`) such that
/// the `q` steady firings of the target node split evenly:
/// `width · batch = q · scale`. With the default quantum of 4 the
/// candidate scales are `{1, 2, 4}`.
fn choose_width(requested: usize, q: u64, quantum: u64) -> Option<(usize, u64)> {
    for w in (2..=requested.max(2)).rev() {
        for scale in 1..=quantum {
            if !quantum.is_multiple_of(scale) {
                continue;
            }
            if (q * scale).is_multiple_of(w as u64) {
                return Some((w, scale));
            }
        }
    }
    None
}

/// Plans and applies fission of the dominant node of a planned flat
/// graph. Returns the rewritten graph (recompile its plan before
/// executing) and a description of the decision.
///
/// The fault matrix's `nofission` drill never reaches this pass: a run
/// spec whose fault plan carries the directive normalises to
/// [`Fission::Off`] (see [`crate::spec::RunSpec::plan`]), so the graph
/// runs unfissed exactly like any organic refusal.
///
/// # Errors
///
/// Returns the reason no fission was applied: the mode is off, the
/// dominant node is not duplicable ([`fissability`]), no feasible width
/// exists, or (in [`Fission::Auto`]) the cost model says splitting would
/// not help the requested thread count.
pub fn fiss_bottleneck(
    flat: &FlatGraph,
    plan: &ExecPlan,
    mode: Fission,
    threads: usize,
    model: &CostModel,
    quantum: u64,
) -> Result<(FlatGraph, FissionInfo), String> {
    let requested = match mode {
        Fission::Off => return Err("fission off".into()),
        Fission::Width(w) if w <= 1 => return Err("fission width 1 is a no-op".into()),
        Fission::Width(w) => w,
        Fission::Auto => 0, // resolved against the cost model below
    };

    // Per-cycle firings and costs, as the partitioner sees them.
    let mut firings = vec![0u64; flat.nodes.len()];
    for step in plan.stepped() {
        firings[step.node] += step.times as u64;
    }
    let mut init_fires = vec![0u64; flat.nodes.len()];
    for step in &plan.init {
        init_fires[step.node] += step.times as u64;
    }
    let costs: Vec<f64> = flat
        .nodes
        .iter()
        .zip(&firings)
        .map(|(n, &f)| f as f64 * crate::partition::firing_cost(n, model))
        .collect();
    let total: f64 = costs.iter().sum();
    let (target, &node_cost) = costs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .ok_or_else(|| "empty graph".to_string())?;
    let kind = fissability(&flat.nodes[target])?;
    let q = firings[target];

    let requested = if mode == Fission::Auto {
        if threads <= 1 {
            return Err("auto fission needs more than one thread".into());
        }
        let ideal = total / threads as f64;
        if node_cost <= ideal * 1.05 {
            return Err(format!(
                "{}: already below the per-thread cost target",
                flat.nodes[target].name
            ));
        }
        // Enough duplicates to bring the bottleneck down to the ideal
        // per-thread share, but never more than one per thread.
        ((node_cost / ideal).ceil() as usize).min(threads)
    } else {
        requested
    };

    let (width, scale) = choose_width(requested, q, quantum)
        .ok_or_else(|| format!("no feasible width <= {requested} for {q} firings/cycle"))?;
    let batch = (q * scale / width as u64) as usize;

    let (peek, pop, push, kernel_first_push) = kernel_rates(&flat.nodes[target]);
    if mode == Fission::Auto {
        // Duplicated overlap is pure copying; refuse when it would rival
        // the kernel work it unlocks.
        let overlap = (peek.saturating_sub(pop)
            + if kind == FissKind::FreqOptimized {
                pop
            } else {
                0
            }) as f64;
        let per_round_work =
            batch as f64 * crate::partition::firing_cost(&flat.nodes[target], model);
        if per_round_work < 8.0 * overlap {
            return Err(format!(
                "{}: window duplication would dominate the split work",
                flat.nodes[target].name
            ));
        }
    }

    let info = FissionInfo {
        node: flat.nodes[target].name.clone(),
        width,
        batch,
        scale,
        kind: kind.label(),
    };
    let fissed = apply(
        flat,
        target,
        kind,
        width,
        batch,
        (peek, pop, push),
        kernel_first_push,
        init_fires[target] as usize,
    );
    Ok((fissed, info))
}

/// Rewrites the graph: the target node becomes the splitter (keeping its
/// index and input channel), and the workers plus the joiner (taking over
/// the original output channel) are appended. `init_fires` is how many
/// times the unfissed plan fired the node during its init phase — worker
/// 0 replays exactly those firings as the subgraph's distinct first
/// phase, keeping the fissed init's counted work identical to the
/// unfissed plan's.
#[allow(clippy::too_many_arguments)]
fn apply(
    flat: &FlatGraph,
    target: usize,
    kind: FissKind,
    width: usize,
    batch: usize,
    rates: (usize, usize, usize),
    kernel_first_push: Option<usize>,
    init_fires: usize,
) -> FlatGraph {
    let (peek, pop, push) = rates;
    let prefix_mode = kind == FissKind::FreqOptimized;
    let (prefix, suffix) = if prefix_mode {
        (pop, 0)
    } else {
        (0, peek.saturating_sub(pop))
    };
    debug_assert!(
        !prefix_mode || init_fires >= 1,
        "a distinct-first kernel always fires during init"
    );

    let mut nodes = flat.nodes.clone();
    let mut num_channels = flat.num_channels;
    let original = nodes[target].clone();
    let in_chan = original.inputs[0];
    let out_chan = original.outputs[0];
    let kernel = match original.kind {
        NodeKind::Linear(exec) => FissKernel::Linear(exec),
        NodeKind::Freq(exec) => FissKernel::Freq(exec),
        NodeKind::Interp(state) => FissKernel::Interp(state),
        _ => unreachable!("fissability only accepts kernel nodes"),
    };

    let worker_ins: Vec<usize> = (0..width)
        .map(|_| {
            let c = num_channels;
            num_channels += 1;
            c
        })
        .collect();
    let worker_outs: Vec<usize> = (0..width)
        .map(|_| {
            let c = num_channels;
            num_channels += 1;
            c
        })
        .collect();

    // Worker 0's distinct first firing replays the unfissed init batch;
    // its push count folds in the kernel's own distinct first firing.
    let first_take = if init_fires > 0 {
        kernel_first_push.unwrap_or(push) + (init_fires - 1) * push
    } else {
        0
    };

    nodes[target] = FlatNode {
        name: format!("fiss-split[{width}x{batch}]"),
        kind: NodeKind::FissSplit(FissSplit {
            share: batch * pop,
            suffix,
            prefix,
            width,
            first_share: init_fires * pop,
            first: true,
            carry: Vec::new(),
            scratch: Vec::new(),
        }),
        inputs: vec![in_chan],
        outputs: worker_ins.clone(),
    };
    for (k, (&cin, &cout)) in worker_ins.iter().zip(&worker_outs).enumerate() {
        nodes.push(FlatNode {
            name: format!("fiss[{k}/{width}] {}", original.name),
            kind: NodeKind::FissWorker(FissWorker {
                kernel: kernel.clone(),
                peek,
                pop,
                push,
                batch,
                prefix,
                first_fires: if k == 0 { init_fires } else { 0 },
                first_kernel_push: if k == 0 { kernel_first_push } else { None },
                first: true,
            }),
            inputs: vec![cin],
            outputs: vec![cout],
        });
    }
    nodes.push(FlatNode {
        name: format!("fiss-join[{width}x{batch}]"),
        kind: NodeKind::FissJoin(FissJoin {
            weight: batch * push,
            width,
            first_take,
            first: true,
        }),
        inputs: worker_outs,
        outputs: vec![out_chan],
    });

    FlatGraph {
        nodes,
        num_channels,
        initial: flat.initial.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::flatten;
    use crate::linear_exec::MatMulStrategy;
    use crate::plan::compile;
    use streamlin_core::opt::OptStream;

    fn flat_for(src: &str) -> FlatGraph {
        let p = streamlin_lang::parse(src).unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        flatten(&OptStream::from_graph(&g), MatMulStrategy::Unrolled).unwrap()
    }

    #[test]
    fn stateless_filter_is_fissable() {
        let flat = flat_for(
            "void->void pipeline Main { add S(); add G(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter G {
                 float k;
                 init { k = 3.0; }
                 work peek 2 pop 1 push 1 { push(k * peek(1) + peek(0)); pop(); }
             }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let g = flat.nodes.iter().find(|n| n.name.starts_with("G")).unwrap();
        assert_eq!(fissability(g), Ok(FissKind::StatelessInterp));
    }

    #[test]
    fn stateful_filter_is_refused() {
        let flat = flat_for(
            "void->void pipeline Main { add S(); add A(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter A { float acc; work pop 1 push 1 { acc += pop(); push(acc); } }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let a = flat.nodes.iter().find(|n| n.name.starts_with("A")).unwrap();
        let err = fissability(a).unwrap_err();
        assert!(err.contains("mutates persistent state"), "{err}");
    }

    #[test]
    fn printing_filter_is_refused() {
        let flat = flat_for(
            "void->void pipeline Main { add S(); add P(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter P { work pop 1 push 1 { float v = pop(); println(v); push(v); } }
             float->void filter K { work pop 1 { pop(); } }",
        );
        let p = flat.nodes.iter().find(|n| n.name.starts_with("P")).unwrap();
        let err = fissability(p).unwrap_err();
        assert!(err.contains("printing"), "{err}");
    }

    #[test]
    fn width_selection_expands_the_cycle_only_when_needed() {
        // q = 4: widths 2 and 4 fit in one cycle; width 3 never divides
        // 4·scale for scale in {1, 2, 4}, so it downgrades to 2.
        assert_eq!(choose_width(2, 4, 4), Some((2, 1)));
        assert_eq!(choose_width(4, 4, 4), Some((4, 1)));
        assert_eq!(choose_width(3, 4, 4), Some((2, 1)));
        // q = 1: every width needs a cycle expansion.
        assert_eq!(choose_width(2, 1, 4), Some((2, 2)));
        assert_eq!(choose_width(4, 1, 4), Some((4, 4)));
        assert_eq!(choose_width(3, 1, 4), Some((2, 2)));
        // q = 3: width 3 fits exactly.
        assert_eq!(choose_width(3, 3, 4), Some((3, 1)));
    }

    #[test]
    fn width_selection_honors_the_run_quantum() {
        // Quantum 1 forbids any cycle expansion: q = 1 admits no width.
        assert_eq!(choose_width(2, 1, 1), None);
        assert_eq!(choose_width(2, 2, 1), Some((2, 1)));
        // Quantum 3 admits scale 3 where the default quantum could not.
        assert_eq!(choose_width(3, 1, 3), Some((3, 3)));
        // Quantum 8 keeps preferring the smallest feasible expansion.
        assert_eq!(choose_width(4, 2, 8), Some((4, 2)));
        assert_eq!(choose_width(8, 1, 8), Some((8, 8)));
    }

    #[test]
    fn fissing_rewrites_the_graph_shape() {
        let flat = flat_for(
            "void->void pipeline Main { add S(); add G(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter G {
                 work peek 2 pop 1 push 1 { push(peek(1) - peek(0)); pop(); }
             }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let plan = compile(&flat).unwrap();
        let (fissed, info) = fiss_bottleneck(
            &flat,
            &plan,
            Fission::Width(2),
            2,
            &CostModel::default(),
            crate::parallel::CYCLE_QUANTUM,
        )
        .unwrap();
        assert_eq!(info.width, 2);
        assert_eq!(
            fissed
                .nodes
                .iter()
                .filter(|n| matches!(n.kind, NodeKind::FissWorker(_)))
                .count(),
            2
        );
        // The fissed graph still compiles to a static plan.
        compile(&fissed).unwrap();
    }
}
