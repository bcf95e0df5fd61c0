//! Lowering an optimized stream to a flat node/channel graph.
//!
//! Every node comes from what elaboration and selection decided: a
//! kernel from its optimized node, and an original filter either
//! interpreted on the run's tier or, where its facts say it is plumbing
//! ([`Plumbing`]), a native source or sink. Nothing here looks at a work
//! body.

use std::sync::Arc;

use streamlin_core::frequency::FreqExec;
use streamlin_core::opt::OptStream;
use streamlin_core::redundancy::RedundExec;
use streamlin_graph::analyze::Plumbing;
use streamlin_graph::bytecode::Regs;
use streamlin_graph::ir::{FilterInst, Splitter};
use streamlin_graph::value::{Cell, Value};
use streamlin_lang::ast::DataType;
use streamlin_support::Recorder;

use crate::linear_exec::{LinearExec, MatMulStrategy};

/// Errors from flattening.
#[derive(Debug, Clone, PartialEq)]
pub struct FlattenError {
    /// Explanation of the structural problem.
    pub message: String,
}

impl std::fmt::Display for FlattenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flatten error: {}", self.message)
    }
}

impl std::error::Error for FlattenError {}

/// Which evaluator runs interpreted work functions.
///
/// Both tiers execute the same slot-resolved filter and are pinned
/// bit-identical (outputs, prints, operation tallies) by
/// `tests/interp_differential.rs`; the choice is a field of the run's
/// [`crate::spec::PlanSpec`], sampled into every [`InterpState`] when the
/// graph is built, so a node never changes tier mid-run and two graphs in
/// one process can run on different tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// The typed register bytecode (`lowered.*.code`). The default.
    #[default]
    Bytecode,
    /// The reference evaluator over the resolved body: the abstract
    /// walker's concrete domain ([`streamlin_graph::absint::exec`]).
    TreeWalk,
}

/// Mutable interpreter state of an original filter instance. Storage is
/// slot-resolved (see [`streamlin_graph::lower`]): persistent cells live
/// in a `Vec` ordered by the lowered filter's global-slot table; scalar
/// locals live in the bytecode's registers, local arrays (and everything
/// the tree-walker declares) in a frame `Vec` — all reused across firings,
/// no `HashMap` and no allocation on the firing path.
#[derive(Debug, Clone)]
pub struct InterpState {
    /// The elaborated filter. `Arc` (not the graph's `Rc`) so flat nodes
    /// can move to the pipeline executor's worker threads.
    pub inst: Arc<FilterInst>,
    /// Persistent cells (fields, parameters, captured constants), indexed
    /// by the global slots of `inst.lowered` (a mutable copy of the
    /// initial values).
    pub globals: Vec<Cell>,
    /// Local frame scratch, sized for the largest phase; every local is
    /// declared before use, so contents never leak between firings.
    pub frame: Vec<Cell>,
    /// True until the first firing has happened (selects `initWork`).
    pub first: bool,
    /// The work phase holds a [`streamlin_graph::analyze::RateCert`] and
    /// the run asked for elision: firings skip per-access tape checks and
    /// post-firing rate validation.
    pub work_certified: bool,
    /// Same for the first-firing phase.
    pub init_certified: bool,
    /// Firings execute the compiled bytecode (`lowered.*.code`) instead
    /// of tree-walking the resolved body ([`Tier::Bytecode`]).
    pub use_bytecode: bool,
    /// The bytecode's register files, kept between firings so a firing
    /// allocates nothing, and its fused-loop counters.
    pub regs: Regs,
}

impl InterpState {
    /// Instantiates runtime storage for a filter from its elaborated
    /// initial state (one deep copy per instantiation — the graph hands
    /// out `Rc`s, the runtime needs thread-shareable nodes). `cert`
    /// enables the certified unchecked-tape path for phases that hold a
    /// certificate; without it every access is checked.
    pub fn new(inst: &FilterInst, tier: Tier, cert: bool) -> Self {
        let globals = inst
            .lowered
            .globals
            .iter()
            .map(|name| {
                inst.state
                    .get(name)
                    .unwrap_or_else(|| panic!("lowered global `{name}` missing from state"))
                    .clone()
            })
            .collect();
        let frame = vec![Cell::Scalar(DataType::Int, Value::Int(0)); inst.lowered.frame_slots()];
        InterpState {
            work_certified: cert && inst.facts.work.cert.is_some(),
            init_certified: cert
                && inst
                    .facts
                    .init_work
                    .as_ref()
                    .is_some_and(|p| p.cert.is_some()),
            inst: Arc::new(inst.clone()),
            globals,
            frame,
            first: true,
            use_bytecode: tier == Tier::Bytecode,
            regs: Regs::default(),
        }
    }
}

/// An executable node kind.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// Interpreted original filter.
    Interp(InterpState),
    /// Direct linear node.
    Linear(LinearExec),
    /// Frequency-domain stage.
    Freq(FreqExec),
    /// Redundancy-eliminated node.
    Redund(RedundExec),
    /// Keeps the first `push` of every `pop` items (the paper's
    /// `Decimator(o, u)` after a frequency stage).
    Decimator {
        /// Items consumed per firing.
        pop: usize,
        /// Items kept per firing.
        push: usize,
    },
    /// A ring-buffer source ([`Plumbing::Periodic`]): pushes the first
    /// `m` elements of its table cyclically, one table read per firing
    /// instead of an interpreter round trip.
    Periodic {
        /// The cycle (the first `m` array elements, starting phase
        /// applied), shared by every clone of the node.
        values: Arc<[f64]>,
        /// Next position in the cycle.
        pos: usize,
    },
    /// A printing sink ([`Plumbing::PrintSink`]): every consumed item
    /// becomes a program output, one slice append per firing.
    PrintSink {
        /// Items consumed (= printed) per firing.
        pop: usize,
    },
    /// A discarding sink ([`Plumbing::DiscardSink`]): consumes silently
    /// (Figure A-1's FloatSink).
    DiscardSink {
        /// Items consumed per firing.
        pop: usize,
    },
    /// Duplicate splitter (1 in, one copy to each output).
    Duplicate,
    /// Weighted round-robin splitter.
    SplitRR(Vec<usize>),
    /// Weighted round-robin joiner.
    JoinRR(Vec<usize>),
}

/// A node with its channel wiring.
#[derive(Debug, Clone)]
pub struct FlatNode {
    /// Display name for diagnostics.
    pub name: String,
    /// Executor.
    pub kind: NodeKind,
    /// Input channel ids.
    pub inputs: Vec<usize>,
    /// Output channel ids.
    pub outputs: Vec<usize>,
}

impl NodeKind {
    /// The immutable table a kernel node shares with every clone of it,
    /// as identity and bytes: what a compiled artifact retains for the
    /// node beyond its per-session state. `None` for interpreted filters
    /// and plumbing.
    pub fn table(&self) -> Option<(*const (), usize)> {
        match self {
            NodeKind::Linear(exec) => Some(exec.table()),
            NodeKind::Freq(exec) => Some(exec.spec().table()),
            NodeKind::Redund(exec) => Some(exec.spec().table()),
            NodeKind::Periodic { values, .. } => Some((values.as_ptr().cast(), 8 * values.len())),
            _ => None,
        }
    }
}

impl FlatNode {
    /// The interpreter state of a node that runs a work function.
    pub fn interp(&self) -> Option<&InterpState> {
        match &self.kind {
            NodeKind::Interp(state) => Some(state),
            _ => None,
        }
    }
}

/// Says which tier runs each interpreted filter: an `interp` note per
/// filter — `typed`, or `treewalk` when the run asked for the reference
/// tier or the typer refused the steady phase — and a `typer` note per
/// refused phase with the reason, so a body that silently fell off the
/// fast tier shows in `--emit-graph`, `--metrics` and the trace.
pub(crate) fn note_tiers(nodes: &[FlatNode], rec: &mut Recorder) {
    for (node, state) in nodes.iter().filter_map(|n| Some((n, n.interp()?))) {
        let lowered = &state.inst.lowered;
        let phases = [
            ("work", Some(&lowered.work)),
            ("initWork", lowered.init_work.as_ref()),
        ];
        for (phase, work) in phases {
            if let Some(why) = work.and_then(|w| w.code.refusal()) {
                rec.note("typer", &format!("{} {phase} refused: {why}", node.name));
            }
        }
        let typed = state.use_bytecode && lowered.work.code.refusal().is_none();
        let tier = if typed { "typed" } else { "treewalk" };
        rec.note("interp", &format!("{}: {tier}", node.name));
    }
}

/// A `fused` note per filter that entered a fused dot-product loop: how
/// often one ran natively against how often its entry check bailed to the
/// typed code of the same loop. Nothing on an unrecorded run.
pub(crate) fn note_fused_loops(nodes: &[FlatNode], probe: Option<&mut Recorder>) {
    let Some(rec) = probe else { return };
    for (node, state) in nodes.iter().filter_map(|n| Some((n, n.interp()?))) {
        let (runs, bails) = (state.regs.dot_runs, state.regs.dot_bails);
        if runs + bails > 0 {
            let text = format!("{}: {} entries, {bails} bails", node.name, runs + bails);
            rec.note("fused", &text);
        }
    }
}

/// A flattened program. A clone shares every kernel's immutable table
/// ([`NodeKind::table`]: coefficients, spectra, twiddles, redundancy
/// tuples, periodic values) and copies only what a session mutates: the
/// wiring, interpreted filters' globals, and kernel scratch, which stays
/// empty until a node first fires.
#[derive(Debug, Clone)]
pub struct FlatGraph {
    /// All nodes.
    pub nodes: Vec<FlatNode>,
    /// Number of channels.
    pub num_channels: usize,
    /// Initial channel contents: one entry per feedback loop, its back
    /// edge and the items it `enqueue`s (none, for a loop that enqueues
    /// nothing).
    pub initial: Vec<(usize, Vec<f64>)>,
}

/// Flattens an optimized stream on the default interpreter tier
/// ([`Tier::Bytecode`], certified tape elision on).
///
/// # Errors
///
/// As [`flatten_with`].
pub fn flatten(opt: &OptStream, strategy: MatMulStrategy) -> Result<FlatGraph, FlattenError> {
    flatten_with(opt, strategy, Tier::default(), true)
}

/// Flattens an optimized stream, building every interpreted node on
/// `tier` with certified tape elision per `cert`.
///
/// # Errors
///
/// Fails if the stream is not closed (the top level must consume and
/// produce nothing, like StreamIt's `void->void` programs) or if the
/// structure is malformed.
pub fn flatten_with(
    opt: &OptStream,
    strategy: MatMulStrategy,
    tier: Tier,
    cert: bool,
) -> Result<FlatGraph, FlattenError> {
    let mut b = Builder {
        nodes: Vec::new(),
        num_channels: 0,
        initial: Vec::new(),
        strategy,
        tier,
        cert,
    };
    let out = b.build(opt, None)?;
    if out.is_some() {
        return Err(FlattenError {
            message: "program produces output with no consumer (top level must be void->void)"
                .into(),
        });
    }
    Ok(FlatGraph {
        nodes: b.nodes,
        num_channels: b.num_channels,
        initial: b.initial,
    })
}

struct Builder {
    nodes: Vec<FlatNode>,
    num_channels: usize,
    initial: Vec<(usize, Vec<f64>)>,
    strategy: MatMulStrategy,
    tier: Tier,
    cert: bool,
}

impl Builder {
    fn chan(&mut self) -> usize {
        let id = self.num_channels;
        self.num_channels += 1;
        id
    }

    fn err(msg: impl Into<String>) -> FlattenError {
        FlattenError {
            message: msg.into(),
        }
    }

    fn add_node(&mut self, name: String, kind: NodeKind, inputs: Vec<usize>, outputs: Vec<usize>) {
        self.nodes.push(FlatNode {
            name,
            kind,
            inputs,
            outputs,
        });
    }

    /// Builds a stream, connecting it to `input`; returns its output
    /// channel (None for sinks).
    fn build(
        &mut self,
        opt: &OptStream,
        input: Option<usize>,
    ) -> Result<Option<usize>, FlattenError> {
        match opt {
            OptStream::Original(inst) => {
                let needs_input = inst.work.peek > 0 || inst.work.pop > 0;
                if needs_input && input.is_none() {
                    return Err(Self::err(format!(
                        "filter {} expects input but has none",
                        inst.name
                    )));
                }
                let out = (inst.work.push > 0
                    || inst.init_work.as_ref().is_some_and(|w| w.push > 0))
                .then(|| self.chan());
                let kind = compile_peephole(inst).unwrap_or_else(|| {
                    NodeKind::Interp(InterpState::new(inst, self.tier, self.cert))
                });
                self.add_node(
                    inst.name.clone(),
                    kind,
                    input.filter(|_| needs_input).into_iter().collect(),
                    out.into_iter().collect(),
                );
                Ok(out)
            }
            OptStream::Linear(node) => {
                let needs_input = node.peek() > 0 || node.pop() > 0;
                if needs_input && input.is_none() {
                    return Err(Self::err("linear node expects input but has none"));
                }
                let out = (node.push() > 0).then(|| self.chan());
                self.add_node(
                    format!("linear[{}x{}]", node.peek(), node.push()),
                    NodeKind::Linear(LinearExec::new(node.clone(), self.strategy)),
                    input.filter(|_| needs_input).into_iter().collect(),
                    out.into_iter().collect(),
                );
                Ok(out)
            }
            OptStream::Redund(spec) => {
                let input =
                    input.ok_or_else(|| Self::err("redundancy node expects input but has none"))?;
                let node = spec.node().clone();
                let out = (node.push() > 0).then(|| self.chan());
                self.add_node(
                    format!("redund[{}]", spec.reused().len()),
                    NodeKind::Redund(RedundExec::new(spec.clone())),
                    vec![input],
                    out.into_iter().collect(),
                );
                Ok(out)
            }
            OptStream::Freq(spec) => {
                let input =
                    input.ok_or_else(|| Self::err("frequency node expects input but has none"))?;
                let stage_out = self.chan();
                self.add_node(
                    format!("freq[N={}]", spec.n()),
                    NodeKind::Freq(FreqExec::new(spec.clone())),
                    vec![input],
                    vec![stage_out],
                );
                match spec.decimator_rates() {
                    None => Ok(Some(stage_out)),
                    Some((pop, push)) => {
                        let out = self.chan();
                        self.add_node(
                            format!("decimate[{pop}->{push}]"),
                            NodeKind::Decimator { pop, push },
                            vec![stage_out],
                            vec![out],
                        );
                        Ok(Some(out))
                    }
                }
            }
            OptStream::Pipeline(children) => {
                let mut cur = input;
                for (i, child) in children.iter().enumerate() {
                    let out = self.build(child, cur)?;
                    if out.is_none() && i + 1 < children.len() {
                        return Err(Self::err(
                            "pipeline stage produces no output but has downstream stages",
                        ));
                    }
                    cur = out;
                }
                Ok(cur)
            }
            OptStream::SplitJoin {
                split,
                children,
                join,
            } => {
                if join.weights.len() != children.len() {
                    return Err(Self::err("joiner weight count mismatch"));
                }
                // Distribute input (a splitjoin of sources has no splitter).
                let child_inputs: Vec<Option<usize>> = match input {
                    None => vec![None; children.len()],
                    Some(input) => {
                        let outs: Vec<usize> = (0..children.len()).map(|_| self.chan()).collect();
                        let kind = match split {
                            Splitter::Duplicate => NodeKind::Duplicate,
                            Splitter::RoundRobin(w) => {
                                if w.len() != children.len() {
                                    return Err(Self::err("splitter weight count mismatch"));
                                }
                                NodeKind::SplitRR(w.clone())
                            }
                        };
                        self.add_node("split".into(), kind, vec![input], outs.clone());
                        outs.into_iter().map(Some).collect()
                    }
                };
                let mut child_outs = Vec::with_capacity(children.len());
                for (child, ci) in children.iter().zip(child_inputs) {
                    let out = self.build(child, ci)?.ok_or_else(|| {
                        Self::err("splitjoin child produces no output for the joiner")
                    })?;
                    child_outs.push(out);
                }
                let out = self.chan();
                self.add_node(
                    "join".into(),
                    NodeKind::JoinRR(join.weights.clone()),
                    child_outs,
                    vec![out],
                );
                Ok(Some(out))
            }
            OptStream::FeedbackLoop {
                join,
                body,
                loop_stream,
                split,
                enqueue,
            } => {
                let input = input.ok_or_else(|| Self::err("feedbackloop expects input"))?;
                // Wire: joiner(input, loop_out) -> body -> splitter(down, loop_in)
                //       loop_in -> loop_stream -> loop_out (preloaded).
                let loop_in = self.chan();
                let loop_out = self
                    .build(loop_stream, Some(loop_in))?
                    .ok_or_else(|| Self::err("feedback loop stream produces no output"))?;
                // Listed even when empty: it marks the loop's back edge.
                self.initial.push((loop_out, enqueue.clone()));
                let body_in = self.chan();
                self.add_node(
                    "fb-join".into(),
                    NodeKind::JoinRR(join.weights.clone()),
                    vec![input, loop_out],
                    vec![body_in],
                );
                let body_out = self
                    .build(body, Some(body_in))?
                    .ok_or_else(|| Self::err("feedback body produces no output"))?;
                let down = self.chan();
                let kind = match split {
                    Splitter::Duplicate => NodeKind::Duplicate,
                    Splitter::RoundRobin(w) => NodeKind::SplitRR(w.clone()),
                };
                self.add_node("fb-split".into(), kind, vec![body_out], vec![down, loop_in]);
                Ok(Some(down))
            }
        }
    }
}

/// The native node of a plumbing filter, read off its facts
/// ([`streamlin_graph::analyze::FilterFacts::plumbing`]).
///
/// Benchmark programs spend a large share of their steady state in two
/// trivial interpreted filters: the printing/discarding sink of Figure
/// A-1 and ring-buffer sources like FIR's `FloatSource`. Their work
/// functions are so small that the interpreter round trip costs an order
/// of magnitude more than the work itself, which would put an
/// interpretation floor under every throughput measurement of the
/// compiled kernels. Elaboration proves which filters are plumbing; the
/// node fires with identical semantics — same values bit for bit, same
/// rates, same (zero) floating-point tallies.
fn compile_peephole(inst: &FilterInst) -> Option<NodeKind> {
    Some(match inst.facts.plumbing.as_ref()? {
        Plumbing::PrintSink { pop } => NodeKind::PrintSink { pop: *pop },
        Plumbing::DiscardSink { pop } => NodeKind::DiscardSink { pop: *pop },
        Plumbing::Periodic { values, pos } => NodeKind::Periodic {
            values: Arc::clone(values),
            pos: *pos,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlin_core::node::LinearNode;

    #[test]
    fn closed_pipeline_flattens() {
        let p = streamlin_lang::parse(
            "void->void pipeline Main { add S(); add K(); }
             void->float filter S { work push 1 { push(1.0); } }
             float->void filter K { work pop 1 { println(pop()); } }",
        )
        .unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        let flat = flatten(&OptStream::from_graph(&g), MatMulStrategy::Unrolled).unwrap();
        assert_eq!(flat.nodes.len(), 2);
        assert_eq!(flat.num_channels, 1);
    }

    #[test]
    fn open_graph_is_rejected() {
        let node = OptStream::Linear(LinearNode::fir(&[1.0]));
        let err = flatten(&node, MatMulStrategy::Unrolled).unwrap_err();
        assert!(err.message.contains("input"), "{err}");
    }

    #[test]
    fn freq_node_gets_a_decimator_when_popping() {
        use streamlin_core::frequency::{FreqSpec, FreqStrategy};
        use streamlin_fft::FftKind;
        let node = LinearNode::from_coeffs(4, 2, 1, |i, _| (i + 1) as f64, &[0.0]);
        let spec = FreqSpec::new(&node, FreqStrategy::Naive, FftKind::Tuned, None).unwrap();
        let p = streamlin_lang::parse(
            "void->void pipeline Main { add S(); add K(); }
             void->float filter S { work push 1 { push(1.0); } }
             float->void filter K { work pop 1 { println(pop()); } }",
        )
        .unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        let OptStream::Pipeline(mut children) = OptStream::from_graph(&g) else {
            panic!()
        };
        children.insert(1, OptStream::Freq(spec));
        let flat = flatten(&OptStream::Pipeline(children), MatMulStrategy::Unrolled).unwrap();
        assert!(flat
            .nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::Decimator { .. })));
    }
}
