//! The in-process path from source text to a running engine, called
//! through the public functions listed in the README and nothing else.

use std::hint::black_box;

use streamlin_core::combine::{analyze_graph, replace, ReplaceOptions};
use streamlin_core::cost::CostModel;
use streamlin_core::opt::OptStream;
use streamlin_core::select::{select, SelectOptions};
use streamlin_runtime::flat::{flatten, FlatGraph};
use streamlin_runtime::plan::{self, ExecPlan, PlanEngine};
use streamlin_runtime::{Engine, MatMulStrategy, RunError};
use streamlin_support::{Recorder, Tally};

use crate::trace::Tracer;

/// Which optimisation the chain applies between analysis and flattening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Automatic selection (`--config autosel`, the daemon's default):
    /// the configuration every workload runs.
    AutoSel,
    /// Maximal linear replacement, time domain only (`--config linear`).
    Linear,
    /// Per-filter linear replacement without combination: the paper's
    /// baseline for Figs 5-1 to 5-3.
    Baseline,
    /// No replacement at all; the oracle behind `expected/*.txt`.
    Unoptimised,
}

impl Variant {
    /// The name `streamlinc --config` and the protocol's `"config"` use.
    pub fn config(self) -> &'static str {
        match self {
            Variant::AutoSel => "autosel",
            Variant::Linear => "linear",
            Variant::Baseline => "baseline",
            Variant::Unoptimised => unreachable!("the oracle never leaves the process"),
        }
    }
}

/// Sizes read off the intermediate results of one chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub tokens: usize,
    pub filters: usize,
    pub bytecode_ops: usize,
    pub phases: usize,
    pub certified_phases: usize,
    pub linear_filters: usize,
    pub select_linear_nodes: usize,
    pub select_freq_nodes: usize,
    pub flat_nodes: usize,
    pub plan_steady_firings: u64,
    pub plan_buffer_slots: usize,
}

/// An executable program: the flat graph and, unless it has a feedback
/// loop, its static plan.
#[derive(Clone)]
pub struct Compiled {
    pub flat: FlatGraph,
    pub plan: Option<ExecPlan>,
    pub counts: Counts,
}

/// Source text to executable plan, the way `streamlinc` and `streamlind`
/// do it (`--sched auto`): tokenize, parse, elaborate, analyze, select,
/// flatten, plan. One span per layer under a `compile` root.
pub fn compile(
    src: &str,
    variant: Variant,
    strategy: MatMulStrategy,
    tr: &mut Tracer,
) -> Result<Compiled, String> {
    let root = tr.begin("compile");
    let result = compile_chain(src, variant, strategy, tr);
    tr.end(root);
    result
}

fn compile_chain(
    src: &str,
    variant: Variant,
    strategy: MatMulStrategy,
    tr: &mut Tracer,
) -> Result<Compiled, String> {
    let mut counts = Counts::default();

    let s = tr.begin("lang.lex");
    let tokens = streamlin_lang::lexer::tokenize(src);
    tr.end(s);
    counts.tokens = black_box(tokens).map_err(|e| e.message)?.len();

    let s = tr.begin("lang.parse");
    let program = streamlin_lang::parse(src);
    tr.end(s);
    let program = program.map_err(|e| e.to_string())?;

    let s = tr.begin("graph.elaborate");
    let graph = streamlin_graph::elaborate(&program);
    tr.end(s);
    let graph = graph.map_err(|e| e.to_string())?;
    graph.for_each_filter(&mut |inst| {
        counts.filters += 1;
        counts.bytecode_ops += inst.lowered.work.code.len();
        counts.phases += 1;
        counts.certified_phases += usize::from(inst.facts.phase_certified(false));
        if let Some(init) = &inst.lowered.init_work {
            counts.bytecode_ops += init.code.len();
            counts.phases += 1;
            counts.certified_phases += usize::from(inst.facts.phase_certified(true));
        }
    });

    let s = tr.begin("core.extract");
    let analysis = analyze_graph(&graph);
    tr.end(s);
    counts.linear_filters = analysis.linear_count();

    let s = tr.begin("core.select");
    let opt = match variant {
        Variant::AutoSel => select(
            &graph,
            &analysis,
            &CostModel::default(),
            &SelectOptions::default(),
        )
        .map(|sel| sel.opt)
        .map_err(|e| e.message),
        Variant::Linear => Ok(replace(
            &graph,
            &analysis,
            &ReplaceOptions::maximal_linear(),
        )),
        Variant::Baseline => Ok(replace(&graph, &analysis, &ReplaceOptions::per_filter())),
        Variant::Unoptimised => Ok(OptStream::from_graph(&graph)),
    };
    tr.end(s);
    let opt = opt?;
    let stats = opt.stats();
    counts.select_linear_nodes = stats.linear;
    counts.select_freq_nodes = stats.freq;

    let s = tr.begin("runtime.flatten");
    let flat = flatten(&opt, strategy);
    tr.end(s);
    let flat = flat.map_err(|e| e.message)?;
    counts.flat_nodes = flat.nodes.len();

    let s = tr.begin("runtime.plan");
    let plan = if opt.has_feedback() {
        None
    } else {
        plan::compile(&flat).ok()
    };
    tr.end(s);
    if let Some(p) = &plan {
        counts.plan_steady_firings = p.steady_firings();
        counts.plan_buffer_slots = p.buffer_slots();
    }

    Ok(Compiled { flat, plan, counts })
}

/// A fresh engine over a compiled program: the static plan engine, or
/// the data-driven one when there is no plan (DToA's feedback loop).
pub enum AnyEngine<T: Tally> {
    Plan(PlanEngine<T>),
    Dynamic(Engine<T>),
}

impl<T: Tally + Default> AnyEngine<T> {
    /// Clones graph and plan out of `c` and builds the engine, which is
    /// what a cache-hit `open` pays inside the daemon.
    pub fn new(c: &Compiled) -> Self {
        match &c.plan {
            Some(p) => AnyEngine::Plan(PlanEngine::new(c.flat.clone(), p.clone())),
            None => AnyEngine::Dynamic(Engine::new(c.flat.clone())),
        }
    }

    /// The data-driven engine regardless of plan (the reference oracle).
    pub fn dynamic(c: &Compiled) -> Self {
        AnyEngine::Dynamic(Engine::new(c.flat.clone()))
    }
}

impl<T: Tally> AnyEngine<T> {
    pub fn run_until_outputs(&mut self, n: usize) -> Result<(), RunError> {
        match self {
            AnyEngine::Plan(e) => e.run_until_outputs(n),
            AnyEngine::Dynamic(e) => e.run_until_outputs(n),
        }
    }

    pub fn run_probed(&mut self, n: usize, rec: &mut Recorder) -> Result<(), RunError> {
        match self {
            AnyEngine::Plan(e) => e.run_probed(n, rec),
            AnyEngine::Dynamic(e) => e.run_probed(n, rec),
        }
    }

    pub fn printed(&self) -> &[f64] {
        match self {
            AnyEngine::Plan(e) => e.printed(),
            AnyEngine::Dynamic(e) => e.printed(),
        }
    }

    pub fn firings(&self) -> u64 {
        match self {
            AnyEngine::Plan(e) => e.firings(),
            AnyEngine::Dynamic(e) => e.firings(),
        }
    }

    pub fn ops(&self) -> &T {
        match self {
            AnyEngine::Plan(e) => e.ops(),
            AnyEngine::Dynamic(e) => e.ops(),
        }
    }
}

/// The first `n` outputs of a compiled program.
pub fn outputs<T: Tally + Default>(c: &Compiled, n: usize) -> Result<Vec<f64>, String> {
    let mut e = AnyEngine::<T>::new(c);
    e.run_until_outputs(n).map_err(|e| e.to_string())?;
    let printed = e.printed();
    if printed.len() < n {
        return Err(format!("printed {} of {n} outputs", printed.len()));
    }
    Ok(printed[..n].to_vec())
}
