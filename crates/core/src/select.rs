//! Optimization selection (paper §4.3, Figures 4-3 … 4-6).
//!
//! Maximal replacement is not always profitable: combining can inflate the
//! operation count (the Beamform × FIR blow-up in Radar) and frequency
//! translation sours as pop rates grow. The selection algorithm — conceived
//! by Thies in the paper — explores, with dynamic programming over
//! contiguous child ranges of every container, all ways to cut the graph
//! into regions and, for each region, the three implementations
//! {collapsed-linear, collapsed-frequency, uncollapsed}; memoization makes
//! the exploration polynomial.
//!
//! Pipelines are cut horizontally and splitjoins vertically (with sliced
//! splitter/joiner weights — a valid refactoring for both duplicate and
//! round-robin splitters). The 2-D grid refactoring across
//! splitjoins-of-pipelines is not implemented (REPRODUCTION.md's "Deviations
//! from the paper" records this restriction; the nested DP covers every
//! shape in the benchmark suite).
//! Costs are scaled by firings per global steady state, obtained from the
//! rate solver.
//!
//! The cost of a collapsed region reads only its rates and its counts of
//! nonzero coefficients, so the DP prices a range from its [`Shape`]
//! unless its product is small (`SMALL_PRODUCT`), and forms the large
//! products only for the regions it keeps: `Dp::materialize` folds each
//! kept region's exact node the way the shapes were folded, and prices it
//! again exactly. A shape's counts bound the exact ones from above and
//! differ only where a floating-point sum cancels to exactly `0.0`; so a
//! large product whose coefficients cancel is priced too high, and the DP
//! may then choose differently than exact pricing would. That decisions
//! match exact pricing is checked only on the golden benchmarks and the
//! 200 generated programs of `tests/selection_pricing.rs`, not proven.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::rc::Rc;

use streamlin_fft::FftKind;
use streamlin_graph::ir::{FilterInst, Joiner, Splitter, Stream};
use streamlin_graph::steady::steady_state;

use crate::combine::LinearAnalysis;
use crate::cost::CostModel;
use crate::frequency::{FreqSpec, FreqStrategy};
use crate::node::{Form, LinearError, LinearNode};
use crate::opt::OptStream;
use crate::pipeline::combine_pipeline;
use crate::shape::Shape;
use crate::splitjoin::combine_splitjoin;

/// Options controlling what the selector may choose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectOptions {
    /// Frequency code-generation strategy for chosen regions.
    pub strategy: FreqStrategy,
    /// FFT tier for chosen regions.
    pub kind: FftKind,
    /// Restrict frequency translation to `pop == 1` nodes.
    pub unit_pop_only: bool,
}

impl Default for SelectOptions {
    fn default() -> Self {
        SelectOptions {
            strategy: FreqStrategy::Optimized,
            kind: FftKind::Tuned,
            unit_pop_only: false,
        }
    }
}

/// The selector's output: the chosen structure and its estimated cost per
/// global steady state.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The optimized stream.
    pub opt: OptStream,
    /// Estimated cost of `opt` (model units per steady state; non-linear
    /// filters contribute zero, as in the paper's `getNodeCost`), each
    /// collapsed region priced from its exact node.
    pub cost: f64,
}

/// Errors from selection.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectError {
    /// Explanation (scheduling failures, mostly).
    pub message: String,
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "selection error: {}", self.message)
    }
}

impl std::error::Error for SelectError {}

/// Runs automatic optimization selection over a graph.
///
/// # Errors
///
/// Fails if the graph has no steady-state schedule.
///
/// # Examples
///
/// ```
/// use streamlin_core::cost::CostModel;
/// use streamlin_core::select::{select, SelectOptions};
///
/// let p = streamlin_lang::parse(
///     "void->void pipeline Main { add S(); add G(); add H(); add K(); }
///      void->float filter S { float x; work push 1 { push(x++); } }
///      float->float filter G { work pop 1 push 1 { push(2 * pop()); } }
///      float->float filter H { work pop 1 push 1 { push(pop() + 1); } }
///      float->void filter K { work pop 1 { println(pop()); } }",
/// )
/// .unwrap();
/// let g = streamlin_graph::elaborate(&p).unwrap();
/// let analysis = streamlin_core::analyze_graph(&g);
/// let sel = select(&g, &analysis, &CostModel::default(), &SelectOptions::default()).unwrap();
/// // The two gains collapse into one linear node.
/// assert_eq!(sel.opt.stats().linear, 1);
/// ```
pub fn select(
    stream: &Stream,
    analysis: &LinearAnalysis,
    model: &CostModel,
    opts: &SelectOptions,
) -> Result<Selection, SelectError> {
    // One rate solve for the whole graph: a filter's repetition count is
    // its firings per global steady state, and every flow the DP prices
    // is a sum of filter flows.
    let reps = steady_state(stream)
        .map_err(|e| SelectError { message: e.message })?
        .reps;
    let dp = Dp {
        analysis,
        model,
        opts,
        reps: &reps,
    };
    let best = dp.solve(stream, false).best;
    let (opt, cost) = dp.materialize(&best);
    Ok(Selection {
        opt: opt.flatten_pipelines(),
        cost,
    })
}

// ---- the DP ----------------------------------------------------------------

/// One priced implementation of a region. Choices are shared behind `Rc`
/// — a range's best choice is referenced by every cut that contains it —
/// and stay symbolic until [`Dp::materialize`] builds the winner.
struct Choice<'a> {
    cost: f64,
    plan: Plan<'a>,
}

enum Plan<'a> {
    /// A non-linear filter, left to the interpreter.
    Original(&'a Rc<FilterInst>),
    /// A region collapsed to one linear node, run in the time domain or
    /// (`freq`) the frequency domain, with what it was priced on.
    Collapsed {
        exact: Rc<Exact<'a>>,
        freq: bool,
        firings: f64,
        inflow: f64,
    },
    /// A pipeline range cut horizontally in two.
    PipeCut([Rc<Choice<'a>>; 2]),
    /// Children `lo..=hi` of a splitjoin cut vertically after `pivot`.
    SplitCut {
        split: &'a Splitter,
        join: &'a Joiner,
        lo: usize,
        pivot: usize,
        hi: usize,
        halves: [Rc<Choice<'a>>; 2],
    },
    /// A feedback loop around its solved body and loop path.
    Feedback {
        join: &'a Joiner,
        split: &'a Splitter,
        enqueue: &'a [f64],
        body: Rc<Choice<'a>>,
        loop_stream: Rc<Choice<'a>>,
    },
}

/// A region that can collapse into one linear node: how to form its exact
/// node, its shape, and the items flowing into and out of it per global
/// steady state.
#[derive(Clone)]
struct Whole<'a> {
    exact: Rc<Exact<'a>>,
    /// Combined from the factors' shapes when the region's product is
    /// large; read off its formed node on first use when it is small.
    shape: OnceCell<Rc<Shape>>,
    /// `(peek, pop, push)`.
    rates: [usize; 3],
    /// Nonzero coefficients: exact where the node is formed.
    nnz: usize,
    inflow: f64,
    outflow: f64,
}

impl<'a> Whole<'a> {
    /// A region whose exact node is formed.
    fn formed(exact: Rc<Exact<'a>>, inflow: f64, outflow: f64) -> Self {
        let node = exact.node.get().expect("a formed region");
        Whole {
            rates: [node.peek(), node.pop(), node.push()],
            nnz: node.nnz_a(),
            exact,
            shape: OnceCell::new(),
            inflow,
            outflow,
        }
    }

    /// A region known by its shape.
    fn shaped(exact: Rc<Exact<'a>>, shape: Shape, inflow: f64, outflow: f64) -> Self {
        Whole {
            rates: [shape.peek(), shape.pop(), shape.push()],
            nnz: shape.nnz_a(),
            exact,
            shape: OnceCell::from(Rc::new(shape)),
            inflow,
            outflow,
        }
    }

    fn shape(&self) -> &Shape {
        self.shape.get_or_init(|| {
            let node = self
                .exact
                .node
                .get()
                .expect("a region without a shape is formed");
            Rc::new(Shape::of(node))
        })
    }
}

/// A region's exact node, formed once and kept. A large region's node is
/// formed on first use, and only [`Dp::materialize`] asks: so of the large
/// ranges only kept ones are formed, and a child container's node once
/// however many kept regions hold it. A small one is formed as the DP
/// prices it (see [`SMALL_PRODUCT`]).
struct Exact<'a> {
    node: OnceCell<Rc<LinearNode>>,
    recipe: Recipe<'a>,
}

enum Recipe<'a> {
    /// Formed when made: a linear filter's extracted node.
    Formed,
    /// Children `lo..=hi` of a container, folded as the DP folds their
    /// shapes: a pipeline left to right, a splitjoin all at once.
    Range {
        kind: Container<'a>,
        parts: Rc<[Option<Rc<Exact<'a>>>]>,
        lo: usize,
        hi: usize,
    },
}

impl<'a> Exact<'a> {
    fn new(recipe: Recipe<'a>) -> Rc<Self> {
        Rc::new(Exact {
            node: OnceCell::new(),
            recipe,
        })
    }

    fn formed(node: LinearNode) -> Rc<Self> {
        Rc::new(Exact {
            node: OnceCell::from(Rc::new(node)),
            recipe: Recipe::Formed,
        })
    }

    fn node(&self) -> Rc<LinearNode> {
        let formed = self.node.get_or_init(|| match &self.recipe {
            Recipe::Formed => unreachable!("formed when made"),
            Recipe::Range {
                kind,
                parts,
                lo,
                hi,
            } => {
                let part = |k: usize| parts[k].as_ref().expect("collapsed ranges are linear");
                let combined = "a range whose shape combined combines";
                match kind {
                    Container::Pipe => (lo + 1..=*hi).fold(part(*lo).node(), |acc, k| {
                        #[cfg(test)]
                        COMBINATIONS.with(|c| c.set(c.get() + 1));
                        let node = kind.rule(*lo, k, &[&*acc, &*part(k).node()]);
                        Rc::new(node.expect(combined))
                    }),
                    Container::Split(..) => {
                        #[cfg(test)]
                        COMBINATIONS.with(|c| c.set(c.get() + 1));
                        let nodes: Vec<Rc<LinearNode>> =
                            (*lo..=*hi).map(|k| part(k).node()).collect();
                        let nodes: Vec<&LinearNode> = nodes.iter().map(|n| &**n).collect();
                        Rc::new(kind.rule(*lo, *hi, &nodes).expect(combined))
                    }
                }
            }
        });
        Rc::clone(formed)
    }
}

/// The splitter feeding children `lo..=hi` alone.
fn sliced(split: &Splitter, lo: usize, hi: usize) -> Splitter {
    match split {
        Splitter::Duplicate => Splitter::Duplicate,
        Splitter::RoundRobin(v) => Splitter::RoundRobin(v[lo..=hi].to_vec()),
    }
}

/// What the DP hands up from a solved subtree.
struct Solved<'a> {
    /// `getCost(s, ANY)`: the cheapest implementation.
    best: Rc<Choice<'a>>,
    /// The fully combined subtree, when it exists — what the parent
    /// container folds into its own ranges.
    whole: Option<Whole<'a>>,
}

/// The two container kinds whose child ranges the DP cuts.
#[derive(Clone, Copy)]
enum Container<'a> {
    Pipe,
    Split(&'a Splitter, &'a Joiner),
}

#[cfg(test)]
thread_local! {
    /// Exact coefficient products formed by this thread's selections.
    static COMBINATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Ranges this thread's selections priced from combined shapes.
    static SHAPES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

struct Dp<'a> {
    analysis: &'a LinearAnalysis,
    model: &'a CostModel,
    opts: &'a SelectOptions,
    /// Filter-instance id → firings per global steady state.
    reps: &'a HashMap<usize, u64>,
}

impl<'a> Dp<'a> {
    /// Solves a subtree bottom-up. `in_feedback` is true inside a feedback
    /// loop, where frequency implementations are forbidden (their block
    /// latency can exceed the loop's enqueued slack and deadlock the
    /// cycle).
    fn solve(&self, stream: &'a Stream, in_feedback: bool) -> Solved<'a> {
        match stream {
            Stream::Filter(inst) => self.leaf(inst, in_feedback),
            Stream::Pipeline(children) => {
                let solved = children.iter().map(|c| self.solve(c, in_feedback));
                self.container(Container::Pipe, solved.collect(), in_feedback)
            }
            Stream::SplitJoin {
                split,
                children,
                join,
            } => {
                let solved = children.iter().map(|c| self.solve(c, in_feedback));
                self.container(Container::Split(split, join), solved.collect(), in_feedback)
            }
            Stream::FeedbackLoop {
                join,
                body,
                loop_stream,
                split,
                enqueue,
            } => {
                let body = self.solve(body, true).best;
                let loop_stream = self.solve(loop_stream, true).best;
                Solved {
                    best: Rc::new(Choice {
                        cost: body.cost + loop_stream.cost,
                        plan: Plan::Feedback {
                            join,
                            split,
                            enqueue,
                            body,
                            loop_stream,
                        },
                    }),
                    whole: None, // feedback loops are never collapsed (§3.3)
                }
            }
        }
    }

    /// `getNodeCost`: a leaf filter — direct or frequency if linear,
    /// free (untallied) otherwise.
    fn leaf(&self, inst: &'a Rc<FilterInst>, in_feedback: bool) -> Solved<'a> {
        let Some(lin) = self.analysis.node_for(inst) else {
            return Solved {
                best: Rc::new(Choice {
                    cost: 0.0,
                    plan: Plan::Original(inst),
                }),
                whole: None,
            };
        };
        let firings = self.reps[&inst.id] as f64;
        let whole = Whole::formed(
            Exact::formed(lin.clone()),
            firings * inst.work.pop as f64,
            firings * inst.work.push as f64,
        );
        Solved {
            best: Rc::new(self.collapsed(&whole, firings, in_feedback)),
            whole: Some(whole),
        }
    }

    /// Prices a collapsed region, direct vs frequency, from the cost model
    /// and the region's exact node where it is formed, its shape where not.
    fn collapsed(&self, region: &Whole<'a>, firings: f64, in_feedback: bool) -> Choice<'a> {
        let (direct, freq) = match region.exact.node.get() {
            Some(node) => self.prices(&**node, firings, region.inflow, in_feedback),
            None => self.prices(region.shape(), firings, region.inflow, in_feedback),
        };
        let freq = freq.filter(|&cost| cost < direct);
        Choice {
            cost: freq.unwrap_or(direct),
            plan: Plan::Collapsed {
                exact: Rc::clone(&region.exact),
                freq: freq.is_some(),
                firings,
                inflow: region.inflow,
            },
        }
    }

    /// A collapsed region's direct price, and its frequency price where
    /// frequency translation may run it.
    fn prices(
        &self,
        form: &impl Form,
        firings: f64,
        inflow: f64,
        in_feedback: bool,
    ) -> (f64, Option<f64>) {
        let freq_ok = !in_feedback
            && form.peek() >= 1
            && form.push() >= 1
            && form.pop() >= 1
            && !(self.opts.unit_pop_only && form.pop() != 1);
        let freq = freq_ok.then(|| self.model.freq_total(form, inflow, self.opts.strategy));
        (self.model.direct_total(form, firings), freq)
    }

    /// `getContainerCost` for every child range of one container, solved
    /// smallest-first: `lo` descends and `hi` ascends, so both halves of
    /// every cut of `lo..=hi` are already in the table. A pipeline's
    /// combined shape for `lo..=hi` is the one for `lo..=hi-1` composed
    /// with child `hi`'s, carried along the row, so each range's shape is
    /// formed once.
    fn container(
        &self,
        kind: Container<'a>,
        children: Vec<Solved<'a>>,
        in_feedback: bool,
    ) -> Solved<'a> {
        let n = children.len();
        let parts: Rc<[_]> = children
            .iter()
            .map(|c| c.whole.as_ref().map(|w| Rc::clone(&w.exact)))
            .collect();
        if n == 1 {
            // A single child is priced as itself: there is no range to cut.
            let whole = match kind {
                Container::Pipe => children[0].whole.clone(),
                Container::Split(..) => combine(kind, &children, &parts, 0, 0, None),
            };
            let best = Rc::clone(&children[0].best);
            return Solved { best, whole };
        }
        let mut table: Vec<Option<Rc<Choice<'a>>>> = vec![None; n * n];
        for (k, child) in children.iter().enumerate() {
            table[k * n + k] = Some(Rc::clone(&child.best));
        }
        let mut whole = None;
        for lo in (0..n - 1).rev() {
            let mut carried = children[lo].whole.clone();
            for hi in lo + 1..n {
                carried = combine(kind, &children, &parts, lo, hi, carried);

                // Option 1/2: collapse the whole range (LINEAR / FREQ).
                let mut best = carried.as_ref().map(|region| {
                    let [_, pop, push] = region.rates;
                    let firings = if push > 0 {
                        region.outflow / push as f64
                    } else if pop > 0 {
                        region.inflow / pop as f64
                    } else {
                        0.0
                    };
                    Rc::new(self.collapsed(region, firings, in_feedback))
                });

                // Option 3: cut the range (horizontal for pipelines,
                // vertical for splitjoins) with ANY on both halves.
                for pivot in lo..hi {
                    let solved = |lo: usize, hi: usize| {
                        table[lo * n + hi]
                            .as_ref()
                            .expect("smaller ranges are solved first")
                    };
                    let (left, right) = (solved(lo, pivot), solved(pivot + 1, hi));
                    let cost = left.cost + right.cost;
                    if best.as_ref().is_none_or(|b| cost < b.cost) {
                        let halves = [Rc::clone(left), Rc::clone(right)];
                        let plan = match kind {
                            Container::Pipe => Plan::PipeCut(halves),
                            Container::Split(split, join) => Plan::SplitCut {
                                split,
                                join,
                                lo,
                                pivot,
                                hi,
                                halves,
                            },
                        };
                        best = Some(Rc::new(Choice { cost, plan }));
                    }
                }
                table[lo * n + hi] = best;
            }
            if lo == 0 {
                whole = carried;
            }
        }
        Solved {
            best: table[n - 1]
                .take()
                .expect("at least one cut exists for n > 1"),
            whole,
        }
    }

    /// Builds the chosen structure and its cost: the only place a
    /// collapsed region's coefficients are formed, and a [`FreqSpec`] (an
    /// FFT plan plus one kernel transform per output) is constructed. Each
    /// collapsed region is priced again from its exact node; costs add up
    /// in the order the DP added them.
    fn materialize(&self, choice: &Choice<'a>) -> (OptStream, f64) {
        match &choice.plan {
            Plan::Original(inst) => (OptStream::Original(Rc::clone(inst)), choice.cost),
            Plan::Collapsed {
                exact,
                freq,
                firings,
                inflow,
            } => {
                let node = exact.node();
                if *freq {
                    let spec = FreqSpec::new(&node, self.opts.strategy, self.opts.kind, None)
                        .expect("frequency candidates have peek, pop and push of at least 1");
                    let cost = self.model.freq_total(&*node, *inflow, self.opts.strategy);
                    (OptStream::Freq(spec), cost)
                } else {
                    let cost = self.model.direct_total(&*node, *firings);
                    (OptStream::Linear(LinearNode::clone(&node)), cost)
                }
            }
            Plan::PipeCut(halves) => {
                let (streams, cost) = self.halves(halves);
                (OptStream::Pipeline(streams), cost)
            }
            Plan::SplitCut {
                split,
                join,
                lo,
                pivot,
                hi,
                halves,
            } => {
                // Each half consumes its share of the sliced splitter and
                // joiner weights; a half is a single child, a collapsed
                // node or a nested cut, so it is already a stream.
                let (left, right) = (*lo..=*pivot, *pivot + 1..=*hi);
                let sum = |w: &[usize]| w.iter().sum();
                let (children, cost) = self.halves(halves);
                let stream = OptStream::SplitJoin {
                    split: match split {
                        Splitter::Duplicate => Splitter::Duplicate,
                        Splitter::RoundRobin(v) => Splitter::RoundRobin(vec![
                            sum(&v[left.clone()]),
                            sum(&v[right.clone()]),
                        ]),
                    },
                    children,
                    join: Joiner {
                        weights: vec![sum(&join.weights[left]), sum(&join.weights[right])],
                    },
                };
                (stream, cost)
            }
            Plan::Feedback {
                join,
                split,
                enqueue,
                body,
                loop_stream,
            } => {
                let (body, body_cost) = self.materialize(body);
                let (loop_stream, loop_cost) = self.materialize(loop_stream);
                let stream = OptStream::FeedbackLoop {
                    join: Joiner::clone(join),
                    body: Box::new(body),
                    loop_stream: Box::new(loop_stream),
                    split: Splitter::clone(split),
                    enqueue: enqueue.to_vec(),
                };
                (stream, body_cost + loop_cost)
            }
        }
    }

    /// Both halves of a cut, materialized, and their summed cost.
    fn halves(&self, halves: &[Rc<Choice<'a>>; 2]) -> (Vec<OptStream>, f64) {
        let (left, left_cost) = self.materialize(&halves[0]);
        let (right, right_cost) = self.materialize(&halves[1]);
        (vec![left, right], left_cost + right_cost)
    }
}

/// Products at most this large — multiply-adds, estimated as the product
/// of the factors' nonzeros (for a splitjoin, their sum) — are formed as
/// the DP prices them, and priced exactly. Small integer coefficients
/// cancel often, which a shape cannot see, and such products cost little
/// to form; the products that dominate selection's time (long chains,
/// wide blocks) are far larger. Above it a range's nonzeros are the
/// structural ones, an upper bound that cancellation can make too high.
const SMALL_PRODUCT: usize = 1 << 14;

/// The combined region of children `lo..=hi`, or `None` when a child is
/// not linear or the combination is refused. For a pipeline `carried` is
/// the combination of `lo..=hi-1`. `parts` are the children's exact nodes,
/// for the range's recipe. A small product of formed factors is formed
/// now; otherwise the factors' shapes combine.
fn combine<'a>(
    kind: Container<'a>,
    children: &[Solved<'a>],
    parts: &Rc<[Option<Rc<Exact<'a>>>]>,
    lo: usize,
    hi: usize,
    carried: Option<Whole<'a>>,
) -> Option<Whole<'a>> {
    let (factors, inflow, outflow, work): (Vec<&Whole>, f64, f64, usize) = match kind {
        Container::Pipe => {
            let (first, last) = (carried.as_ref()?, children[hi].whole.as_ref()?);
            let work = first.nnz.saturating_mul(last.nnz);
            (vec![first, last], first.inflow, last.outflow, work)
        }
        Container::Split(split, _) => {
            let wholes: Vec<&Whole> = children[lo..=hi]
                .iter()
                .map(|c| c.whole.as_ref())
                .collect::<Option<_>>()?;
            let inflow = match split {
                // Every duplicate branch sees the same stream.
                Splitter::Duplicate => wholes[0].inflow,
                Splitter::RoundRobin(_) => wholes.iter().map(|w| w.inflow).sum(),
            };
            let outflow = wholes.iter().map(|w| w.outflow).sum();
            let work = wholes.iter().map(|w| w.nnz).sum();
            (wholes, inflow, outflow, work)
        }
    };
    let exact = Exact::new(Recipe::Range {
        kind,
        parts: Rc::clone(parts),
        lo,
        hi,
    });
    let nodes = (work <= SMALL_PRODUCT)
        .then(|| {
            (factors.iter())
                .map(|w| w.exact.node.get().map(|n| &**n))
                .collect::<Option<Vec<_>>>()
        })
        .flatten();
    Some(match nodes {
        Some(nodes) => {
            #[cfg(test)]
            COMBINATIONS.with(|c| c.set(c.get() + 1));
            let node = kind.rule(lo, hi, &nodes).ok()?;
            let _ = exact.node.set(Rc::new(node));
            Whole::formed(exact, inflow, outflow)
        }
        None => {
            #[cfg(test)]
            SHAPES.with(|c| c.set(c.get() + 1));
            let shapes: Vec<&Shape> = factors.iter().map(|w| w.shape()).collect();
            Whole::shaped(exact, kind.rule(lo, hi, &shapes).ok()?, inflow, outflow)
        }
    })
}

impl Container<'_> {
    /// The combination rule of children `lo..=hi`, on their exact nodes or
    /// their shapes: for a pipeline, `factors` are the range so far and
    /// child `hi`.
    fn rule<F: Form + Clone>(self, lo: usize, hi: usize, factors: &[&F]) -> Result<F, LinearError> {
        match self {
            Container::Pipe => combine_pipeline(factors[0], factors[1]),
            Container::Split(split, join) => {
                let factors: Vec<F> = factors.iter().map(|&f| f.clone()).collect();
                combine_splitjoin(&sliced(split, lo, hi), &factors, &join.weights[lo..=hi])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::analyze_graph;
    use streamlin_graph::elaborate::elaborate;

    fn run_select(src: &str) -> Selection {
        let g = elaborate(&streamlin_lang::parse(src).unwrap()).unwrap();
        let a = analyze_graph(&g);
        select(&g, &a, &CostModel::default(), &SelectOptions::default()).unwrap()
    }

    fn fir_program(taps: usize) -> String {
        format!(
            "void->void pipeline Main {{ add Src(); add F({taps}); add Sink(); }}
             void->float filter Src {{ float x; work push 1 {{ push(x++); }} }}
             float->float filter F(int N) {{
                 float[N] h;
                 init {{ for (int i=0;i<N;i++) h[i] = 1.0 / (i + 1); }}
                 work peek N pop 1 push 1 {{
                     float s = 0;
                     for (int i=0;i<N;i++) s += h[i]*peek(i);
                     push(s); pop();
                 }}
             }}
             float->void filter Sink {{ work pop 1 {{ println(pop()); }} }}"
        )
    }

    #[test]
    fn large_fir_selects_frequency() {
        let sel = run_select(&fir_program(256));
        assert_eq!(sel.opt.stats().freq, 1, "{}", sel.opt.describe());
    }

    #[test]
    fn tiny_fir_stays_in_the_time_domain() {
        let sel = run_select(&fir_program(3));
        let st = sel.opt.stats();
        assert_eq!(st.freq, 0, "{}", sel.opt.describe());
        assert_eq!(st.linear, 1);
    }

    #[test]
    fn adjacent_gains_collapse() {
        let sel = run_select(
            "void->void pipeline Main { add S(); add G(); add H(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter G { work pop 1 push 1 { push(2 * pop()); } }
             float->float filter H { work pop 1 push 1 { push(pop() + 1); } }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        assert_eq!(sel.opt.stats().linear, 1, "{}", sel.opt.describe());
    }

    #[test]
    fn beamform_blowup_is_averted() {
        // A dense "row vector" stage (pops 24, pushes 2) feeding an
        // 8-tap FIR per output: combining produces a huge dense matrix
        // that the DP must refuse (the Radar case, §5.2).
        let src = "
            void->void pipeline Main { add Src(); add Beam(); add F(64); add Sink(); }
            void->float filter Src { float x; work push 1 { push(x++); } }
            float->float filter Beam {
                float[24] w;
                init { for (int i=0;i<24;i++) w[i] = i + 1; }
                work peek 24 pop 24 push 2 {
                    float a = 0; float b = 0;
                    for (int i=0;i<12;i++) { a += w[i] * peek(i); }
                    for (int i=12;i<24;i++) { b += w[i] * peek(i); }
                    push(a); push(b);
                    for (int i=0;i<24;i++) pop();
                }
            }
            float->float filter F(int N) {
                float[N] h;
                init { for (int i=0;i<N;i++) h[i] = 1.0 / (i + 1); }
                work peek N pop 1 push 1 {
                    float s = 0;
                    for (int i=0;i<N;i++) s += h[i]*peek(i);
                    push(s); pop();
                }
            }
            float->void filter Sink { work pop 1 { println(pop()); } }
        ";
        let sel = run_select(src);
        // Beam and the FIR must remain separate nodes.
        let st = sel.opt.stats();
        assert!(st.filters >= 4, "{}", sel.opt.describe());
        // Combining would make a ~(24·k × k) dense matrix; the selector's
        // cost for the chosen structure must beat that.
        let g = elaborate(&streamlin_lang::parse(src).unwrap()).unwrap();
        let a = analyze_graph(&g);
        let forced =
            crate::combine::replace(&g, &a, &crate::combine::ReplaceOptions::maximal_linear());
        let OptStream::Pipeline(children) = &forced else {
            panic!()
        };
        let combined_nnz: usize = children
            .iter()
            .filter_map(|c| match c {
                OptStream::Linear(n) => Some(n.nnz_a()),
                _ => None,
            })
            .sum();
        let chosen_nnz: usize = {
            fn nnz(o: &OptStream) -> usize {
                match o {
                    OptStream::Linear(n) => n.nnz_a(),
                    OptStream::Freq(s) => s.node().nnz_a(),
                    OptStream::Pipeline(c) => c.iter().map(nnz).sum(),
                    OptStream::SplitJoin { children, .. } => children.iter().map(nnz).sum(),
                    _ => 0,
                }
            }
            nnz(&sel.opt)
        };
        assert!(
            chosen_nnz < combined_nnz,
            "selection ({chosen_nnz}) should avoid the dense blow-up ({combined_nnz})"
        );
    }

    #[test]
    fn splitjoin_vertical_cut_keeps_nonlinear_branch_separate() {
        let src = "
            void->void pipeline Main { add Src(); add SJ(); add Sink(); }
            void->float filter Src { float x; work push 1 { push(x++); } }
            float->float splitjoin SJ {
                split duplicate;
                add G(2.0); add G(3.0); add Abs();
                join roundrobin;
            }
            float->float filter G(float k) { work pop 1 push 1 { push(k * pop()); } }
            float->float filter Abs {
                work pop 1 push 1 {
                    float v = pop();
                    if (v < 0) { push(-v); } else { push(v); }
                }
            }
            float->void filter Sink { work pop 3 { println(pop()); pop(); pop(); } }
        ";
        let sel = run_select(src);
        let st = sel.opt.stats();
        // The two gains may merge; Abs stays interpreted.
        assert_eq!(st.originals, 3, "{}", sel.opt.describe());
        assert!(st.splitjoins >= 1);
    }

    /// Child ranges `lo < hi` over every container of a graph, plus one
    /// for each single-child splitjoin: the most combinations a selection
    /// may form.
    fn range_count(s: &Stream) -> usize {
        let ranges = |children: &[Stream], single: usize| {
            let n = children.len();
            let own = if n == 1 { single } else { n * (n - 1) / 2 };
            own + children.iter().map(range_count).sum::<usize>()
        };
        match s {
            Stream::Filter(_) => 0,
            Stream::Pipeline(children) => ranges(children, 0),
            Stream::SplitJoin { children, .. } => ranges(children, 1),
            Stream::FeedbackLoop {
                body, loop_stream, ..
            } => range_count(body) + range_count(loop_stream),
        }
    }

    /// Runs `select` on a graph, counting the `FreqSpec`s planned, the
    /// shapes the DP combined and the exact products formed.
    fn counted_select(g: &Stream) -> (Selection, [usize; 3]) {
        let analysis = analyze_graph(g);
        crate::frequency::SPECS_BUILT.with(|c| c.set(0));
        SHAPES.with(|c| c.set(0));
        COMBINATIONS.with(|c| c.set(0));
        let sel = select(
            g,
            &analysis,
            &CostModel::default(),
            &SelectOptions::default(),
        )
        .unwrap();
        let counts = [
            crate::frequency::SPECS_BUILT.with(|c| c.get()),
            SHAPES.with(|c| c.get()),
            COMBINATIONS.with(|c| c.get()),
        ];
        (sel, counts)
    }

    #[test]
    fn fm_radio_plans_only_what_it_chooses_and_combines_each_range_once() {
        let bench = streamlin_benchmarks::fm_radio();
        let (sel, [specs, shapes, products]) = counted_select(bench.graph());
        let freq_chosen = sel.opt.stats().freq;
        assert!(freq_chosen >= 1, "{}", sel.opt.describe());
        assert_eq!(
            specs, freq_chosen,
            "a FreqSpec was planned for a region selection did not keep"
        );
        // Every range combines once, as a small product or as shapes; the
        // kept regions are among the small products.
        let ranges = range_count(bench.graph());
        assert!(products > 0);
        assert!(
            shapes + products <= ranges,
            "{shapes} shapes and {products} products for {ranges} child ranges"
        );
    }

    #[test]
    fn a_chain_forms_only_the_products_of_the_region_it_keeps() {
        let k = 12;
        let src = format!(
            "void->void pipeline Main {{ add Src(); add Chain({k}); add Sink(); }}
             float->float pipeline Chain(int k) {{
                 for (int i = 0; i < k; i++) add F(256);
             }}
             void->float filter Src {{ float x; work push 1 {{ push(x++); }} }}
             float->float filter F(int N) {{
                 float[N] h;
                 init {{ for (int i=0;i<N;i++) h[i] = 1.0 / (i + 1); }}
                 work peek N pop 1 push 1 {{
                     float s = 0;
                     for (int i=0;i<N;i++) s += h[i]*peek(i);
                     push(s); pop();
                 }}
             }}
             float->void filter Sink {{ work pop 1 {{ println(pop()); }} }}"
        );
        let g = elaborate(&streamlin_lang::parse(&src).unwrap()).unwrap();
        let (sel, [specs, shapes, products]) = counted_select(&g);
        // The whole chain collapses into one frequency node: its k - 1
        // products are the only ones formed, where every one of the
        // k(k-1)/2 ranges used to form one.
        let st = sel.opt.stats();
        assert_eq!((st.freq, st.filters), (1, 3), "{}", sel.opt.describe());
        assert_eq!((specs, products), (1, k - 1));
        // The DP prices each range from one shape combination: O(k²).
        assert_eq!(shapes, k * (k - 1) / 2);
    }

    #[test]
    fn a_small_product_whose_coefficients_cancel_is_priced_exactly() {
        // Box filter, difference, box filter: the combined node keeps 4 of
        // its 48 coefficients. Priced by its shape, all 48 count and the
        // frequency domain looks cheaper; priced exactly, the direct node
        // wins, as it did when every range's product was formed.
        let sel = run_select(
            "void->void pipeline Main { add Src(); add A(); add D(); add B(); add Snk(); }
             void->float filter Src { float x; work push 1 { push(x * 0.75 - 0.25); x = x + 1.0; } }
             float->void filter Snk { work pop 1 { println(pop()); } }
             float->float filter A { work peek 17 pop 1 push 1 {
                 float s = 0; for (int k = 0; k < 17; k++) s += 0.125 * peek(k); push(s); pop();
             } }
             float->float filter D { work peek 2 pop 1 push 2 {
                 push(0.25 * peek(0) - 0.25 * peek(1) + 0.5);
                 push(0.25 * peek(1) - 0.25 * peek(0) + 1.5); pop();
             } }
             float->float filter B { work peek 13 pop 1 push 1 {
                 float s = 0; for (int k = 0; k < 13; k++) s += 0.375 * peek(k); push(s); pop();
             } }",
        );
        let OptStream::Pipeline(stages) = &sel.opt else {
            panic!("{}", sel.opt.describe())
        };
        let OptStream::Linear(node) = &stages[1] else {
            panic!("{}", sel.opt.describe())
        };
        assert_eq!((node.peek(), node.push(), node.nnz_a()), (24, 2, 4));
    }

    #[test]
    fn cost_is_finite_and_positive() {
        let sel = run_select(&fir_program(16));
        assert!(sel.cost.is_finite());
        assert!(sel.cost > 0.0);
    }
}
