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

use std::collections::HashMap;
use std::rc::Rc;

use streamlin_fft::FftKind;
use streamlin_graph::ir::{FilterInst, Joiner, Splitter, Stream};
use streamlin_graph::steady::steady_state;

use crate::combine::LinearAnalysis;
use crate::cost::CostModel;
use crate::frequency::{FreqSpec, FreqStrategy};
use crate::node::LinearNode;
use crate::opt::OptStream;
use crate::pipeline::combine_pipeline;
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
    /// Estimated cost (model units per steady state; non-linear filters
    /// contribute zero, as in the paper's `getNodeCost`).
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
    Ok(Selection {
        opt: dp.materialize(&best).flatten_pipelines(),
        cost: best.cost,
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
    /// (`freq`) the frequency domain.
    Collapsed { node: Rc<LinearNode>, freq: bool },
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

/// A region collapsed into one linear node, with the items flowing into
/// and out of it per global steady state.
#[derive(Clone)]
struct Whole {
    node: Rc<LinearNode>,
    inflow: f64,
    outflow: f64,
}

/// What the DP hands up from a solved subtree.
struct Solved<'a> {
    /// `getCost(s, ANY)`: the cheapest implementation.
    best: Rc<Choice<'a>>,
    /// The fully combined subtree, when it exists — what the parent
    /// container folds into its own ranges.
    whole: Option<Whole>,
}

/// The two container kinds whose child ranges the DP cuts.
#[derive(Clone, Copy)]
enum Container<'a> {
    Pipe,
    Split(&'a Splitter, &'a Joiner),
}

#[cfg(test)]
thread_local! {
    /// Range combinations formed by this thread's selections.
    static COMBINATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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
        let whole = Whole {
            node: Rc::new(lin.clone()),
            inflow: firings * inst.work.pop as f64,
            outflow: firings * inst.work.push as f64,
        };
        Solved {
            best: Rc::new(self.collapsed(&whole, firings, in_feedback)),
            whole: Some(whole),
        }
    }

    /// Prices a collapsed region, direct vs frequency, from the cost model
    /// alone.
    fn collapsed(&self, region: &Whole, firings: f64, in_feedback: bool) -> Choice<'a> {
        let node = &region.node;
        let direct = self.model.direct_total(node, firings);
        let freq_ok = !in_feedback
            && node.peek() >= 1
            && node.push() >= 1
            && node.pop() >= 1
            && !(self.opts.unit_pop_only && node.pop() != 1);
        let freq = freq_ok
            .then(|| {
                self.model
                    .freq_total(node, region.inflow, self.opts.strategy)
            })
            .filter(|&cost| cost < direct);
        Choice {
            cost: freq.unwrap_or(direct),
            plan: Plan::Collapsed {
                node: Rc::clone(node),
                freq: freq.is_some(),
            },
        }
    }

    /// `getContainerCost` for every child range of one container, solved
    /// smallest-first: `lo` descends and `hi` ascends, so both halves of
    /// every cut of `lo..=hi` are already in the table. A pipeline's
    /// combined node for `lo..=hi` is the one for `lo..=hi-1` times child
    /// `hi`, carried along the row — each range product is formed once,
    /// and none outlives its step unless its collapse is that range's best
    /// choice.
    fn container(
        &self,
        kind: Container<'a>,
        children: Vec<Solved<'a>>,
        in_feedback: bool,
    ) -> Solved<'a> {
        let n = children.len();
        if n == 1 {
            // A single child is priced as itself: there is no range to cut.
            let whole = match kind {
                Container::Pipe => children[0].whole.clone(),
                Container::Split(..) => combine(kind, &children, 0, 0, None),
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
                carried = combine(kind, &children, lo, hi, carried);

                // Option 1/2: collapse the whole range (LINEAR / FREQ).
                let mut best = carried.as_ref().map(|region| {
                    let node = &region.node;
                    let firings = if node.push() > 0 {
                        region.outflow / node.push() as f64
                    } else if node.pop() > 0 {
                        region.inflow / node.pop() as f64
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

    /// Builds the chosen structure: the only place a [`FreqSpec`] (an FFT
    /// plan plus one kernel transform per output) is constructed.
    fn materialize(&self, choice: &Choice<'a>) -> OptStream {
        match &choice.plan {
            Plan::Original(inst) => OptStream::Original(Rc::clone(inst)),
            Plan::Collapsed { node, freq: false } => OptStream::Linear(LinearNode::clone(node)),
            Plan::Collapsed { node, freq: true } => OptStream::Freq(
                FreqSpec::new(node, self.opts.strategy, self.opts.kind, None)
                    .expect("frequency candidates have peek, pop and push of at least 1"),
            ),
            Plan::PipeCut(halves) => {
                OptStream::Pipeline(halves.iter().map(|h| self.materialize(h)).collect())
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
                OptStream::SplitJoin {
                    split: match split {
                        Splitter::Duplicate => Splitter::Duplicate,
                        Splitter::RoundRobin(v) => Splitter::RoundRobin(vec![
                            sum(&v[left.clone()]),
                            sum(&v[right.clone()]),
                        ]),
                    },
                    children: halves.iter().map(|h| self.materialize(h)).collect(),
                    join: Joiner {
                        weights: vec![sum(&join.weights[left]), sum(&join.weights[right])],
                    },
                }
            }
            Plan::Feedback {
                join,
                split,
                enqueue,
                body,
                loop_stream,
            } => OptStream::FeedbackLoop {
                join: Joiner::clone(join),
                body: Box::new(self.materialize(body)),
                loop_stream: Box::new(self.materialize(loop_stream)),
                split: Splitter::clone(split),
                enqueue: enqueue.to_vec(),
            },
        }
    }
}

/// The combined node of children `lo..=hi` with its flows, or `None` when
/// a child is not linear or the combination is refused. For a pipeline
/// `carried` is the combination of `lo..=hi-1`.
fn combine(
    kind: Container<'_>,
    children: &[Solved<'_>],
    lo: usize,
    hi: usize,
    carried: Option<Whole>,
) -> Option<Whole> {
    #[cfg(test)]
    COMBINATIONS.with(|c| c.set(c.get() + 1));
    match kind {
        Container::Pipe => {
            let (first, last) = (carried?, children[hi].whole.as_ref()?);
            Some(Whole {
                node: Rc::new(combine_pipeline(&first.node, &last.node).ok()?),
                inflow: first.inflow,
                outflow: last.outflow,
            })
        }
        Container::Split(split, join) => {
            let wholes: Vec<&Whole> = children[lo..=hi]
                .iter()
                .map(|c| c.whole.as_ref())
                .collect::<Option<_>>()?;
            let nodes: Vec<LinearNode> =
                wholes.iter().map(|w| LinearNode::clone(&w.node)).collect();
            let sliced = match split {
                Splitter::Duplicate => Splitter::Duplicate,
                Splitter::RoundRobin(v) => Splitter::RoundRobin(v[lo..=hi].to_vec()),
            };
            let node = combine_splitjoin(&sliced, &nodes, &join.weights[lo..=hi]).ok()?;
            Some(Whole {
                node: Rc::new(node),
                inflow: match split {
                    // Every duplicate branch sees the same stream.
                    Splitter::Duplicate => wholes[0].inflow,
                    Splitter::RoundRobin(_) => wholes.iter().map(|w| w.inflow).sum(),
                },
                outflow: wholes.iter().map(|w| w.outflow).sum(),
            })
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

    #[test]
    fn fm_radio_plans_only_what_it_chooses_and_combines_each_range_once() {
        let bench = streamlin_benchmarks::fm_radio();
        let analysis = analyze_graph(bench.graph());
        crate::frequency::SPECS_BUILT.with(|c| c.set(0));
        COMBINATIONS.with(|c| c.set(0));
        let sel = select(
            bench.graph(),
            &analysis,
            &CostModel::default(),
            &SelectOptions::default(),
        )
        .unwrap();
        let freq_chosen = sel.opt.stats().freq;
        assert!(freq_chosen >= 1, "{}", sel.opt.describe());
        assert_eq!(
            crate::frequency::SPECS_BUILT.with(|c| c.get()),
            freq_chosen,
            "a FreqSpec was planned for a region selection did not keep"
        );
        let formed = COMBINATIONS.with(|c| c.get());
        assert!(formed > 0);
        assert!(
            formed <= range_count(bench.graph()),
            "{formed} combinations for {} child ranges",
            range_count(bench.graph())
        );
    }

    #[test]
    fn cost_is_finite_and_positive() {
        let sel = run_select(&fir_program(16));
        assert!(sel.cost.is_finite());
        assert!(sel.cost > 0.0);
    }
}
