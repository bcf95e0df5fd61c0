//! Whole-graph replacement drivers (paper §3.3.4, §4.1.4, §5.2).
//!
//! This module glues the per-structure combination rules into the three
//! configurations the evaluation measures:
//!
//! * **per-filter replacement** (`combine = false`, the "(nc)" bars of
//!   Figure 5-4): every linear filter becomes its own linear node, with no
//!   structural combination;
//! * **maximal linear replacement**: maximal runs of adjacent linear nodes
//!   inside pipelines are collapsed pairwise, and splitjoins whose children
//!   are all linear collapse entirely;
//! * **maximal frequency / redundancy replacement**: maximal linear
//!   replacement followed by rewriting every collapsed node into its
//!   frequency-domain (Transformations 5/6) or redundancy-eliminated
//!   (Transformation 7) implementation.

use std::collections::HashMap;
use std::rc::Rc;

use streamlin_fft::FftKind;
use streamlin_graph::ir::{FilterInst, Stream};
use streamlin_lang::token::Span;

use crate::extract::{extract_at, NonLinear};
use crate::frequency::{FreqSpec, FreqStrategy};
use crate::node::LinearNode;
use crate::opt::OptStream;
use crate::pipeline::combine_pipeline;
use crate::redundancy::RedundSpec;
use crate::splitjoin::combine_splitjoin;

/// Every filter's linear verdict, as [`analyze_graph`] read it.
#[derive(Debug, Clone, Default)]
pub struct LinearAnalysis {
    /// Filter-instance id → extracted node.
    pub nodes: HashMap<usize, LinearNode>,
    /// Filter-instance id → why extraction failed, and the span of the
    /// statement that decided it (the default span for a structural
    /// precondition or a rate mismatch).
    pub reasons: HashMap<usize, (NonLinear, Span)>,
}

impl LinearAnalysis {
    /// The node for a filter, if linear.
    pub fn node_for(&self, inst: &FilterInst) -> Option<&LinearNode> {
        self.nodes.get(&inst.id)
    }

    /// Why a filter is not linear, and where in its `work` body that was
    /// decided.
    pub fn reason_for(&self, inst: &FilterInst) -> Option<(&NonLinear, Span)> {
        self.reasons.get(&inst.id).map(|(why, at)| (why, *at))
    }

    /// Number of linear filters found.
    pub fn linear_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Collects every filter's linear verdict (the paper's "linear analyzer"
/// visitor of §4.4). The walk that decided them ran at elaboration; this
/// reads `inst.facts.linear` and builds the [`LinearNode`]s, walking
/// nothing.
///
/// # Examples
///
/// ```
/// let p = streamlin_lang::parse(
///     "void->void pipeline Main { add S(); add G(); add K(); }
///      void->float filter S { float x; work push 1 { push(x++); } }
///      float->float filter G { work pop 1 push 1 { push(2 * pop()); } }
///      float->void filter K { work pop 1 { println(pop()); } }",
/// )
/// .unwrap();
/// let g = streamlin_graph::elaborate(&p).unwrap();
/// let analysis = streamlin_core::analyze_graph(&g);
/// assert_eq!(analysis.linear_count(), 1); // only the gain filter
/// ```
pub fn analyze_graph(stream: &Stream) -> LinearAnalysis {
    let mut analysis = LinearAnalysis::default();
    stream.for_each_filter(&mut |inst: &Rc<FilterInst>| match extract_at(inst) {
        Ok(node) => {
            analysis.nodes.insert(inst.id, node);
        }
        Err(reason) => {
            analysis.reasons.insert(inst.id, reason);
        }
    });
    analysis
}

/// What the replacement pass turns linear regions into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplaceTarget {
    /// Direct (time-domain) linear nodes.
    Linear,
    /// Frequency-domain nodes (with the given strategy and FFT tier).
    Freq {
        /// Transformation 5 or 6.
        strategy: FreqStrategy,
        /// FFT backend tier.
        kind: FftKind,
        /// When set, only nodes with `pop == 1` are converted — the
        /// restriction the paper applies to Radar (§5.3, footnote 3).
        unit_pop_only: bool,
    },
    /// Redundancy-eliminated nodes.
    Redund,
}

/// Options for [`replace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplaceOptions {
    /// Combine adjacent/parallel linear nodes before replacement
    /// (`false` reproduces the "(nc)" configurations of Figure 5-4).
    pub combine: bool,
    /// Implementation for the resulting nodes.
    pub target: ReplaceTarget,
}

impl ReplaceOptions {
    /// Maximal linear replacement (§5.2's "linear" configuration).
    pub fn maximal_linear() -> Self {
        ReplaceOptions {
            combine: true,
            target: ReplaceTarget::Linear,
        }
    }

    /// Maximal frequency replacement with the optimized transformation and
    /// the tuned FFT (§5.2's "freq" configuration).
    pub fn maximal_freq() -> Self {
        ReplaceOptions {
            combine: true,
            target: ReplaceTarget::Freq {
                strategy: FreqStrategy::Optimized,
                kind: FftKind::Tuned,
                unit_pop_only: false,
            },
        }
    }

    /// Per-filter linear replacement — also the *baseline* execution model
    /// (each compiled work function is exactly its own linear node).
    pub fn per_filter() -> Self {
        ReplaceOptions {
            combine: false,
            target: ReplaceTarget::Linear,
        }
    }
}

/// Applies a replacement configuration to a graph.
pub fn replace(stream: &Stream, analysis: &LinearAnalysis, opts: &ReplaceOptions) -> OptStream {
    let replaced = if opts.combine {
        maximal(stream, analysis)
    } else {
        per_filter(stream, analysis)
    };
    match opts.target {
        ReplaceTarget::Linear => replaced,
        ReplaceTarget::Freq {
            strategy,
            kind,
            unit_pop_only,
        } => map_linear_outside_feedback(replaced, &|node| {
            if unit_pop_only && node.pop() != 1 {
                return OptStream::Linear(node);
            }
            match FreqSpec::new(&node, strategy, kind, None) {
                Ok(spec) => OptStream::Freq(spec),
                Err(_) => OptStream::Linear(node),
            }
        }),
        ReplaceTarget::Redund => replaced.map_linear(&|node| {
            if node.pop() == 0 || node.peek() == 0 {
                return OptStream::Linear(node);
            }
            OptStream::Redund(RedundSpec::new(&node))
        }),
    }
}

/// Applies `f` to linear nodes *outside* feedback loops only. Frequency
/// implementations buffer a whole block before producing output; inside a
/// feedback cycle that extra latency can exceed the `enqueue`d slack and
/// deadlock the loop, so nodes on a cycle keep their time-domain form.
fn map_linear_outside_feedback(opt: OptStream, f: &impl Fn(LinearNode) -> OptStream) -> OptStream {
    match opt {
        OptStream::Linear(n) => f(n),
        OptStream::Pipeline(children) => OptStream::Pipeline(
            children
                .into_iter()
                .map(|c| map_linear_outside_feedback(c, f))
                .collect(),
        ),
        OptStream::SplitJoin {
            split,
            children,
            join,
        } => OptStream::SplitJoin {
            split,
            children: children
                .into_iter()
                .map(|c| map_linear_outside_feedback(c, f))
                .collect(),
            join,
        },
        fb @ OptStream::FeedbackLoop { .. } => fb,
        other => other,
    }
}

fn per_filter(stream: &Stream, analysis: &LinearAnalysis) -> OptStream {
    match stream {
        Stream::Filter(f) => match analysis.node_for(f) {
            Some(node) => OptStream::Linear(node.clone()),
            None => OptStream::Original(Rc::clone(f)),
        },
        Stream::Pipeline(children) => {
            OptStream::Pipeline(children.iter().map(|c| per_filter(c, analysis)).collect())
        }
        Stream::SplitJoin {
            split,
            children,
            join,
        } => OptStream::SplitJoin {
            split: split.clone(),
            children: children.iter().map(|c| per_filter(c, analysis)).collect(),
            join: join.clone(),
        },
        Stream::FeedbackLoop {
            join,
            body,
            loop_stream,
            split,
            enqueue,
        } => OptStream::FeedbackLoop {
            join: join.clone(),
            body: Box::new(per_filter(body, analysis)),
            loop_stream: Box::new(per_filter(loop_stream, analysis)),
            split: split.clone(),
            enqueue: enqueue.clone(),
        },
    }
}

/// Maximal linear replacement: collapse every maximal linear region.
fn maximal(stream: &Stream, analysis: &LinearAnalysis) -> OptStream {
    match stream {
        Stream::Filter(f) => match analysis.node_for(f) {
            Some(node) => OptStream::Linear(node.clone()),
            None => OptStream::Original(Rc::clone(f)),
        },
        Stream::Pipeline(children) => {
            let transformed: Vec<OptStream> =
                children.iter().map(|c| maximal(c, analysis)).collect();
            let merged = merge_pipeline_runs(transformed);
            if merged.len() == 1 {
                merged.into_iter().next().expect("one element")
            } else {
                OptStream::Pipeline(merged)
            }
        }
        Stream::SplitJoin {
            split,
            children,
            join,
        } => {
            let transformed: Vec<OptStream> =
                children.iter().map(|c| maximal(c, analysis)).collect();
            // If every child collapsed to a linear node, collapse the
            // whole splitjoin (Transformations 3/4).
            let nodes: Option<Vec<&LinearNode>> = transformed
                .iter()
                .map(|c| match c {
                    OptStream::Linear(n) => Some(n),
                    _ => None,
                })
                .collect();
            if let Some(nodes) = nodes {
                let owned: Vec<LinearNode> = nodes.into_iter().cloned().collect();
                if let Ok(combined) = combine_splitjoin(split, &owned, &join.weights) {
                    return OptStream::Linear(combined);
                }
            }
            OptStream::SplitJoin {
                split: split.clone(),
                children: transformed,
                join: join.clone(),
            }
        }
        Stream::FeedbackLoop {
            join,
            body,
            loop_stream,
            split,
            enqueue,
        } => OptStream::FeedbackLoop {
            join: join.clone(),
            body: Box::new(maximal(body, analysis)),
            loop_stream: Box::new(maximal(loop_stream, analysis)),
            split: split.clone(),
            enqueue: enqueue.clone(),
        },
    }
}

/// Merges maximal runs of adjacent `Linear` children with pairwise
/// pipeline combination; combination failures (size guard, sources) leave
/// the boundary in place.
fn merge_pipeline_runs(children: Vec<OptStream>) -> Vec<OptStream> {
    let mut out: Vec<OptStream> = Vec::with_capacity(children.len());
    for child in children {
        match (out.last_mut(), child) {
            (Some(OptStream::Linear(prev)), OptStream::Linear(next)) => {
                match combine_pipeline(prev, &next) {
                    Ok(combined) => *prev = combined,
                    Err(_) => out.push(OptStream::Linear(next)),
                }
            }
            (_, child) => out.push(child),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlin_graph::elaborate::elaborate;

    const TWO_FIRS: &str = "
        void->void pipeline Main { add Src(); add F(4); add F(3); add Sink(); }
        void->float filter Src { float x; work push 1 { push(x++); } }
        float->float filter F(int N) {
            float[N] h;
            init { for (int i=0;i<N;i++) h[i] = i + 1; }
            work peek N pop 1 push 1 {
                float s = 0;
                for (int i=0;i<N;i++) s += h[i]*peek(i);
                push(s); pop();
            }
        }
        float->void filter Sink { work pop 1 { println(pop()); } }
    ";

    fn graph(src: &str) -> Stream {
        elaborate(&streamlin_lang::parse(src).unwrap()).unwrap()
    }

    #[test]
    fn analysis_finds_the_linear_filters() {
        let g = graph(TWO_FIRS);
        let a = analyze_graph(&g);
        assert_eq!(a.linear_count(), 2);
        assert_eq!(a.reasons.len(), 2); // source (state) and sink (prints)
    }

    /// A refusal carries the span of the statement that decided it: the
    /// `if` at which two different pushes were joined to ⊤, the loop whose
    /// bound could not be resolved, the `println` — and, for state that is
    /// ⊤ from the start, the first statement of `work`.
    #[test]
    fn a_refusal_says_where() {
        let bench = streamlin_benchmarks::target_detect();
        let analysis = analyze_graph(bench.graph());
        let line_of = |at: Span| bench.source().lines().nth(at.line as usize - 1).unwrap();
        let mut seen = 0;
        bench.graph().for_each_filter(&mut |inst| {
            let at = match inst.decl_name.as_str() {
                "ThresholdDetector" => (20, 9, "if (t > threshold) {"),
                "FloatPrinter" => (212, 9, "println(pop());"),
                "TargetSource" => (27, 9, "if (currentPosition < N) {"),
                _ => return,
            };
            seen += 1;
            let (why, span) = analysis.reason_for(inst).expect("not linear");
            assert_eq!((span.line, span.col), (at.0, at.1), "{}: {why}", inst.name);
            assert!(
                line_of(span).trim_start().starts_with(at.2),
                "{}",
                inst.name
            );
        });
        assert_eq!(seen, 6);

        let g = graph(
            "void->void pipeline Main { add Src(); add F(); add Sink(); }
             void->float filter Src { work push 1 { push(1.0); } }
             float->float filter F {
                 work pop 1 push 1 {
                     float v = pop();
                     float acc = 0;
                     int i = 0;
                     while (i < v) { acc += 1; i++; }
                     push(acc);
                 }
             }
             float->void filter Sink { work pop 1 { pop(); } }",
        );
        let analysis = analyze_graph(&g);
        g.for_each_filter(&mut |inst| match analysis.reason_for(inst) {
            Some((why, at)) => {
                assert_eq!(inst.name, "F");
                assert!(matches!(why, NonLinear::Unresolved(_)), "{why}");
                assert_eq!((at.line, at.col), (8, 22));
            }
            None => assert_ne!(inst.name, "F"),
        });
    }

    #[test]
    fn per_filter_replacement_keeps_structure() {
        let g = graph(TWO_FIRS);
        let a = analyze_graph(&g);
        let opt = replace(&g, &a, &ReplaceOptions::per_filter());
        let st = opt.stats();
        assert_eq!(st.filters, 4);
        assert_eq!(st.linear, 2);
        assert_eq!(st.originals, 2);
    }

    #[test]
    fn maximal_replacement_merges_adjacent_firs() {
        let g = graph(TWO_FIRS);
        let a = analyze_graph(&g);
        let opt = replace(&g, &a, &ReplaceOptions::maximal_linear());
        let st = opt.stats();
        // Src, combined FIR, Sink
        assert_eq!(st.filters, 3, "{}", opt.describe());
        assert_eq!(st.linear, 1);
        // combined 4-tap ∘ 3-tap = 6-tap
        let OptStream::Pipeline(children) = &opt else {
            panic!()
        };
        let OptStream::Linear(n) = &children[1] else {
            panic!()
        };
        assert_eq!(n.peek(), 6);
    }

    #[test]
    fn freq_replacement_rewrites_nodes() {
        let g = graph(TWO_FIRS);
        let a = analyze_graph(&g);
        let opt = replace(&g, &a, &ReplaceOptions::maximal_freq());
        assert_eq!(opt.stats().freq, 1);
        assert_eq!(opt.stats().linear, 0);
    }

    #[test]
    fn unit_pop_restriction_spares_decimators() {
        let src = "
            void->void pipeline Main { add Src(); add Dec(); add Sink(); }
            void->float filter Src { float x; work push 1 { push(x++); } }
            float->float filter Dec {
                work peek 4 pop 2 push 1 { push(peek(0) + peek(3)); pop(); pop(); }
            }
            float->void filter Sink { work pop 1 { println(pop()); } }
        ";
        let g = graph(src);
        let a = analyze_graph(&g);
        let opt = replace(
            &g,
            &a,
            &ReplaceOptions {
                combine: true,
                target: ReplaceTarget::Freq {
                    strategy: FreqStrategy::Optimized,
                    kind: FftKind::Tuned,
                    unit_pop_only: true,
                },
            },
        );
        assert_eq!(opt.stats().freq, 0);
        assert_eq!(opt.stats().linear, 1);
    }

    #[test]
    fn redundancy_replacement() {
        let g = graph(TWO_FIRS);
        let a = analyze_graph(&g);
        let opt = replace(
            &g,
            &a,
            &ReplaceOptions {
                combine: true,
                target: ReplaceTarget::Redund,
            },
        );
        assert_eq!(opt.stats().redund, 1);
    }

    #[test]
    fn all_linear_splitjoin_collapses() {
        let src = "
            void->void pipeline Main { add Src(); add SJ(); add Sink(); }
            void->float filter Src { float x; work push 1 { push(x++); } }
            float->float splitjoin SJ {
                split duplicate;
                add G(2.0); add G(3.0);
                join roundrobin;
            }
            float->float filter G(float k) { work pop 1 push 1 { push(k * pop()); } }
            float->void filter Sink { work pop 2 { println(pop()); println(pop()); } }
        ";
        let g = graph(src);
        let a = analyze_graph(&g);
        let opt = replace(&g, &a, &ReplaceOptions::maximal_linear());
        let st = opt.stats();
        assert_eq!(st.splitjoins, 0, "{}", opt.describe());
        assert_eq!(st.linear, 1);
    }

    #[test]
    fn nonlinear_child_blocks_splitjoin_collapse() {
        let src = "
            void->void pipeline Main { add Src(); add SJ(); add Sink(); }
            void->float filter Src { float x; work push 1 { push(x++); } }
            float->float splitjoin SJ {
                split duplicate;
                add G(2.0); add Abs();
                join roundrobin;
            }
            float->float filter G(float k) { work pop 1 push 1 { push(k * pop()); } }
            float->float filter Abs {
                work pop 1 push 1 {
                    float v = pop();
                    if (v < 0) { push(-v); } else { push(v); }
                }
            }
            float->void filter Sink { work pop 2 { println(pop()); println(pop()); } }
        ";
        let g = graph(src);
        let a = analyze_graph(&g);
        let opt = replace(&g, &a, &ReplaceOptions::maximal_linear());
        let st = opt.stats();
        assert_eq!(st.splitjoins, 1);
        assert_eq!(st.linear, 1);
        assert_eq!(st.originals, 3);
    }

    #[test]
    fn feedback_loop_interior_is_still_optimized() {
        let src = "
            void->void pipeline Main { add Src(); add FB(); add Sink(); }
            void->float filter Src { float x; work push 1 { push(x++); } }
            float->void filter Sink { work pop 1 { println(pop()); } }
            float->float feedbackloop FB {
                join roundrobin(1, 1);
                body pipeline { add G(0.5); add G(2.0); }
                loop G(1.0);
                split roundrobin(1, 1);
                enqueue 0;
            }
            float->float filter G(float k) { work pop 1 push 1 { push(k * pop()); } }
        ";
        let g = graph(src);
        let a = analyze_graph(&g);
        let opt = replace(&g, &a, &ReplaceOptions::maximal_linear());
        let st = opt.stats();
        assert_eq!(st.feedbackloops, 1);
        // The body pipeline's two gains combined into one node.
        assert_eq!(st.linear, 2, "{}", opt.describe());
    }
}
