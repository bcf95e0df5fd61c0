//! The optimized stream representation.
//!
//! `OptStream` mirrors the hierarchical graph of `streamlin-graph` but adds
//! the collapsed node kinds the optimizations produce: direct linear nodes,
//! frequency-domain nodes and redundancy-eliminated nodes. This is the
//! analogue of the paper's mutated SIR after the replacement passes run
//! (§4.4); `streamlin-runtime` lowers it to an executable node/channel
//! graph.

use std::rc::Rc;

use streamlin_graph::ir::{FilterInst, Joiner, Splitter, Stream};

use crate::frequency::FreqSpec;
use crate::node::LinearNode;
use crate::redundancy::RedundSpec;

/// A stream after (possibly zero) optimization passes.
#[derive(Debug, Clone)]
pub enum OptStream {
    /// An original filter, executed by the work-function interpreter.
    Original(Rc<FilterInst>),
    /// A collapsed linear node, executed as a direct matrix-vector product.
    Linear(LinearNode),
    /// A linear node implemented in the frequency domain (the runtime adds
    /// the decimator stage when `pop > 1`).
    Freq(FreqSpec),
    /// A linear node with cross-firing redundancy elimination.
    Redund(RedundSpec),
    /// Serial composition.
    Pipeline(Vec<OptStream>),
    /// Parallel composition.
    SplitJoin {
        /// Input distribution.
        split: Splitter,
        /// Children.
        children: Vec<OptStream>,
        /// Output interleaving.
        join: Joiner,
    },
    /// A feedback cycle (never collapsed; see §3.3 and §7.1).
    FeedbackLoop {
        /// Joiner merging input (weight 0) and feedback (weight 1).
        join: Joiner,
        /// Forward body.
        body: Box<OptStream>,
        /// Feedback path.
        loop_stream: Box<OptStream>,
        /// Splitter for downstream (0) / feedback (1).
        split: Splitter,
        /// Items preloaded on the feedback path.
        enqueue: Vec<f64>,
    },
}

/// Structural statistics of an optimized stream (Table 5.2's "after"
/// columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Leaf nodes of any kind (original + collapsed).
    pub filters: usize,
    /// Original (interpreted) filters.
    pub originals: usize,
    /// Direct linear nodes.
    pub linear: usize,
    /// Frequency nodes.
    pub freq: usize,
    /// Redundancy-eliminated nodes.
    pub redund: usize,
    /// Pipeline containers.
    pub pipelines: usize,
    /// Splitjoin containers.
    pub splitjoins: usize,
    /// Feedback loops.
    pub feedbackloops: usize,
}

impl OptStream {
    /// Wraps an elaborated graph with no optimizations applied.
    pub fn from_graph(s: &Stream) -> OptStream {
        match s {
            Stream::Filter(f) => OptStream::Original(Rc::clone(f)),
            Stream::Pipeline(children) => {
                OptStream::Pipeline(children.iter().map(OptStream::from_graph).collect())
            }
            Stream::SplitJoin {
                split,
                children,
                join,
            } => OptStream::SplitJoin {
                split: split.clone(),
                children: children.iter().map(OptStream::from_graph).collect(),
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
                body: Box::new(OptStream::from_graph(body)),
                loop_stream: Box::new(OptStream::from_graph(loop_stream)),
                split: split.clone(),
                enqueue: enqueue.clone(),
            },
        }
    }

    /// Applies `f` to every collapsed linear node, bottom-up (used to turn
    /// linear nodes into frequency or redundancy implementations).
    pub fn map_linear(self, f: &impl Fn(LinearNode) -> OptStream) -> OptStream {
        match self {
            OptStream::Linear(n) => f(n),
            OptStream::Pipeline(children) => {
                OptStream::Pipeline(children.into_iter().map(|c| c.map_linear(f)).collect())
            }
            OptStream::SplitJoin {
                split,
                children,
                join,
            } => OptStream::SplitJoin {
                split,
                children: children.into_iter().map(|c| c.map_linear(f)).collect(),
                join,
            },
            OptStream::FeedbackLoop {
                join,
                body,
                loop_stream,
                split,
                enqueue,
            } => OptStream::FeedbackLoop {
                join,
                body: Box::new(body.map_linear(f)),
                loop_stream: Box::new(loop_stream.map_linear(f)),
                split,
                enqueue,
            },
            other => other,
        }
    }

    /// Collapses nested pipelines (`pipe(a, pipe(b, c))` → `pipe(a, b, c)`)
    /// and unwraps single-child pipelines. The selection DP builds its
    /// result from binary cuts; this restores the flat shape for display,
    /// statistics and flattening. Splitjoin nesting is preserved — sliced
    /// splitter/joiner weights give nested splitjoins real semantics.
    pub fn flatten_pipelines(self) -> OptStream {
        match self {
            OptStream::Pipeline(children) => {
                let mut out = Vec::with_capacity(children.len());
                for c in children {
                    match c.flatten_pipelines() {
                        OptStream::Pipeline(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                if out.len() == 1 {
                    out.into_iter().next().expect("one element")
                } else {
                    OptStream::Pipeline(out)
                }
            }
            OptStream::SplitJoin {
                split,
                children,
                join,
            } => OptStream::SplitJoin {
                split,
                children: children
                    .into_iter()
                    .map(|c| c.flatten_pipelines())
                    .collect(),
                join,
            },
            OptStream::FeedbackLoop {
                join,
                body,
                loop_stream,
                split,
                enqueue,
            } => OptStream::FeedbackLoop {
                join,
                body: Box::new(body.flatten_pipelines()),
                loop_stream: Box::new(loop_stream.flatten_pipelines()),
                split,
                enqueue,
            },
            other => other,
        }
    }

    /// True when the stream contains a feedback loop anywhere. Feedback
    /// cycles are never collapsed by the optimizations (§3.3, §7.1); the
    /// schedule compiler plans them from their enqueued items.
    pub fn has_feedback(&self) -> bool {
        match self {
            OptStream::Original(_)
            | OptStream::Linear(_)
            | OptStream::Freq(_)
            | OptStream::Redund(_) => false,
            OptStream::Pipeline(children) => children.iter().any(OptStream::has_feedback),
            OptStream::SplitJoin { children, .. } => children.iter().any(OptStream::has_feedback),
            OptStream::FeedbackLoop { .. } => true,
        }
    }

    /// Tallies the structure.
    pub fn stats(&self) -> OptStats {
        let mut s = OptStats::default();
        self.visit_stats(&mut s);
        s
    }

    fn visit_stats(&self, s: &mut OptStats) {
        match self {
            OptStream::Original(_) => {
                s.filters += 1;
                s.originals += 1;
            }
            OptStream::Linear(_) => {
                s.filters += 1;
                s.linear += 1;
            }
            OptStream::Freq(_) => {
                s.filters += 1;
                s.freq += 1;
            }
            OptStream::Redund(_) => {
                s.filters += 1;
                s.redund += 1;
            }
            OptStream::Pipeline(children) => {
                s.pipelines += 1;
                for c in children {
                    c.visit_stats(s);
                }
            }
            OptStream::SplitJoin { children, .. } => {
                s.splitjoins += 1;
                for c in children {
                    c.visit_stats(s);
                }
            }
            OptStream::FeedbackLoop {
                body, loop_stream, ..
            } => {
                s.feedbackloops += 1;
                body.visit_stats(s);
                loop_stream.visit_stats(s);
            }
        }
    }

    /// A one-line structural sketch, for logs and debugging.
    pub fn describe(&self) -> String {
        match self {
            OptStream::Original(f) => format!("~{}", f.name),
            OptStream::Linear(n) => format!("L{n}"),
            OptStream::Freq(s) => format!("F{{N={}, m={}}}", s.n(), s.m()),
            OptStream::Redund(r) => format!("R{{reused={}}}", r.reused().len()),
            OptStream::Pipeline(c) => {
                let inner: Vec<String> = c.iter().map(|x| x.describe()).collect();
                format!("pipe({})", inner.join(" -> "))
            }
            OptStream::SplitJoin { children, .. } => {
                let inner: Vec<String> = children.iter().map(|x| x.describe()).collect();
                format!("sj({})", inner.join(" | "))
            }
            OptStream::FeedbackLoop { body, .. } => format!("fb({})", body.describe()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_node_kinds() {
        let lin = OptStream::Linear(LinearNode::fir(&[1.0, 2.0]));
        let red = OptStream::Redund(RedundSpec::new(&LinearNode::fir(&[1.0, 1.0])));
        let s = OptStream::Pipeline(vec![lin, red]);
        let st = s.stats();
        assert_eq!(st.filters, 2);
        assert_eq!(st.linear, 1);
        assert_eq!(st.redund, 1);
        assert_eq!(st.pipelines, 1);
        assert!(!s.describe().is_empty());
    }

    #[test]
    fn map_linear_rewrites_nodes() {
        let s = OptStream::Pipeline(vec![
            OptStream::Linear(LinearNode::fir(&[1.0, 2.0])),
            OptStream::Linear(LinearNode::fir(&[3.0])),
        ]);
        let mapped = s.map_linear(&|n| OptStream::Redund(RedundSpec::new(&n)));
        assert_eq!(mapped.stats().redund, 2);
        assert_eq!(mapped.stats().linear, 0);
    }
}
