//! The elaborated hierarchical stream graph.
//!
//! This is the analogue of the StreamIt compiler's SIR (§4.4 of the paper):
//! every node is a concrete filter *instance* (parameters bound, `init`
//! executed, rates resolved) or one of the three containers. The linear
//! analyses of `streamlin-core` and the execution engine of
//! `streamlin-runtime` both walk this structure.

use std::collections::HashMap;
use std::rc::Rc;

use streamlin_lang::ast::DataType;

use crate::analyze::FilterFacts;
use crate::lower::LoweredFilter;
use crate::value::Cell;

/// Resolved I/O rates of one work phase (its code is the matching
/// [`crate::lower::LoweredWork`] of [`FilterInst::lowered`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkFn {
    /// Maximum peek index + 1 (always `>= pop`).
    pub peek: usize,
    /// Items popped per firing.
    pub pop: usize,
    /// Items pushed per firing.
    pub push: usize,
}

/// A fully elaborated filter instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterInst {
    /// Unique instance id within one elaboration.
    pub id: usize,
    /// Display name, `Decl(arg, …)`.
    pub name: String,
    /// The declaration this instance came from.
    pub decl_name: String,
    /// Input tape element type ([`DataType::Void`] for sources).
    pub input: DataType,
    /// Output tape element type ([`DataType::Void`] for sinks).
    pub output: DataType,
    /// Persistent state after `init` ran: field name → initial value.
    /// Stream parameters are included as (immutable by convention) cells so
    /// work bodies can refer to them.
    pub state: HashMap<String, Cell>,
    /// Names that are bound parameters (constants for the analysis).
    pub param_names: Vec<String>,
    /// The steady-state work function.
    pub work: WorkFn,
    /// Optional first-firing work function.
    pub init_work: Option<WorkFn>,
    /// The slot-resolved work phases (see [`crate::lower`]) — the only form
    /// of the code an instance carries: the runtime tiers execute it, and
    /// the abstract interpreter and linear extraction analyse it.
    pub lowered: LoweredFilter,
    /// What the abstract interpreter proved about this filter
    /// (rate/bounds certificates, lints, plumbing — see
    /// [`crate::analyze`]). Execution paths consult this record instead of
    /// re-deriving facts from the syntax.
    pub facts: FilterFacts,
}

impl FilterInst {
    /// True if this filter is a pure source (pops nothing, peeks nothing).
    pub fn is_source(&self) -> bool {
        self.work.pop == 0 && self.work.peek == 0
    }

    /// True if this filter is a pure sink (pushes nothing).
    pub fn is_sink(&self) -> bool {
        self.work.push == 0
    }
}

/// How a splitter distributes data to splitjoin children (§3.3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Splitter {
    /// Every child sees every item.
    Duplicate,
    /// `weights[k]` consecutive items go to child `k`, cyclically.
    RoundRobin(Vec<usize>),
}

impl Splitter {
    /// Items consumed from the input per splitter cycle.
    pub fn items_per_cycle(&self) -> usize {
        match self {
            Splitter::Duplicate => 1,
            Splitter::RoundRobin(w) => w.iter().sum(),
        }
    }

    /// Items delivered to child `k` per splitter cycle.
    pub fn weight(&self, k: usize) -> usize {
        match self {
            Splitter::Duplicate => 1,
            Splitter::RoundRobin(w) => w[k],
        }
    }
}

/// A round-robin joiner with per-child weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Joiner {
    /// `weights[k]` items are taken from child `k` per joiner cycle.
    pub weights: Vec<usize>,
}

impl Joiner {
    /// Items pushed downstream per joiner cycle.
    pub fn items_per_cycle(&self) -> usize {
        self.weights.iter().sum()
    }
}

/// A hierarchical stream (paper Figure 2-1).
#[derive(Debug, Clone, PartialEq)]
pub enum Stream {
    /// A leaf filter.
    Filter(Rc<FilterInst>),
    /// Serial composition.
    Pipeline(Vec<Stream>),
    /// Parallel composition.
    SplitJoin {
        /// Input distribution.
        split: Splitter,
        /// Parallel children.
        children: Vec<Stream>,
        /// Output interleaving.
        join: Joiner,
    },
    /// A cycle with initial items on the feedback path.
    FeedbackLoop {
        /// Merges external input (weight 0) with feedback (weight 1).
        join: Joiner,
        /// Forward body.
        body: Box<Stream>,
        /// Feedback-path stream.
        loop_stream: Box<Stream>,
        /// Splits body output between downstream (0) and feedback (1).
        split: Splitter,
        /// Items preloaded on the feedback path.
        enqueue: Vec<f64>,
    },
}

impl Stream {
    /// A short structural description, for debugging and error messages.
    pub fn describe(&self) -> String {
        match self {
            Stream::Filter(f) => f.name.clone(),
            Stream::Pipeline(c) => format!("pipeline[{}]", c.len()),
            Stream::SplitJoin { children, .. } => format!("splitjoin[{}]", children.len()),
            Stream::FeedbackLoop { .. } => "feedbackloop".to_string(),
        }
    }

    /// Visits every filter instance in the hierarchy, depth-first.
    pub fn for_each_filter<'a>(&'a self, f: &mut impl FnMut(&'a Rc<FilterInst>)) {
        match self {
            Stream::Filter(inst) => f(inst),
            Stream::Pipeline(children) => {
                for c in children {
                    c.for_each_filter(f);
                }
            }
            Stream::SplitJoin { children, .. } => {
                for c in children {
                    c.for_each_filter(f);
                }
            }
            Stream::FeedbackLoop {
                body, loop_stream, ..
            } => {
                body.for_each_filter(f);
                loop_stream.for_each_filter(f);
            }
        }
    }

    /// Number of filter instances in the hierarchy.
    pub fn filter_count(&self) -> usize {
        let mut n = 0;
        self.for_each_filter(&mut |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_filter(id: usize, pop: usize, push: usize) -> Stream {
        Stream::Filter(Rc::new(FilterInst {
            id,
            name: format!("F{id}"),
            decl_name: "F".into(),
            input: DataType::Float,
            output: DataType::Float,
            state: HashMap::new(),
            param_names: vec![],
            work: WorkFn {
                peek: pop,
                pop,
                push,
            },
            init_work: None,
            lowered: LoweredFilter::default(),
            facts: FilterFacts::default(),
        }))
    }

    #[test]
    fn splitter_arithmetic() {
        let d = Splitter::Duplicate;
        assert_eq!(d.items_per_cycle(), 1);
        assert_eq!(d.weight(5), 1);
        let rr = Splitter::RoundRobin(vec![2, 1]);
        assert_eq!(rr.items_per_cycle(), 3);
        assert_eq!(rr.weight(1), 1);
    }

    #[test]
    fn traversal_counts_filters() {
        let s = Stream::Pipeline(vec![
            dummy_filter(0, 0, 1),
            Stream::SplitJoin {
                split: Splitter::Duplicate,
                children: vec![dummy_filter(1, 1, 1), dummy_filter(2, 1, 1)],
                join: Joiner {
                    weights: vec![1, 1],
                },
            },
            dummy_filter(3, 1, 0),
        ]);
        assert_eq!(s.filter_count(), 4);
        assert_eq!(s.describe(), "pipeline[3]");
    }

    #[test]
    fn source_sink_classification() {
        let Stream::Filter(f) = dummy_filter(0, 0, 1) else {
            panic!()
        };
        assert!(f.is_source());
        assert!(!f.is_sink());
        let Stream::Filter(g) = dummy_filter(1, 1, 0) else {
            panic!()
        };
        assert!(g.is_sink());
    }
}
