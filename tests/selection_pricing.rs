//! Selection's prices, checked from outside the dynamic program.
//!
//! The DP prices every candidate range from its [`Shape`] — its rates and
//! where its coefficients can be nonzero — and forms exact coefficients
//! only for the regions it keeps. Two properties hold that together, on the
//! nine benchmarks, `fir(1024)` and 200 generated programs biased to
//! linear filters:
//!
//! * `Selection::cost` is a fresh pricing of the stream `materialize`
//!   built: every linear and frequency node priced by the same `CostModel`
//!   on its firings per global steady state, here solved independently
//!   from the optimized stream's own rates (to 1e-9 relative);
//! * every range the DP prices combines to a shape whose rates are the
//!   exact node's and whose nonzero counts bound the exact ones from
//!   above; a range one form refuses, the other refuses alike.

mod fuzz;

use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use streamlin::core::combine::LinearAnalysis;
use streamlin::core::cost::CostModel;
use streamlin::core::node::{Form, LinearError, LinearNode};
use streamlin::core::pipeline::combine_pipeline;
use streamlin::core::select::{select, SelectOptions};
use streamlin::core::shape::Shape;
use streamlin::core::splitjoin::combine_splitjoin;
use streamlin::core::{analyze_graph, OptStream};
use streamlin::graph::ir::{Splitter, Stream};
use streamlin::graph::steady::{balance, steady_state, RateEdge};

/// The programs both properties run on, by name.
fn programs() -> Vec<(String, Stream)> {
    let mut all: Vec<(String, Stream)> = streamlin::benchmarks::all_default()
        .into_iter()
        .chain([streamlin::benchmarks::fir(1024)])
        .map(|b| (b.name().to_string(), b.graph().clone()))
        .collect();
    let mut rng = TestRng::new(0x5e1e_c7ed);
    let strategy = fuzz::linear_spec_strategy();
    for case in 0..200 {
        let src = fuzz::render(&strategy.generate(&mut rng));
        let program = streamlin::lang::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let graph = streamlin::graph::elaborate(&program).unwrap_or_else(|e| panic!("{e}\n{src}"));
        all.push((format!("generated #{case}:\n{src}"), graph));
    }
    all
}

// ---- Selection::cost against a fresh pricing --------------------------------

/// The optimized stream as a rate graph: one node per leaf, splitter and
/// joiner, and the leaves to price.
#[derive(Default)]
struct RateGraph<'a> {
    nodes: usize,
    edges: Vec<RateEdge>,
    /// `(node, leaf)`, in walk order.
    leaves: Vec<(usize, &'a OptStream)>,
}

impl<'a> RateGraph<'a> {
    fn node(&mut self) -> usize {
        self.nodes += 1;
        self.nodes - 1
    }

    /// Connects a producer to a consumer; a void connection (a splitter
    /// feeding a source) constrains nothing.
    fn edge(&mut self, (from, push): (usize, u64), (to, pop): (usize, u64)) {
        if push > 0 && pop > 0 {
            self.edges.push(RateEdge {
                from,
                to,
                push,
                pop,
            });
        }
    }

    /// Adds `s`; returns its entry node and pop, and its exit node and push.
    fn add(&mut self, s: &'a OptStream) -> ((usize, u64), (usize, u64)) {
        let rates = |n: &LinearNode| (n.pop() as u64, n.push() as u64);
        let leaf = |graph: &mut Self, (pop, push): (u64, u64)| {
            let n = graph.node();
            graph.leaves.push((n, s));
            ((n, pop), (n, push))
        };
        let weight = |split: &Splitter, k: usize| match split {
            Splitter::Duplicate => 1,
            Splitter::RoundRobin(w) => w[k] as u64,
        };
        let total = |split: &Splitter| match split {
            Splitter::Duplicate => 1,
            Splitter::RoundRobin(w) => w.iter().sum::<usize>() as u64,
        };
        match s {
            OptStream::Original(inst) => leaf(self, (inst.work.pop as u64, inst.work.push as u64)),
            OptStream::Linear(node) => leaf(self, rates(node)),
            OptStream::Freq(spec) => leaf(self, rates(spec.node())),
            OptStream::Redund(_) => panic!("selection builds no redundancy node"),
            OptStream::Pipeline(children) => {
                let ends: Vec<_> = children.iter().map(|c| self.add(c)).collect();
                for pair in ends.windows(2) {
                    self.edge(pair[0].1, pair[1].0);
                }
                (ends[0].0, ends[ends.len() - 1].1)
            }
            OptStream::SplitJoin {
                split,
                children,
                join,
            } => {
                let (s, j) = (self.node(), self.node());
                for (k, child) in children.iter().enumerate() {
                    let (entry, exit) = self.add(child);
                    self.edge((s, weight(split, k)), entry);
                    self.edge(exit, (j, join.weights[k] as u64));
                }
                let pushed = join.weights.iter().sum::<usize>() as u64;
                ((s, total(split)), (j, pushed))
            }
            OptStream::FeedbackLoop {
                join,
                body,
                loop_stream,
                split,
                ..
            } => {
                let (j, s) = (self.node(), self.node());
                let (entry, exit) = self.add(body);
                self.edge((j, join.weights.iter().sum::<usize>() as u64), entry);
                self.edge(exit, (s, total(split)));
                let (entry, exit) = self.add(loop_stream);
                self.edge((s, weight(split, 1)), entry);
                self.edge(exit, (j, join.weights[1] as u64));
                ((j, join.weights[0] as u64), (s, weight(split, 0)))
            }
        }
    }
}

/// What `model` says the linear and frequency nodes of `opt` cost per
/// global steady state of `graph`, from `opt`'s own balance equations,
/// scaled to `graph`'s steady state by the filters both keep.
fn fresh_price(graph: &Stream, opt: &OptStream, model: &CostModel, opts: &SelectOptions) -> f64 {
    let original = steady_state(graph).unwrap().reps;
    let mut rates = RateGraph::default();
    rates.add(opt);
    let reps = balance(rates.nodes, &rates.edges).unwrap();
    let scales: Vec<f64> = (rates.leaves.iter())
        .filter_map(|&(n, leaf)| match leaf {
            OptStream::Original(inst) => Some(original[&inst.id] as f64 / reps[n] as f64),
            _ => None,
        })
        .collect();
    assert!(!scales.is_empty(), "every program keeps its printing sink");
    assert!(scales.iter().all(|&s| s == scales[0]), "{scales:?}");
    let mut cost = 0.0;
    for &(n, leaf) in &rates.leaves {
        let firings = reps[n] as f64 * scales[0];
        cost += match leaf {
            OptStream::Linear(node) => model.direct_total(node, firings),
            OptStream::Freq(spec) => {
                let inflow = firings * spec.node().pop() as f64;
                model.freq_total(spec.node(), inflow, opts.strategy)
            }
            _ => 0.0,
        };
    }
    cost
}

#[test]
fn selection_cost_is_a_fresh_pricing_of_what_it_built() {
    let (model, opts) = (CostModel::default(), SelectOptions::default());
    for (name, graph) in programs() {
        let sel = select(&graph, &analyze_graph(&graph), &model, &opts).unwrap();
        let fresh = fresh_price(&graph, &sel.opt, &model, &opts);
        let err = (sel.cost - fresh).abs() / fresh.abs().max(f64::MIN_POSITIVE);
        assert!(
            err <= 1e-9 || sel.cost == fresh,
            "{name}: selection says {} but its stream prices at {fresh}\n{}",
            sel.cost,
            sel.opt.describe()
        );
    }
}

// ---- range shapes against exact nodes ----------------------------------------

/// Holds one range's shape to its exact node.
fn compare(
    at: &str,
    exact: Result<LinearNode, LinearError>,
    shape: Result<Shape, LinearError>,
    ranges: &mut usize,
) -> Option<(LinearNode, Shape)> {
    *ranges += 1;
    match (exact, shape) {
        (Ok(exact), Ok(shape)) => {
            assert_eq!(
                [shape.peek(), shape.pop(), shape.push()],
                [exact.peek(), exact.pop(), exact.push()],
                "{at}: rates"
            );
            assert!(shape.nnz_a() >= exact.nnz_a(), "{at}: nnz_a");
            assert!(shape.nnz_b() >= exact.nnz_b(), "{at}: nnz_b");
            Some((exact, shape))
        }
        (Err(e), Err(s)) => {
            assert_eq!(
                std::mem::discriminant(&e),
                std::mem::discriminant(&s),
                "{at}: {e} vs {s}"
            );
            None
        }
        (exact, shape) => panic!("{at}: exact {:?} but shape {:?}", exact.err(), shape.err()),
    }
}

/// Forms every range the DP prices under `s`, exactly and as a shape, and
/// returns `s` whole when it combines: ranges `lo < hi` of every container
/// (a pipeline's folded left to right, as the DP folds them), and a
/// single-child splitjoin's one child.
fn check_ranges(
    at: &str,
    s: &Stream,
    analysis: &LinearAnalysis,
    ranges: &mut usize,
) -> Option<(LinearNode, Shape)> {
    let wholes = |children: &[Stream], ranges: &mut usize| -> Vec<_> {
        (children.iter())
            .map(|c| check_ranges(at, c, analysis, ranges))
            .collect()
    };
    match s {
        Stream::Filter(inst) => analysis
            .node_for(inst)
            .map(|node| (node.clone(), Shape::of(node))),
        Stream::Pipeline(children) => {
            let parts = wholes(children, ranges);
            let mut whole = parts[0].clone();
            for lo in 0..parts.len() {
                let mut carried = parts[lo].clone();
                for (hi, part) in parts.iter().enumerate().skip(lo + 1) {
                    carried = match (carried, part) {
                        (Some((e1, s1)), Some((e2, s2))) => compare(
                            &format!("{at}: pipeline {lo}..={hi}"),
                            combine_pipeline(&e1, e2),
                            combine_pipeline(&s1, s2),
                            ranges,
                        ),
                        _ => None,
                    };
                }
                if lo == 0 {
                    whole = carried;
                }
            }
            whole
        }
        Stream::SplitJoin {
            split,
            children,
            join,
        } => {
            let parts = wholes(children, ranges);
            let n = parts.len();
            let mut whole = None;
            for lo in 0..n {
                for hi in (lo + 1..n).chain((n == 1).then_some(0)) {
                    let Some(range) = parts[lo..=hi].iter().cloned().collect::<Option<Vec<_>>>()
                    else {
                        continue;
                    };
                    let (exact, shapes): (Vec<_>, Vec<_>) = range.into_iter().unzip();
                    let sliced = match split {
                        Splitter::Duplicate => Splitter::Duplicate,
                        Splitter::RoundRobin(w) => Splitter::RoundRobin(w[lo..=hi].to_vec()),
                    };
                    let weights = &join.weights[lo..=hi];
                    let combined = compare(
                        &format!("{at}: splitjoin {lo}..={hi}"),
                        combine_splitjoin(&sliced, &exact, weights),
                        combine_splitjoin(&sliced, &shapes, weights),
                        ranges,
                    );
                    if (lo, hi) == (0, n - 1) {
                        whole = combined;
                    }
                }
            }
            whole
        }
        Stream::FeedbackLoop {
            body, loop_stream, ..
        } => {
            check_ranges(at, body, analysis, ranges);
            check_ranges(at, loop_stream, analysis, ranges);
            None
        }
    }
}

#[test]
fn every_priced_range_has_the_rates_and_at_least_the_nonzeros_of_its_node() {
    let mut ranges = 0;
    for (name, graph) in programs() {
        check_ranges(&name, &graph, &analyze_graph(&graph), &mut ranges);
    }
    assert!(ranges > 800, "only {ranges} ranges formed");
}
