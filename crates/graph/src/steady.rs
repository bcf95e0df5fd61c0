//! Steady-state schedule solver.
//!
//! StreamIt programs admit a *steady-state schedule*: an assignment of
//! repetition counts to filters such that every channel returns to its
//! initial occupancy (§3.3.1 of the paper, after Karczmarek's scheduling
//! work). This module writes the SDF balance equations once, over a flat
//! edge list, and [`balance`] solves them with exact rationals, normalizing
//! each connected component to its minimal integral repetition vector.
//! Both consumers hand it their graph as edges: [`steady_state`] builds the
//! list from the hierarchical [`Stream`] (one node per filter and per
//! splitter and joiner, feedback back edges included), and the runtime's
//! schedule compiler from its flattened node/channel graph. The
//! optimization-selection cost model scales per-firing costs by these
//! repetition counts, and Table 5.2's statistics derive from them.
//!
//! A refusal names nodes by index ([`Unbalanced`]); the caller, which
//! knows what the nodes are, renders their names.

use std::collections::{HashMap, VecDeque};

use streamlin_support::ratio::{common_denominator, Ratio};

use crate::ir::{FilterInst, Stream};

/// Items consumed/produced by one macro-firing of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteadyIo {
    /// Items popped from the stream's input per steady-state cycle.
    pub pop: u64,
    /// Items pushed to the stream's output per steady-state cycle.
    pub push: u64,
}

/// A solved steady state: I/O totals plus per-filter repetition counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Steady {
    /// I/O per steady-state cycle of the whole stream.
    pub io: SteadyIo,
    /// Filter-instance id → firings per steady-state cycle.
    pub reps: HashMap<usize, u64>,
}

/// Errors from the balance-equation solver.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleError {
    /// Explanation of the inconsistency, naming the nodes involved.
    pub message: String,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scheduling error: {}", self.message)
    }
}

impl std::error::Error for ScheduleError {}

/// Solves the steady state of a stream.
///
/// # Errors
///
/// Returns a [`ScheduleError`] when the balance equations are inconsistent
/// (e.g. a splitjoin whose branches cannot agree on a splitter rate).
pub fn steady_state(s: &Stream) -> Result<Steady, ScheduleError> {
    let mut g = SdfGraph::default();
    let ((input, pop), (output, push)) = g.add(s);
    let reps = balance(g.nodes.len(), &g.edges).map_err(|e| ScheduleError {
        message: e.render(|i| g.name(i)),
    })?;
    let io = SteadyIo {
        pop: reps[input] * pop,
        push: reps[output] * push,
    };
    let filters = g
        .nodes
        .iter()
        .zip(&reps)
        .filter_map(|(node, &q)| match node {
            SdfNode::Filter(f) => Some((f.id, q)),
            _ => None,
        });
    Ok(Steady {
        io,
        reps: filters.collect(),
    })
}

/// Items `s` pushes per steady-state cycle of the graph whose filter
/// repetitions are `reps`, as [`steady_state`] solved them: the firings of
/// its output port (a filter, a splitjoin's joiner, a feedback loop's
/// splitter) times that port's push.
///
/// # Panics
///
/// Panics if a filter of `s` has no entry in `reps`.
pub fn items_pushed(s: &Stream, reps: &HashMap<usize, u64>) -> u64 {
    match s {
        Stream::Filter(f) => reps[&f.id] * f.work.push as u64,
        Stream::Pipeline(children) => items_pushed(&children[children.len() - 1], reps),
        Stream::SplitJoin { children, join, .. } => {
            // The joiner fires once per `w` items of any child it takes
            // from; balance makes every such child agree.
            let fed = children.iter().zip(&join.weights).find(|(_, &w)| w > 0);
            fed.map_or(0, |(child, &w)| {
                items_pushed(child, reps) / w as u64 * join.items_per_cycle() as u64
            })
        }
        Stream::FeedbackLoop { body, split, .. } => {
            let firings = items_pushed(body, reps).checked_div(split.items_per_cycle() as u64);
            firings.unwrap_or(0) * split.weight(0) as u64
        }
    }
}

/// A node of the flat SDF graph a [`Stream`] denotes: a filter, or the
/// splitter or joiner of the container it names.
enum SdfNode<'a> {
    Filter(&'a FilterInst),
    Split(&'a Stream),
    Join(&'a Stream),
}

/// Where a stream meets its neighbour: a node and its per-firing rate
/// (pops at the input, pushes at the output).
type Port = (usize, u64);

#[derive(Default)]
struct SdfGraph<'a> {
    nodes: Vec<SdfNode<'a>>,
    edges: Vec<RateEdge>,
}

impl<'a> SdfGraph<'a> {
    fn node(&mut self, node: SdfNode<'a>) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn edge(&mut self, (from, push): Port, (to, pop): Port) {
        self.edges.push(RateEdge {
            from,
            to,
            push,
            pop,
        });
    }

    fn name(&self, i: usize) -> String {
        match self.nodes[i] {
            SdfNode::Filter(f) => f.name.clone(),
            SdfNode::Split(s) => format!("split of {}", s.describe()),
            SdfNode::Join(s) => format!("join of {}", s.describe()),
        }
    }

    /// Adds the nodes and channels of `s`; returns its input and output
    /// ports.
    fn add(&mut self, s: &'a Stream) -> (Port, Port) {
        match s {
            Stream::Filter(f) => {
                let i = self.node(SdfNode::Filter(f));
                ((i, f.work.pop as u64), (i, f.work.push as u64))
            }
            Stream::Pipeline(children) => {
                let (input, mut output) = self.add(&children[0]);
                for child in &children[1..] {
                    let (next_in, next_out) = self.add(child);
                    self.edge(output, next_in);
                    output = next_out;
                }
                (input, output)
            }
            Stream::SplitJoin {
                split,
                children,
                join,
            } => {
                let (splitter, joiner) =
                    (self.node(SdfNode::Split(s)), self.node(SdfNode::Join(s)));
                let ports: Vec<(Port, Port)> = children.iter().map(|c| self.add(c)).collect();
                // With nothing for any child to consume, the splitter never
                // fires: connecting it would demand input the children refuse.
                let splits = ports.iter().any(|&((_, pop), _)| pop > 0);
                for (k, (input, output)) in ports.into_iter().enumerate() {
                    if splits {
                        self.edge((splitter, split.weight(k) as u64), input);
                    }
                    self.edge(output, (joiner, join.weights[k] as u64));
                }
                let pop = if splits { split.items_per_cycle() } else { 0 };
                (
                    (splitter, pop as u64),
                    (joiner, join.items_per_cycle() as u64),
                )
            }
            Stream::FeedbackLoop {
                join,
                body,
                loop_stream,
                split,
                ..
            } => {
                let (joiner, splitter) =
                    (self.node(SdfNode::Join(s)), self.node(SdfNode::Split(s)));
                let (body_in, body_out) = self.add(body);
                let (loop_in, loop_out) = self.add(loop_stream);
                self.edge((joiner, join.items_per_cycle() as u64), body_in);
                self.edge(body_out, (splitter, split.items_per_cycle() as u64));
                self.edge((splitter, split.weight(1) as u64), loop_in);
                self.edge(loop_out, (joiner, join.weights[1] as u64));
                (
                    (joiner, join.weights[0] as u64),
                    (splitter, split.weight(0) as u64),
                )
            }
        }
    }
}

/// One directed channel of a flat SDF graph, with per-firing rates: node
/// `from` pushes `push` items per firing, node `to` pops `pop` per firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateEdge {
    /// Producer node index.
    pub from: usize,
    /// Consumer node index.
    pub to: usize,
    /// Items pushed per producer firing.
    pub push: u64,
    /// Items popped per consumer firing.
    pub pop: u64,
}

/// Why a flat graph's balance equations have no solution, by node index.
#[derive(Debug, Clone, PartialEq)]
pub enum Unbalanced {
    /// A channel with a zero rate on one side only: data piles up or
    /// starves forever.
    OneSided(RateEdge),
    /// Two paths from node `from` imply different rates for node `node`.
    Disagree {
        /// The node whose edge implied the second rate.
        from: usize,
        /// The node with two rates.
        node: usize,
        /// The rate it already had.
        existing: Ratio,
        /// The rate the edge from `from` implies.
        implied: Ratio,
    },
}

impl Unbalanced {
    /// The refusal in words, with each node named by `name`.
    pub fn render(&self, name: impl Fn(usize) -> String) -> String {
        match self {
            Unbalanced::OneSided(e) => format!(
                "channel `{}` -> `{}` has a zero rate on one side only ({} vs {})",
                name(e.from),
                name(e.to),
                e.push,
                e.pop
            ),
            Unbalanced::Disagree {
                from,
                node,
                existing,
                implied,
            } => format!(
                "`{}` and `{}` disagree on rates ({existing} vs {implied}); \
                 the graph is not schedulable",
                name(*from),
                name(*node)
            ),
        }
    }
}

/// Solves the balance equations of a *flat* SDF graph: returns the minimal
/// repetition vector `q` such that `q[from] * push == q[to] * pop` holds on
/// every edge. An edge with a zero rate on both sides constrains nothing.
///
/// Disconnected components are normalized independently, each to its own
/// minimal positive vector.
///
/// # Errors
///
/// Returns [`Unbalanced`] if an edge has a zero rate on one side only or if
/// two paths between the same nodes imply inconsistent rates.
///
/// # Panics
///
/// Panics if an edge names a node at or past `num_nodes`.
pub fn balance(num_nodes: usize, edges: &[RateEdge]) -> Result<Vec<u64>, Unbalanced> {
    if let Some(e) = edges.iter().find(|e| (e.push == 0) != (e.pop == 0)) {
        return Err(Unbalanced::OneSided(*e));
    }
    // Undirected adjacency for rate propagation.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    for (i, e) in edges.iter().enumerate() {
        adj[e.from].push(i);
        adj[e.to].push(i);
    }
    let mut rates: Vec<Option<Ratio>> = vec![None; num_nodes];
    let mut reps = vec![0u64; num_nodes];
    for root in 0..num_nodes {
        if rates[root].is_some() {
            continue;
        }
        // BFS this component with root rate 1.
        rates[root] = Some(Ratio::one());
        let mut component = vec![root];
        let mut queue = VecDeque::from([root]);
        while let Some(n) = queue.pop_front() {
            let rn = rates[n].expect("queued nodes have rates");
            for &ei in &adj[n] {
                let e = &edges[ei];
                if e.push == 0 {
                    continue; // zero-zero edge constrains nothing
                }
                let (other, implied) = if e.from == n {
                    (e.to, rn * Ratio::new(e.push as i128, e.pop as i128))
                } else {
                    (e.from, rn * Ratio::new(e.pop as i128, e.push as i128))
                };
                match rates[other] {
                    None => {
                        rates[other] = Some(implied);
                        component.push(other);
                        queue.push_back(other);
                    }
                    Some(existing) if existing == implied => {}
                    Some(existing) => {
                        return Err(Unbalanced::Disagree {
                            from: n,
                            node: other,
                            existing,
                            implied,
                        })
                    }
                }
            }
        }
        // Every rate is a product of positive ratios: scale by the common
        // denominator, then divide out the common factor.
        let ms: Vec<Ratio> = component
            .iter()
            .map(|&n| rates[n].expect("component solved"))
            .collect();
        let l = Ratio::from_int(common_denominator(&ms));
        let ints: Vec<u64> = ms
            .iter()
            .map(|&m| (m * l).to_integer().expect("cleared denominators") as u64)
            .collect();
        let g = ints.iter().copied().fold(0, streamlin_support::num::gcd);
        for (&n, &q) in component.iter().zip(&ints) {
            reps[n] = q / g;
        }
    }
    Ok(reps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use streamlin_lang::parse;

    fn steady(src: &str) -> Steady {
        steady_state(&elaborate(&parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn downsample_pipeline_rates() {
        // Source(push 1) -> Compressor(pop 2 push 1) -> Sink(pop 1):
        // source fires 2x per sink firing.
        let s = steady(
            "void->void pipeline Main { add S(); add C(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->float filter C { work pop 2 push 1 { push(pop()); pop(); } }
             float->void filter K { work pop 1 { pop(); } }",
        );
        let reps: Vec<u64> = {
            let mut v: Vec<_> = s.reps.iter().collect();
            v.sort();
            v.into_iter().map(|(_, &r)| r).collect()
        };
        assert_eq!(reps, vec![2, 1, 1]);
        assert_eq!(s.io.pop, 0);
        assert_eq!(s.io.push, 0);
    }

    #[test]
    fn expander_compressor_cancel() {
        let s = steady(
            "void->void pipeline Main { add S(); add E(); add C(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->float filter E { work pop 1 push 3 { push(pop()); push(0); push(0); } }
             float->float filter C { work pop 3 push 1 { push(pop()); pop(); pop(); } }
             float->void filter K { work pop 1 { pop(); } }",
        );
        let mut v: Vec<_> = s.reps.iter().collect();
        v.sort();
        let reps: Vec<u64> = v.into_iter().map(|(_, &r)| r).collect();
        assert_eq!(reps, vec![1, 1, 1, 1]);
    }

    #[test]
    fn duplicate_splitjoin_balances() {
        let s = steady(
            "void->void pipeline Main { add S(); add SJ(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->float splitjoin SJ {
                 split duplicate;
                 add A(); add B();
                 join roundrobin(1, 2);
             }
             float->float filter A { work pop 2 push 1 { push(pop()); pop(); } }
             float->float filter B { work pop 1 push 1 { push(pop()); } }
             float->void filter K { work pop 1 { pop(); } }",
        );
        // A: per joiner cycle needs 1 output => 1 firing consuming 2.
        // B: needs 2 outputs => 2 firings consuming 2. Consistent: S=2.
        assert_eq!(s.io.pop, 0);
        // Source fires 2 per steady state; sink pops 3.
        let total: u64 = s.reps.values().sum();
        assert!(total >= 6, "reps: {:?}", s.reps);
    }

    #[test]
    fn items_pushed_reads_each_port_off_the_solved_reps() {
        let g = elaborate(
            &parse(
                "void->void pipeline Main { add S(); add SJ(); add K(); }
                 void->float filter S { work push 1 { push(0.0); } }
                 float->float splitjoin SJ {
                     split duplicate;
                     add pipeline { add A(); add B(); };
                     add pipeline { add B(); add B(); };
                     join roundrobin(1, 2);
                 }
                 float->float filter A { work pop 2 push 1 { push(pop()); pop(); } }
                 float->float filter B { work pop 1 push 1 { push(pop()); } }
                 float->void filter K { work pop 3 { pop(); pop(); pop(); } }",
            )
            .unwrap(),
        )
        .unwrap();
        let reps = steady_state(&g).unwrap().reps;
        let Stream::Pipeline(main) = &g else { panic!() };
        let Stream::SplitJoin { children, .. } = &main[1] else {
            panic!()
        };
        let Stream::Pipeline(first) = &children[0] else {
            panic!()
        };
        // The source fires twice: A halves its two items, B passes one on,
        // the second column passes both, and the joiner emits all three.
        assert_eq!(items_pushed(&main[0], &reps), 2);
        assert_eq!(items_pushed(&first[0], &reps), 1);
        assert_eq!(items_pushed(&children[0], &reps), 1);
        assert_eq!(items_pushed(&children[1], &reps), 2);
        assert_eq!(items_pushed(&main[1], &reps), 3);
        assert_eq!(items_pushed(&g, &reps), 0);
    }

    #[test]
    fn inconsistent_splitjoin_is_rejected() {
        let p = parse(
            "void->void pipeline Main { add S(); add SJ(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->float splitjoin SJ {
                 split duplicate;
                 add A(); add B();
                 join roundrobin(1, 1);
             }
             float->float filter A { work pop 2 push 1 { push(pop()); pop(); } }
             float->float filter B { work pop 1 push 1 { push(pop()); } }
             float->void filter K { work pop 1 { pop(); } }",
        )
        .unwrap();
        let g = elaborate(&p).unwrap();
        let err = steady_state(&g).unwrap_err();
        assert!(err.message.contains("not schedulable"), "{err}");
    }

    #[test]
    fn roundrobin_splitter_rates() {
        let s = steady(
            "void->void pipeline Main { add S(); add SJ(); add K(); }
             void->float filter S { work push 3 { push(0.0); push(0.0); push(0.0); } }
             float->float splitjoin SJ {
                 split roundrobin(2, 1);
                 add A(); add B();
                 join roundrobin(2, 1);
             }
             float->float filter A { work pop 1 push 1 { push(pop()); } }
             float->float filter B { work pop 1 push 1 { push(pop()); } }
             float->void filter K { work pop 3 { pop(); pop(); pop(); } }",
        );
        let total: u64 = s.reps.values().sum();
        // S:1, A:2, B:1, K:1 => 5
        assert_eq!(total, 5, "reps: {:?}", s.reps);
    }

    #[test]
    fn feedbackloop_balances() {
        let s = steady(
            "void->void pipeline Main { add S(); add FB(); add K(); }
             void->float filter S { work push 1 { push(1.0); } }
             float->void filter K { work pop 1 { pop(); } }
             float->float feedbackloop FB {
                 join roundrobin(1, 1);
                 body B();
                 loop L();
                 split roundrobin(1, 1);
                 enqueue 0;
             }
             float->float filter B { work pop 2 push 2 { push(pop() + peek(0)); push(pop()); } }
             float->float filter L { work pop 1 push 1 { push(pop()); } }",
        );
        let total: u64 = s.reps.values().sum();
        assert_eq!(total, 4, "reps: {:?}", s.reps); // S, B, L, K once each
    }

    /// Repetition counts in filter-id order.
    fn reps_by_id(s: &Steady) -> Vec<u64> {
        let mut v: Vec<_> = s.reps.iter().collect();
        v.sort();
        v.into_iter().map(|(_, &r)| r).collect()
    }

    fn refused(src: &str) -> ScheduleError {
        steady_state(&elaborate(&parse(src).unwrap()).unwrap()).unwrap_err()
    }

    #[test]
    fn a_duplicate_splitjoin_of_sources_balances() {
        // Radar's shape: there is nothing to split, so the splitter never
        // fires and the joiner alone sets the children's rates.
        let s = steady(
            "void->void pipeline Main { add SJ(); add K(); }
             void->float splitjoin SJ {
                 split duplicate;
                 add A(); add B();
                 join roundrobin(1, 2);
             }
             void->float filter A { work push 1 { push(1.0); } }
             void->float filter B { work push 1 { push(2.0); } }
             float->void filter K { work pop 3 { pop(); pop(); pop(); } }",
        );
        assert_eq!(reps_by_id(&s), vec![1, 2, 1]);
        assert_eq!((s.io.pop, s.io.push), (0, 0));
    }

    #[test]
    fn a_splitjoin_mixing_sources_and_consumers_is_refused() {
        refused(
            "void->void pipeline Main { add S(); add SJ(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->float splitjoin SJ {
                 split duplicate;
                 add A(); add B();
                 join roundrobin;
             }
             void->float filter A { work push 1 { push(1.0); } }
             float->float filter B { work pop 1 push 1 { push(pop()); } }
             float->void filter K { work pop 2 { pop(); pop(); } }",
        );
    }

    #[test]
    fn a_zero_weight_branch_that_consumes_is_refused() {
        refused(
            "void->void pipeline Main { add S(); add SJ(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->float splitjoin SJ {
                 split roundrobin(1, 0);
                 add A(); add B();
                 join roundrobin(1, 1);
             }
             float->float filter A { work pop 1 push 1 { push(pop()); } }
             float->float filter B { work pop 1 push 1 { push(pop()); } }
             float->void filter K { work pop 2 { pop(); pop(); } }",
        );
    }

    #[test]
    fn a_feedback_loop_around_a_splitjoin_balances() {
        // The body pops 1 and pushes 2 per cycle of its own; the loop's
        // splitter sends 3 of every 4 items downstream.
        let s = steady(
            "void->void pipeline Main { add S(); add FB(); add K(); }
             void->float filter S { work push 1 { push(1.0); } }
             float->void filter K { work pop 3 { pop(); pop(); pop(); } }
             float->float feedbackloop FB {
                 join roundrobin(1, 1);
                 body SJ();
                 loop L();
                 split roundrobin(3, 1);
                 enqueue 0;
             }
             float->float splitjoin SJ {
                 split duplicate;
                 add A(); add B();
                 join roundrobin(1, 1);
             }
             float->float filter A { work pop 1 push 1 { push(pop()); } }
             float->float filter B { work pop 1 push 1 { push(pop()); } }
             float->float filter L { work pop 1 push 1 { push(pop()); } }",
        );
        // S, A, B, L, K.
        assert_eq!(reps_by_id(&s), vec![1, 2, 2, 1, 1]);
        assert_eq!((s.io.pop, s.io.push), (0, 0));
    }

    #[test]
    fn flat_balance_solves_a_chain() {
        // S (push 1) -> C (pop 2, push 1) -> K (pop 3): q = [6, 3, 1].
        let edges = [
            RateEdge {
                from: 0,
                to: 1,
                push: 1,
                pop: 2,
            },
            RateEdge {
                from: 1,
                to: 2,
                push: 1,
                pop: 3,
            },
        ];
        assert_eq!(balance(3, &edges).unwrap(), vec![6, 3, 1]);
    }

    #[test]
    fn flat_balance_solves_a_diamond() {
        // split(1 each) -> two branches (pop 1 push 1 / pop 1 push 2) -> join(1, 2).
        let edges = [
            RateEdge {
                from: 0,
                to: 1,
                push: 1,
                pop: 1,
            },
            RateEdge {
                from: 0,
                to: 2,
                push: 1,
                pop: 1,
            },
            RateEdge {
                from: 1,
                to: 3,
                push: 1,
                pop: 1,
            },
            RateEdge {
                from: 2,
                to: 3,
                push: 2,
                pop: 2,
            },
        ];
        assert_eq!(balance(4, &edges).unwrap(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn flat_balance_rejects_inconsistent_cycles_of_constraints() {
        // Diamond whose two paths imply different rates for the join.
        let edges = [
            RateEdge {
                from: 0,
                to: 1,
                push: 1,
                pop: 1,
            },
            RateEdge {
                from: 0,
                to: 2,
                push: 1,
                pop: 1,
            },
            RateEdge {
                from: 1,
                to: 3,
                push: 1,
                pop: 1,
            },
            RateEdge {
                from: 2,
                to: 3,
                push: 2,
                pop: 1,
            },
        ];
        assert!(balance(4, &edges).is_err());
    }

    #[test]
    fn flat_balance_rejects_one_sided_zero_rates() {
        let edges = [RateEdge {
            from: 0,
            to: 1,
            push: 0,
            pop: 2,
        }];
        assert!(balance(2, &edges).is_err());
    }

    #[test]
    fn flat_balance_normalizes_components_independently() {
        // Two disjoint chains: each gets its own minimal vector.
        let edges = [
            RateEdge {
                from: 0,
                to: 1,
                push: 2,
                pop: 1,
            },
            RateEdge {
                from: 2,
                to: 3,
                push: 1,
                pop: 3,
            },
        ];
        assert_eq!(balance(4, &edges).unwrap(), vec![1, 2, 3, 1]);
    }

    #[test]
    fn rate_mismatch_mid_pipeline_is_rejected() {
        let p = parse(
            "void->void pipeline Main { add S(); add X(); add K(); }
             void->float filter S { work push 1 { push(0.0); } }
             float->void filter X { work pop 1 { pop(); } }
             float->void filter K { work pop 1 { pop(); } }",
        )
        .unwrap();
        let g = elaborate(&p).unwrap();
        assert!(steady_state(&g).is_err());
    }
}
