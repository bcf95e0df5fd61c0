//! Cost-model-driven pipeline partitioning of a planned flat graph.
//!
//! The static plan ([`crate::plan`]) fixes every node's firings per steady
//! cycle and every channel's exact occupancy bound — precisely the
//! information a *deterministic* pipeline partitioner needs. This module
//! cuts the flattened graph into `N` contiguous **stages** along a
//! topological order, balancing the per-cycle work estimated by the
//! paper's cost model ([`streamlin_core::cost::CostModel`]): a stage's
//! weight is `Σ firings/cycle × per-firing cost` over its nodes, and the
//! cut minimizes the bottleneck stage (classic contiguous-partition DP).
//!
//! Two constraints keep parallel execution bit-identical to the
//! single-threaded plan:
//!
//! * channels must only cross stage boundaries *forward* — guaranteed by
//!   cutting the plan's topological order ([`ExecPlan::order`]) into
//!   contiguous segments, with no cut between a feedback loop's joiner and
//!   the producer of its back edge, so a loop runs in one stage;
//! * every node that can print (`PrintSink`s and interpreted filters whose
//!   work body prints) must land in **one** stage, so the program's output
//!   stream is produced by a single worker in schedule order. Cuts inside
//!   the printer span are simply forbidden.
//!
//! The resulting [`Partition`] records the stage of every node and, for
//! each boundary-crossing channel, the capacity of the lock-free SPSC ring
//! ([`crate::ring::SharedRings`]) that will carry it: the plan's exact
//! occupancy bound (which already covers the init phase) plus
//! [`AHEAD_CYCLES`] steady cycles of run-ahead slack, so workers
//! synchronize once per cycle batch instead of once per firing.

use streamlin_core::cost::CostModel;

use crate::flat::{FlatGraph, FlatNode, NodeKind};
use crate::plan::{node_rates, ExecPlan};

/// Steady cycles a producer stage may run ahead of its consumer before the
/// boundary ring backpressures it. More slack decouples workers further at
/// the price of buffer memory; one cycle would serialize the pipeline.
pub const AHEAD_CYCLES: usize = 32;

/// A channel that crosses a stage boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundary {
    /// Channel id in the flat graph.
    pub chan: usize,
    /// Stage of the producing node.
    pub from_stage: usize,
    /// Stage of the consuming node (`> from_stage`).
    pub to_stage: usize,
    /// SPSC ring capacity: the plan's exact occupancy bound plus
    /// [`AHEAD_CYCLES`] cycles of the channel's steady throughput.
    pub capacity: usize,
}

/// A stage assignment for every node of a planned flat graph.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Stage index per node (stages are contiguous in topological order).
    pub stage_of: Vec<usize>,
    /// Number of stages actually produced (`<=` the requested thread
    /// count; fewer when the graph is too small or printers pin nodes
    /// together).
    pub num_stages: usize,
    /// Estimated per-cycle cost of each stage (model units).
    pub stage_costs: Vec<f64>,
    /// Channels crossing stage boundaries, with their ring capacities.
    pub boundaries: Vec<Boundary>,
}

impl Partition {
    /// One-line description for logs and the CLI.
    pub fn summary(&self) -> String {
        let bottleneck = self.stage_costs.iter().cloned().fold(0.0f64, f64::max);
        let total: f64 = self.stage_costs.iter().sum();
        format!(
            "{} stages over {} boundary channels (bottleneck {:.0}% of single-thread cost)",
            self.num_stages,
            self.boundaries.len(),
            if total > 0.0 {
                100.0 * bottleneck / total
            } else {
                100.0
            }
        )
    }
}

/// True when a node can contribute to the program's printed output.
fn can_print(node: &FlatNode) -> bool {
    match &node.kind {
        NodeKind::PrintSink { .. } => true,
        NodeKind::Interp(s) => s.inst.lowered.prints,
        _ => false,
    }
}

/// Estimated cost of one firing of a node under the paper's cost model
/// (heuristic stand-ins for the node kinds the model does not cover).
pub(crate) fn firing_cost(node: &FlatNode, model: &CostModel) -> f64 {
    match &node.kind {
        NodeKind::Linear(exec) => model.direct_per_firing(exec.node()),
        NodeKind::Redund(exec) => model.direct_per_firing(exec.spec().node()),
        NodeKind::Freq(exec) => {
            let spec = exec.spec();
            let (_, _, push) = spec.work_rates();
            model.freq_firing(spec.n(), spec.node().push(), push)
        }
        NodeKind::Interp(s) => model.interp_firing(
            s.inst.lowered.work.stmt_count(),
            s.inst.work.peek,
            s.inst.work.push,
        ),
        NodeKind::Decimator { push, .. } => model.overhead + model.decim_per_item * *push as f64,
        // Plumbing nodes move items without arithmetic: charge the moves.
        NodeKind::Periodic { .. } => 4.0,
        NodeKind::PrintSink { pop } | NodeKind::DiscardSink { pop } => 2.0 * *pop as f64,
        NodeKind::Duplicate => 2.0 * node.outputs.len() as f64,
        NodeKind::SplitRR(w) | NodeKind::JoinRR(w) => 2.0 * w.iter().sum::<usize>() as f64,
    }
}

/// Partitions a planned flat graph into at most `threads` pipeline stages.
///
/// Always succeeds: the trivial single-stage partition is returned for
/// `threads <= 1` (or when the printer constraint leaves nothing to cut).
pub fn partition(
    flat: &FlatGraph,
    plan: &ExecPlan,
    threads: usize,
    model: &CostModel,
) -> Partition {
    let n = flat.nodes.len();
    let topo = &plan.order;
    let mut position = vec![0usize; n];
    for (p, &i) in topo.iter().enumerate() {
        position[i] = p;
    }

    // Per-cycle firings of every node, read off the steady schedule.
    let mut firings = vec![0u64; n];
    for step in plan.stepped() {
        firings[step.node] += step.times as u64;
    }

    // Per-cycle cost in topo position order, plus allowed cut positions:
    // `cut_ok[p]` permits a boundary between topo positions p-1 and p.
    let costs: Vec<f64> = topo
        .iter()
        .map(|&i| firings[i] as f64 * firing_cost(&flat.nodes[i], model))
        .collect();
    let mut cut_ok = vec![true; n + 1];
    let printer_positions: Vec<usize> = (0..n)
        .filter(|&p| can_print(&flat.nodes[topo[p]]))
        .collect();
    if let (Some(&first), Some(&last)) = (printer_positions.first(), printer_positions.last()) {
        for ok in &mut cut_ok[first + 1..=last] {
            *ok = false;
        }
    }
    // A feedback loop stays in one stage: no cut between a back edge's
    // consumer (its joiner) and its producer, so no boundary ring lies on
    // a cycle.
    let node_on = |c: usize, side: fn(&FlatNode) -> &Vec<usize>| {
        let node = flat.nodes.iter().position(|m| side(m).contains(&c));
        node.expect("planned graphs have no dangling channels")
    };
    for &(c, _) in &flat.initial {
        let (joiner, producer) = (node_on(c, |m| &m.inputs), node_on(c, |m| &m.outputs));
        for ok in &mut cut_ok[position[joiner] + 1..=position[producer]] {
            *ok = false;
        }
    }

    let want = threads.clamp(1, n.max(1));
    let cuts = min_bottleneck_cuts(&costs, &cut_ok, want);

    // Stage of each topo position -> stage of each node.
    let mut stage_of = vec![0usize; n];
    let mut stage_costs = vec![0.0f64; cuts.len() + 1];
    let mut stage = 0;
    for (p, &i) in topo.iter().enumerate() {
        while stage < cuts.len() && p >= cuts[stage] {
            stage += 1;
        }
        stage_of[i] = stage;
        stage_costs[stage] += costs[p];
    }
    let num_stages = cuts.len() + 1;

    // Boundary channels with their SPSC capacities.
    let mut boundaries = Vec::new();
    for (i, node) in flat.nodes.iter().enumerate() {
        let rates = node_rates(node);
        for (s, &c) in node.outputs.iter().enumerate() {
            let consumer = node_on(c, |m| &m.inputs);
            let (from_stage, to_stage) = (stage_of[i], stage_of[consumer]);
            if from_stage == to_stage {
                continue;
            }
            debug_assert!(from_stage < to_stage, "cuts follow the topological order");
            let cycle_push = firings[i] * rates.steady.out_push[s];
            boundaries.push(Boundary {
                chan: c,
                from_stage,
                to_stage,
                capacity: plan.caps[c] + AHEAD_CYCLES * cycle_push as usize,
            });
        }
    }
    boundaries.sort_by_key(|b| b.chan);

    Partition {
        stage_of,
        num_stages,
        stage_costs,
        boundaries,
    }
}

/// Cuts `costs` into at most `parts` contiguous segments minimizing the
/// maximum segment sum, using only allowed cut positions. Returns the cut
/// positions (each `p` means a boundary before index `p`), sorted.
fn min_bottleneck_cuts(costs: &[f64], cut_ok: &[bool], parts: usize) -> Vec<usize> {
    let n = costs.len();
    if parts <= 1 || n <= 1 {
        return Vec::new();
    }
    let mut prefix = vec![0.0f64; n + 1];
    for (i, &c) in costs.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
    }
    let seg = |a: usize, b: usize| prefix[b] - prefix[a];

    // dp[k][j]: minimal bottleneck splitting the first j items into k+1
    // segments; from[k][j]: the start of the last segment.
    let k_max = parts.min(n);
    let mut dp = vec![vec![f64::INFINITY; n + 1]; k_max];
    let mut from = vec![vec![0usize; n + 1]; k_max];
    for (j, d) in dp[0].iter_mut().enumerate().skip(1) {
        *d = seg(0, j);
    }
    for k in 1..k_max {
        for j in (k + 1)..=n {
            // Last segment is items [i, j); the cut before it sits at i.
            for i in k..j {
                if !cut_ok[i] || dp[k - 1][i].is_infinite() {
                    continue;
                }
                let cand = dp[k - 1][i].max(seg(i, j));
                if cand < dp[k][j] {
                    dp[k][j] = cand;
                    from[k][j] = i;
                }
            }
        }
    }

    // Best k: fewest stages achieving the best bottleneck (stages cost
    // threads; an extra stage that does not lower the bottleneck is waste).
    let mut best_k = 0;
    for k in 1..k_max {
        if dp[k][n] < dp[best_k][n] * 0.999 {
            best_k = k;
        }
    }
    let mut cuts = Vec::with_capacity(best_k);
    let (mut k, mut j) = (best_k, n);
    while k > 0 {
        let i = from[k][j];
        cuts.push(i);
        j = i;
        k -= 1;
    }
    cuts.reverse();
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::flatten;
    use crate::linear_exec::MatMulStrategy;
    use crate::plan::compile;
    use streamlin_core::opt::OptStream;

    fn planned(src: &str) -> (FlatGraph, ExecPlan) {
        let p = streamlin_lang::parse(src).unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        let flat = flatten(&OptStream::from_graph(&g), MatMulStrategy::Unrolled).unwrap();
        let plan = compile(&flat).unwrap();
        (flat, plan)
    }

    const CHAIN: &str = "void->void pipeline Main { add S(); add G(); add H(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float filter G { work pop 1 push 1 { push(3 * pop()); } }
         float->float filter H { work pop 1 push 1 { push(pop() + 1); } }
         float->void filter K { work pop 1 { println(pop()); } }";

    #[test]
    fn single_thread_is_one_stage_without_boundaries() {
        let (flat, plan) = planned(CHAIN);
        let part = partition(&flat, &plan, 1, &CostModel::default());
        assert_eq!(part.num_stages, 1);
        assert!(part.boundaries.is_empty());
        assert!(part.stage_of.iter().all(|&s| s == 0));
    }

    #[test]
    fn stages_respect_topological_order() {
        let (flat, plan) = planned(CHAIN);
        let part = partition(&flat, &plan, 3, &CostModel::default());
        assert!(part.num_stages >= 2, "{part:?}");
        // Every channel flows to an equal-or-later stage.
        for b in &part.boundaries {
            assert!(b.from_stage < b.to_stage, "{b:?}");
            assert!(b.capacity >= plan.caps[b.chan], "{b:?}");
        }
        // The sink (a printer) is alone in the last stage only if the cut
        // allows; at minimum its stage is the maximal one it depends on.
        let stages: Vec<usize> = part.stage_of.clone();
        assert!(stages.windows(1).len() == flat.nodes.len());
    }

    #[test]
    fn printers_are_pinned_to_one_stage() {
        // Two printing filters with a non-printer between them: no cut may
        // separate them.
        let (flat, plan) = planned(
            "void->void pipeline Main { add S(); add P1(); add G(); add P2(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter P1 { work pop 1 push 1 { float v = pop(); println(v); push(v); } }
             float->float filter G { work pop 1 push 1 { push(2 * pop()); } }
             float->void filter P2 { work pop 1 { println(pop()); } }",
        );
        let part = partition(&flat, &plan, 4, &CostModel::default());
        let printer_stages: Vec<usize> = flat
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| can_print(n))
            .map(|(i, _)| part.stage_of[i])
            .collect();
        assert!(printer_stages.len() >= 2);
        assert!(
            printer_stages.windows(2).all(|w| w[0] == w[1]),
            "{printer_stages:?}"
        );
    }

    #[test]
    fn dtoa_keeps_its_feedback_loop_in_one_stage() {
        let bench = streamlin_benchmarks::dtoa();
        let flat = flatten(
            &OptStream::from_graph(bench.graph()),
            MatMulStrategy::Unrolled,
        )
        .unwrap();
        let plan = compile(&flat).unwrap();
        let on_loop = ["fb-", "AdderFilter", "QuantizerAndError", "Delay"];
        let loop_nodes: Vec<usize> = (0..flat.nodes.len())
            .filter(|&i| on_loop.iter().any(|p| flat.nodes[i].name.starts_with(p)))
            .collect();
        assert_eq!(loop_nodes.len(), 5, "joiner, body of two, splitter, delay");
        for threads in [2, 4] {
            let part = partition(&flat, &plan, threads, &CostModel::default());
            assert!(part.num_stages > 1, "threads {threads}: {part:?}");
            let stage = part.stage_of[loop_nodes[0]];
            for &i in &loop_nodes {
                assert_eq!(
                    part.stage_of[i], stage,
                    "threads {threads}: {}",
                    flat.nodes[i].name
                );
            }
        }
    }

    #[test]
    fn bottleneck_cuts_balance_costs() {
        let costs = [1.0, 1.0, 1.0, 1.0, 4.0, 1.0, 1.0];
        let cut_ok = vec![true; costs.len() + 1];
        let cuts = min_bottleneck_cuts(&costs, &cut_ok, 3);
        // Optimal bottleneck is 4 (the big item alone or with cheap
        // neighbors); any answer with bottleneck 4 and <= 2 cuts is right.
        let mut sums = Vec::new();
        let mut start = 0;
        for &c in cuts.iter().chain(std::iter::once(&costs.len())) {
            sums.push(costs[start..c].iter().sum::<f64>());
            start = c;
        }
        assert!(
            sums.iter().cloned().fold(0.0f64, f64::max) <= 4.0 + 1e-9,
            "{sums:?}"
        );
    }

    #[test]
    fn forbidden_cuts_are_respected() {
        let costs = [5.0, 5.0, 5.0, 5.0];
        let mut cut_ok = vec![true; 5];
        cut_ok[2] = false;
        let cuts = min_bottleneck_cuts(&costs, &cut_ok, 4);
        assert!(!cuts.contains(&2), "{cuts:?}");
    }
}
