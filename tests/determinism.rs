//! Determinism guarantees: operation counts and program outputs are
//! identical across runs (wall time is the only nondeterministic
//! measurement), and the selection DP is stable.

use streamlin::core::combine::{analyze_graph, replace, ReplaceOptions};
use streamlin::core::cost::CostModel;
use streamlin::core::select::{select, SelectOptions};
use streamlin::runtime::RunSpec;

#[test]
fn operation_counts_are_reproducible() {
    let b = streamlin::benchmarks::fm_radio();
    let analysis = analyze_graph(b.graph());
    let opt = replace(b.graph(), &analysis, &ReplaceOptions::maximal_freq());
    let p1 = RunSpec::default().run(&opt, 200).unwrap();
    let p2 = RunSpec::default().run(&opt, 200).unwrap();
    assert_eq!(p1.ops, p2.ops);
    assert_eq!(p1.outputs, p2.outputs);
    assert_eq!(p1.firings, p2.firings);
}

#[test]
fn selection_is_stable() {
    let b = streamlin::benchmarks::vocoder();
    let analysis = analyze_graph(b.graph());
    let s1 = select(
        b.graph(),
        &analysis,
        &CostModel::default(),
        &SelectOptions::default(),
    )
    .unwrap();
    let s2 = select(
        b.graph(),
        &analysis,
        &CostModel::default(),
        &SelectOptions::default(),
    )
    .unwrap();
    assert_eq!(s1.cost, s2.cost);
    assert_eq!(s1.opt.describe(), s2.opt.describe());
}

#[test]
fn extraction_is_pure() {
    let b = streamlin::benchmarks::filter_bank();
    let a1 = analyze_graph(b.graph());
    let a2 = analyze_graph(b.graph());
    assert_eq!(a1.nodes.len(), a2.nodes.len());
    for (id, n1) in &a1.nodes {
        assert!(a2.nodes[id].approx_eq(n1, 0.0, 0.0));
    }
}
