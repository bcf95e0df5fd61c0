//! Domain scenario: the Radar front end, where maximal optimization
//! *hurts* — combining the beamformer with its FIR inflates the work and
//! frequency translation explodes it. The automatic selector (§4.3) must
//! refuse both. This example shows the decision and its payoff.
//!
//! Run with: `cargo run --release --example auto_selection`

use streamlin::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = streamlin::benchmarks::radar(12, 4);
    let graph = bench.graph();
    let analysis = analyze_graph(graph);

    let n = 128;
    let spec = RunSpec::default();
    let base = spec.run(&Config::Baseline.apply(graph, &analysis)?, n)?;
    let maximal = spec.run(&Config::Linear.apply(graph, &analysis)?, n)?;
    let sel = select(
        graph,
        &analysis,
        &CostModel::default(),
        &SelectOptions::default(),
    )?;
    let auto = spec.run(&sel.opt, n)?;

    println!("Radar(12 channels, 4 beams), multiplications per output:");
    println!("  baseline          : {:>10.1}", base.mults_per_output());
    println!(
        "  maximal linear    : {:>10.1}  <- combination backfires here",
        maximal.mults_per_output()
    );
    println!("  automatic selection: {:>9.1}", auto.mults_per_output());
    assert!(auto.mults_per_output() <= maximal.mults_per_output());

    // And the outputs are identical whichever way it executes.
    for (a, b) in base.outputs.iter().zip(&auto.outputs) {
        assert!((a - b).abs() < 1e-6);
    }
    println!("outputs verified identical across configurations.");
    Ok(())
}
