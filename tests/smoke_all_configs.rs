//! End-to-end integration: every benchmark × every optimization
//! configuration produces output identical to the unoptimized baseline.

use streamlin_benchmarks as benchmarks;
use streamlin_core::combine::{analyze_graph, replace, ReplaceOptions};
use streamlin_runtime::measure::first_mismatch;
use streamlin_runtime::RunSpec;

#[test]
fn all_benchmarks_all_configs_agree_with_baseline() {
    for b in benchmarks::all_default() {
        let n = (b.default_outputs() / 4).max(64);
        let analysis = analyze_graph(b.graph());
        let baseline = RunSpec::from_env()
            .run(
                &replace(b.graph(), &analysis, &ReplaceOptions::per_filter()),
                n,
            )
            .unwrap_or_else(|e| panic!("{} baseline: {e}", b.name()));

        for (label, opts) in [
            ("linear", ReplaceOptions::maximal_linear()),
            ("freq", ReplaceOptions::maximal_freq()),
        ] {
            let prof = RunSpec::from_env()
                .run(&replace(b.graph(), &analysis, &opts), n)
                .unwrap_or_else(|e| panic!("{} {label}: {e}", b.name()));
            if let Some(i) = first_mismatch(&baseline.outputs, &prof.outputs, 1e-5, 1e-5) {
                panic!(
                    "{} {label}: output {i} differs: {} vs {}",
                    b.name(),
                    baseline.outputs[i],
                    prof.outputs[i]
                );
            }
            eprintln!(
                "{:>12} {:>7}: {:>12.1} mults/out (baseline {:.1})",
                b.name(),
                label,
                prof.mults_per_output(),
                baseline.mults_per_output()
            );
        }
    }
}
