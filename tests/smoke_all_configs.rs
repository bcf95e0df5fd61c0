//! End-to-end integration: every benchmark × every replacement option
//! produces output identical to the interpreted graph — the reference row
//! contains no linear node, so it does not depend on extraction;
//! per-filter replacement is one of the compared rows.

use streamlin_benchmarks as benchmarks;
use streamlin_core::combine::{analyze_graph, replace, ReplaceOptions};
use streamlin_core::OptStream;
use streamlin_runtime::measure::first_mismatch;
use streamlin_runtime::RunSpec;

#[test]
fn all_benchmarks_all_configs_agree_with_baseline() {
    for b in benchmarks::all_default() {
        let n = (b.default_outputs() / 4).max(64);
        let analysis = analyze_graph(b.graph());
        let interpreted = RunSpec::from_env()
            .run(&OptStream::from_graph(b.graph()), n)
            .unwrap_or_else(|e| panic!("{} interpreted: {e}", b.name()));

        for (label, opts) in [
            ("baseline", ReplaceOptions::per_filter()),
            ("linear", ReplaceOptions::maximal_linear()),
            ("freq", ReplaceOptions::maximal_freq()),
        ] {
            let prof = RunSpec::from_env()
                .run(&replace(b.graph(), &analysis, &opts), n)
                .unwrap_or_else(|e| panic!("{} {label}: {e}", b.name()));
            assert_eq!(
                prof.outputs.len(),
                interpreted.outputs.len(),
                "{} {label}: output count",
                b.name()
            );
            if let Some(i) = first_mismatch(&interpreted.outputs, &prof.outputs, 1e-5, 1e-5) {
                panic!(
                    "{} {label}: output {i} differs: {} vs {}",
                    b.name(),
                    interpreted.outputs[i],
                    prof.outputs[i]
                );
            }
            eprintln!(
                "{:>12} {:>8}: {:>12.1} mults/out (interpreted {:.1})",
                b.name(),
                label,
                prof.mults_per_output(),
                interpreted.mults_per_output()
            );
        }
    }
}
