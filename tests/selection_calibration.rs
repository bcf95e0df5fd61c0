//! Calibration of the optimization selector against the paper's reported
//! qualitative decisions (§5.2): FIR moves to the frequency domain; Radar
//! refuses both maximal combination and frequency translation; automatic
//! selection is never worse (in executed multiplications) than either
//! maximal configuration.

use streamlin::core::combine::{analyze_graph, replace, ReplaceOptions};
use streamlin::core::cost::CostModel;
use streamlin::core::select::{select, SelectOptions};
use streamlin::runtime::RunSpec;

fn autosel(bench: &streamlin::benchmarks::Benchmark) -> streamlin::core::OptStream {
    let analysis = analyze_graph(bench.graph());
    select(
        bench.graph(),
        &analysis,
        &CostModel::default(),
        &SelectOptions::default(),
    )
    .unwrap()
    .opt
}

#[test]
fn fir_256_selects_frequency() {
    let opt = autosel(&streamlin::benchmarks::fir(256));
    assert_eq!(opt.stats().freq, 1, "{}", opt.describe());
}

#[test]
fn fir_4_stays_direct() {
    let opt = autosel(&streamlin::benchmarks::fir(4));
    let stats = opt.stats();
    assert_eq!(stats.freq, 0, "{}", opt.describe());
    assert_eq!(stats.linear, 1);
}

#[test]
fn radar_selects_no_frequency_nodes() {
    // "the selection algorithm ... transforming none to the frequency
    // domain" (§5.2).
    let opt = autosel(&streamlin::benchmarks::radar(12, 4));
    assert_eq!(opt.stats().freq, 0, "{}", opt.describe());
}

#[test]
fn autosel_mults_never_worse_than_maximal() {
    for bench in [
        streamlin::benchmarks::fir(256),
        streamlin::benchmarks::rate_convert(),
        streamlin::benchmarks::fm_radio(),
        streamlin::benchmarks::radar(8, 2),
        streamlin::benchmarks::filter_bank(),
        streamlin::benchmarks::oversampler(),
    ] {
        // Use the full default window: frequency stages push whole blocks
        // (the Oversampler chain emits >1000 items per firing), so short
        // windows are dominated by startup and overstate freq cost.
        let n = bench.default_outputs();
        let analysis = analyze_graph(bench.graph());
        let run = |opt: &streamlin::core::OptStream| {
            RunSpec::default().run(opt, n).unwrap().mults_per_output()
        };
        let auto = run(&autosel(&bench));
        let linear = run(&replace(
            bench.graph(),
            &analysis,
            &ReplaceOptions::maximal_linear(),
        ));
        let freq = run(&replace(
            bench.graph(),
            &analysis,
            &ReplaceOptions::maximal_freq(),
        ));
        // Small tolerance: the selector optimizes modeled cost, not the
        // exact counter, so allow 10% slack.
        let best = linear.min(freq);
        assert!(
            auto <= best * 1.10,
            "{}: autosel {auto:.1} vs best maximal {best:.1}",
            bench.name()
        );
    }
}

#[test]
fn fm_radio_autosel_beats_both_maximal_options() {
    // The paper highlights FMRadio as a case where selection mixes linear
    // and frequency regions to beat both (Figure 5-2).
    let bench = streamlin::benchmarks::fm_radio();
    let analysis = analyze_graph(bench.graph());
    let n = 256;
    let run = |opt: &streamlin::core::OptStream| {
        RunSpec::default().run(opt, n).unwrap().mults_per_output()
    };
    let auto = run(&autosel(&bench));
    let linear = run(&replace(
        bench.graph(),
        &analysis,
        &ReplaceOptions::maximal_linear(),
    ));
    let freq = run(&replace(
        bench.graph(),
        &analysis,
        &ReplaceOptions::maximal_freq(),
    ));
    assert!(
        auto <= linear && auto <= freq,
        "auto {auto:.1}, linear {linear:.1}, freq {freq:.1}"
    );
}
