//! The law of `read`: how a run's outputs are asked for is unobservable.
//!
//! A deterministic stream program satisfies `read(m); read(n) = read(m +
//! n)`, and the static plan runs a steady cycle in either of two orders
//! (`runtime::plan`): whole, when all the cycle's prints fall short of the
//! read's target, stepped otherwise. One large `read` runs mostly whole
//! cycles; the same count delivered in small reads stays on the stepped
//! order until late. Both must deliver the same bits and close on the same
//! firing count and tallies — for every benchmark and configuration — and
//! the data-driven reference engine must print the same bits. It is a law
//! about `read`, not a knob, so it is not a row of the equivalence matrix.

mod matrix;

use matrix::reference;
use streamlin::core::combine::analyze_graph;
use streamlin::core::Config;
use streamlin::runtime::session::Report;
use streamlin::runtime::{open, Compiled, ExecMode, RunSpec};

/// Delivers `reads` in order from a session on `art`: the values and the
/// closing report.
fn deliver(spec: &RunSpec, art: Compiled, reads: &[usize]) -> (Vec<f64>, Report) {
    let mut session = open(art, &spec.exec(), None).unwrap();
    let mut values = Vec::new();
    for &n in reads {
        values.extend(session.read(n).unwrap());
    }
    (values, session.close())
}

fn check(name: &str, bench: &streamlin::benchmarks::Benchmark) {
    let analysis = analyze_graph(bench.graph());
    for config in [
        Config::Baseline,
        Config::Linear,
        Config::Freq,
        Config::AutoSel,
    ] {
        let what = format!("{name} {}", config.label());
        let opt = config.apply(bench.graph(), &analysis).unwrap();
        let spec = RunSpec {
            config,
            mode: ExecMode::Measured,
            ..RunSpec::default()
        };
        let art = spec.compile(&opt).unwrap();
        // CI's `--release` run of this file covers these.
        if cfg!(debug_assertions) && art.plan.steady_firings() > matrix::HEAVY_CYCLE {
            continue;
        }
        // What a cycle prints (a stand-in where a filter prints).
        let p = art.plan.prints_per_cycle.unwrap_or(16).max(2);
        let pieces = [1, 7, p - 1, p, p + 1, 2 * p + 1];
        let n = pieces.iter().sum();

        let (whole, at_once) = deliver(&spec, art.clone(), &[n]);
        let (chunked, in_pieces) = deliver(&spec, art, &pieces);
        assert_eq!(whole.len(), n, "{what}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&whole), bits(&chunked), "{what}: chunked reads");
        assert_eq!(at_once.firings, in_pieces.firings, "{what}: firings");
        assert_eq!(at_once.ops, in_pieces.ops, "{what}: tallies");

        let data_driven = reference::run(&opt, n, spec.tier, spec.cert).unwrap();
        assert_eq!(
            bits(&whole),
            bits(&data_driven.outputs),
            "{what}: reference"
        );
    }
}

macro_rules! per_benchmark {
    ($($test:ident => $row:expr),* $(,)?) => {$(
        #[test]
        fn $test() {
            let (name, build, _) = matrix::BENCHMARKS[$row];
            check(name, &build());
        }
    )*};
}

per_benchmark! {
    fir_reads_chunk_freely => 0,
    rate_convert_reads_chunk_freely => 1,
    target_detect_reads_chunk_freely => 2,
    fm_radio_reads_chunk_freely => 3,
    radar_reads_chunk_freely => 4,
    filter_bank_reads_chunk_freely => 5,
    vocoder_reads_chunk_freely => 6,
    oversampler_reads_chunk_freely => 7,
    dtoa_reads_chunk_freely => 8,
}

/// The stepped order is the stop rule, so it stays step for step the list
/// the parent commit generated: its length per benchmark under `autosel`
/// (the `steady=` of `golden/plans.txt`). Selection's grid cut moved two
/// plans: TargetDetect's four frequency nodes became one (5800 → 5070
/// steps), and Radar's four `Beamform`s one linear node (814 → 681).
#[test]
fn stepped_orders_are_the_parents() {
    let want = [
        ("RateConvert", 724),
        ("TargetDetect", 5070),
        ("FMRadio", 6),
        ("Radar", 681),
        ("FilterBank", 1454),
        ("Vocoder", 242),
    ];
    for bench in streamlin::benchmarks::all_default() {
        let Some((_, steps)) = want.iter().find(|(name, _)| *name == bench.name()) else {
            continue;
        };
        let opt = (Config::AutoSel)
            .apply(bench.graph(), &analyze_graph(bench.graph()))
            .unwrap();
        let art = RunSpec::default().compile(&opt).unwrap();
        let plan = &art.plan;
        assert_eq!(plan.steady.len(), *steps, "{}", bench.name());
        assert_eq!(plan.cycle.len(), art.flat.nodes.len(), "{}", bench.name());
    }
}
