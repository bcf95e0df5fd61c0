//! The `fission` row of the equivalence matrix under the default
//! configuration, benchmark by benchmark, kept for the names of the
//! hand-written suite (`tests/equivalence.rs` runs the row in every
//! configuration): fissing the dominant node 1, 2, 4 or `auto` ways prints
//! output bit-identical to the reference with equal tallies and firing
//! counts. A dominant node that is not safely duplicable (stateful filters,
//! printers) runs unfissed — the pass is then a clean no-op; the direct
//! refusal unit tests live at the bottom.

use streamlin::core::combine::analyze_graph;
use streamlin::core::{Config, OptStream};
use streamlin::runtime::fission::{fissability, Fission};
use streamlin::runtime::{MatMulStrategy, RunSpec};

#[macro_use]
mod matrix;

matrix_tests!(Some("fission");
    rate_convert_fission_is_deterministic => "RateConvert",
    target_detect_fission_is_deterministic => "TargetDetect",
    fm_radio_fission_is_deterministic => "FMRadio",
    radar_fission_is_deterministic => "Radar",
    filter_bank_fission_is_deterministic => "FilterBank",
    vocoder_fission_is_deterministic => "Vocoder",
    oversampler_fission_is_deterministic => "Oversampler",
);

/// The width `--threads 2 --fission 2` engaged at, per configuration.
fn engaged(bench: &streamlin::benchmarks::Benchmark) -> [usize; 2] {
    let analysis = analyze_graph(bench.graph());
    [Config::Baseline, Config::AutoSel].map(|config| {
        let spec = RunSpec {
            threads: Some(2),
            fission: Fission::Width(2),
            ..RunSpec::default()
        };
        let opt = config.apply(bench.graph(), &analysis).unwrap();
        spec.run(&opt, 64).unwrap().fission
    })
}

/// FIR's dominant node is duplicable in every configuration (the direct
/// linear kernel under baseline, the optimized frequency stage under
/// autosel), so fission must actually fire here.
#[test]
fn fir_fission_is_deterministic_and_engages() {
    matrix::check("FIR", Some("fission"));
    assert_eq!(engaged(&streamlin::benchmarks::fir(64)), [2, 2]);
}

/// dtoa has a noise-shaping feedback loop. Under baseline its dominant
/// node is the low-pass filter below the loop, and fission engages. Under
/// autosel it is the quantizer on the loop: a fissed round of it needs far
/// more items in flight than the loop's one enqueued item, so its schedule
/// is refused and every width runs the identical unfissed plan.
#[test]
fn dtoa_fission_refuses_feedback_and_falls_back_identically() {
    matrix::check("DToA", Some("fission"));
    assert_eq!(engaged(&streamlin::benchmarks::dtoa()), [2, 1]);
}

// ---- refusal unit tests -----------------------------------------------------

fn flat_for(src: &str) -> streamlin::runtime::flat::FlatGraph {
    let p = streamlin::lang::parse(src).unwrap();
    let g = streamlin::graph::elaborate(&p).unwrap();
    streamlin::runtime::flat::flatten(&OptStream::from_graph(&g), MatMulStrategy::Unrolled).unwrap()
}

#[test]
fn stateful_filters_are_refused_fission() {
    let flat = flat_for(
        "void->void pipeline Main { add S(); add Acc(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float filter Acc {
             float total;
             work pop 1 push 1 { total += pop(); push(total); }
         }
         float->void filter K { work pop 1 { println(pop()); } }",
    );
    let acc = flat
        .nodes
        .iter()
        .find(|n| n.name.starts_with("Acc"))
        .expect("accumulator is in the flat graph");
    let err = fissability(acc).unwrap_err();
    assert!(err.contains("mutates persistent state"), "{err}");

    // A filter whose state lives in an array cell is just as stateful.
    let flat = flat_for(
        "void->void pipeline Main { add S(); add H(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float filter H {
             float[4] hist; int idx;
             work pop 1 push 1 { hist[idx] = pop(); idx = (idx + 1) % 4; push(hist[0]); }
         }
         float->void filter K { work pop 1 { println(pop()); } }",
    );
    let h = flat.nodes.iter().find(|n| n.name.starts_with("H")).unwrap();
    assert!(fissability(h).is_err());
}

#[test]
fn init_work_filters_are_refused_fission() {
    let flat = flat_for(
        "void->void pipeline Main { add S(); add P(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float filter P {
             initWork pop 2 push 1 { push(pop() + pop()); }
             work pop 1 push 1 { push(pop()); }
         }
         float->void filter K { work pop 1 { println(pop()); } }",
    );
    let p = flat.nodes.iter().find(|n| n.name.starts_with("P")).unwrap();
    let err = fissability(p).unwrap_err();
    assert!(err.contains("initWork"), "{err}");
}

#[test]
fn feedback_loops_are_refused_fission() {
    // The dominant node sits on the loop, and a fissed round of it needs
    // more items in flight than the loop's one enqueued item: the fissed
    // schedule is refused and the run stays unfissed.
    let opt = {
        let p = streamlin::lang::parse(
            "void->void pipeline Main { add S(); add FB(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->void filter K { work pop 1 { println(pop()); } }
             float->float feedbackloop FB {
                 join roundrobin(1, 1);
                 body Adder();
                 loop Id();
                 split duplicate;
                 enqueue 0;
             }
             float->float filter Adder { work pop 2 push 1 { push(pop() + pop()); } }
             float->float filter Id { work pop 1 push 1 { push(pop()); } }",
        )
        .unwrap();
        let g = streamlin::graph::elaborate(&p).unwrap();
        OptStream::from_graph(&g)
    };
    for width in [2usize, 4] {
        let prof = RunSpec {
            threads: Some(2),
            fission: Fission::Width(width),
            ..RunSpec::default()
        }
        .run(&opt, 16)
        .unwrap();
        assert_eq!(prof.fission, 1, "feedback graph must stay unfissed");
        assert_eq!(&prof.outputs[..4], &[0.0, 1.0, 3.0, 6.0]);
    }
}
