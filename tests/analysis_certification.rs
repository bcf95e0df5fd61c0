//! The verified-filter dataflow framework across the nine paper
//! benchmarks: every filter must rate/bounds-certify, the certified
//! unchecked tape path must be bit-identical to the checked path across
//! modes, on the static plan and on the data-driven reference engine, and
//! adversarial uncertifiable filters must still run (checked) and stay
//! correct.
//!
//! Last come the programs on which the analysis once disagreed with the
//! interpreters about *control* — a stale frame slot, an index evaluated
//! twice, an uncoerced store — and issued a certificate the engines then
//! indexed past the window with. The walk is `graph::absint`'s now, shared
//! with extraction and refereed in `interp_differential`; these pin the
//! symptoms.

use streamlin::benchmarks::all_default;
use streamlin::core::opt::OptStream;
use streamlin::graph::analyze::Plumbing;
use streamlin::graph::elaborate;
use streamlin::lang::parse;
use streamlin::runtime::flat::NodeKind;
use streamlin::runtime::{ExecMode, RunSpec, Tier};
use streamlin::service::{Service, ServiceOpts};
use streamlin::support::json::{self, Json};
use streamlin::support::{NoCount, OpCounter};

mod reference;

/// Which filters carry which plumbing fact, by benchmark, in graph order:
/// the filters the runtime runs as native nodes. Every other filter is
/// interpreted.
const PLUMBING: &[(&str, &str, &str)] = &[
    ("FIR", "FloatSource", "Periodic"),
    ("FIR", "FloatPrinter", "PrintSink"),
    ("RateConvert", "FloatPrinter", "PrintSink"),
    ("TargetDetect", "FloatPrinter", "PrintSink"),
    ("FMRadio", "FloatPrinter", "PrintSink"),
    ("Radar", "FloatPrinter", "PrintSink"),
    ("FilterBank", "FloatPrinter", "PrintSink"),
    ("Vocoder", "DataSource", "Periodic"),
    ("Vocoder", "FloatPrinter", "PrintSink"),
    ("Oversampler", "DataSource", "Periodic"),
    ("Oversampler", "FloatSinkPrinting", "PrintSink"),
    ("DToA", "DataSource", "Periodic"),
    ("DToA", "FloatPrinter", "PrintSink"),
];

/// A plumbing fact that widens or narrows fails here by name.
#[test]
fn the_plumbing_filters_are_the_ring_buffer_sources_and_the_printers() {
    let mut found = Vec::new();
    for b in all_default() {
        b.graph().for_each_filter(&mut |inst| {
            let kind = match inst.facts.plumbing {
                None => return,
                Some(Plumbing::Periodic { .. }) => "Periodic",
                Some(Plumbing::PrintSink { .. }) => "PrintSink",
                Some(Plumbing::DiscardSink { .. }) => "DiscardSink",
            };
            found.push((b.name().to_string(), inst.decl_name.clone(), kind));
        });
    }
    let want: Vec<_> = (PLUMBING.iter())
        .map(|&(b, d, k)| (b.to_string(), d.to_string(), k))
        .collect();
    assert_eq!(found, want);
}

/// Every filter of every benchmark certifies both phases and carries no
/// analysis errors.
#[test]
fn all_benchmark_filters_certify() {
    for b in all_default() {
        b.graph().for_each_filter(&mut |inst| {
            let f = &inst.facts;
            assert!(
                f.work.cert.is_some(),
                "{}/{}: work phase uncertified: {:?}",
                b.name(),
                inst.decl_name,
                f.work.uncertified
            );
            if let Some(init) = &f.init_work {
                assert!(
                    init.cert.is_some(),
                    "{}/{}: init phase uncertified: {:?}",
                    b.name(),
                    inst.decl_name,
                    init.uncertified
                );
            }
            assert!(f.errors.is_empty(), "{}/{}", b.name(), inst.decl_name);
            // The certified rates must be exactly the declared ones.
            let c = f.work.cert.unwrap();
            assert_eq!(
                (c.peek, c.pop, c.push),
                (inst.work.peek, inst.work.pop, inst.work.push),
                "{}/{}",
                b.name(),
                inst.decl_name
            );
        });
    }
}

/// The certified unchecked tape path must be bit-identical to the fully
/// checked path on every benchmark, across execution modes and on both
/// the static plan and the reference engine, including operation tallies.
#[test]
fn cert_elision_is_bit_identical_across_modes_and_schedulers() {
    for b in all_default() {
        let opt = OptStream::from_graph(b.graph());
        let n = b.default_outputs().min(128);
        for on_plan in [true, false] {
            for mode in [ExecMode::Measured, ExecMode::Fast] {
                let what = format!(
                    "{} {} {mode:?}",
                    b.name(),
                    ["reference", "plan"][usize::from(on_plan)]
                );
                // Elision is a field of each run's spec, and the built
                // graph is asked which tape discipline its nodes took:
                // every benchmark phase certifies, so `cert` alone decides.
                let run = |cert: bool| {
                    let spec = RunSpec {
                        mode,
                        cert,
                        ..RunSpec::default()
                    };
                    let art = spec.compile(&opt).unwrap();
                    for node in &art.flat.nodes {
                        if let NodeKind::Interp(state) = &node.kind {
                            assert_eq!(state.work_certified, cert, "{what} {}", node.name);
                        }
                    }
                    if on_plan {
                        let prof = spec.run_compiled(art, n);
                        let prof = prof.unwrap_or_else(|e| panic!("{what}: {e}"));
                        return (prof.outputs, prof.ops);
                    }
                    let run = match mode {
                        ExecMode::Measured => reference::run_flat::<OpCounter>(art.flat, n, None),
                        ExecMode::Fast => reference::run_flat::<NoCount>(art.flat, n, None),
                    };
                    let run = run.unwrap_or_else(|e| panic!("{what}: {e}"));
                    (run.outputs, run.ops)
                };
                let fast = run(true);
                let checked = run(false);
                assert_eq!(fast.0.len(), checked.0.len(), "{what}");
                for (a, c) in fast.0.iter().zip(&checked.0) {
                    assert_eq!(a.to_bits(), c.to_bits(), "{what}");
                }
                assert_eq!(fast.1, checked.1, "{what}");
            }
        }
    }
}

/// A filter whose push count depends on runtime state cannot be
/// certified, but as long as the data keeps it at the declared rate it
/// still runs on the checked path and produces correct output.
#[test]
fn uncertifiable_filter_runs_checked_and_correct() {
    let src = "void->void pipeline Main { add Src(); add Gate(); add Sink(); }
         void->float filter Src { float x; work push 1 { push(x); x = x + 1; } }
         float->float filter Gate { float x; work pop 1 push 1 {
             if (x < 10000.0) push(pop()); else pop();
             x = x + 1;
         } }
         float->void filter Sink { work pop 1 { println(pop()); } }";
    let g = elaborate(&parse(src).unwrap()).unwrap();
    let mut gate_uncertified = false;
    g.for_each_filter(&mut |inst| {
        if inst.decl_name == "Gate" {
            gate_uncertified = inst.facts.work.cert.is_none();
        }
    });
    assert!(
        gate_uncertified,
        "state-dependent push count must not certify"
    );

    let opt = OptStream::from_graph(&g);
    // Within this horizon `x < 10000.0` always holds, so the filter is
    // the identity — and the checked engine verified every firing,
    // whether or not its certified neighbours skip their checks.
    let want: Vec<f64> = (0..16).map(f64::from).collect();
    for cert in [true, false] {
        let spec = RunSpec {
            cert,
            ..RunSpec::default()
        };
        let art = spec.compile(&opt).unwrap();
        for node in &art.flat.nodes {
            if let NodeKind::Interp(state) = &node.kind {
                let unchecked = cert && !node.name.starts_with("Gate");
                assert_eq!(state.work_certified, unchecked, "{}", node.name);
            }
        }
        assert_eq!(spec.run_compiled(art, 16).unwrap().outputs, want);
    }
}

/// A provable rate violation in a filter the analysis can decide is a
/// compile-time error, not a runtime one.
#[test]
fn provable_violation_fails_elaboration() {
    let src = "void->void pipeline Main { add S(); add K(); }
         void->float filter S { work push 2 { push(1.0); } }
         float->void filter K { work pop 1 { println(pop()); } }";
    let err = elaborate(&parse(src).unwrap()).unwrap_err().to_string();
    assert!(
        err.contains("declared push rate is 2 but the body always pushes 1"),
        "{err}"
    );
}

// ---- certificates the analysis once got wrong ---------------------------------

/// `float->float filter F { work peek <peek> pop 1 push 1 { <body> pop(); } }`
/// behind a source pushing 0, 1, 2, … and in front of a printing sink.
fn windowed(peek: usize, body: &str) -> String {
    format!(
        "void->void pipeline Main {{ add Src(); add F(); add Sink(); }}
         void->float filter Src {{ float x; work push 1 {{ push(x++); }} }}
         float->float filter F {{ work peek {peek} pop 1 push 1 {{
             {body}
             pop();
         }} }}
         float->void filter Sink {{ work pop 1 {{ println(pop()); }} }}"
    )
}

/// Elaboration must refuse the program: the violation is decided and
/// unconditional, so it is a spanned error naming the offset the program
/// really reads — never a certificate for an engine to trust.
fn assert_reads_past_the_window(peek: usize, body: &str, offset: usize) {
    let err = elaborate(&parse(&windowed(peek, body)).unwrap())
        .expect_err("a decided read past the window must fail elaboration")
        .to_string();
    let want = format!("peek({offset}) after 0 pops reads past the declared peek window of {peek}");
    assert!(err.contains(&want), "`{body}`: {err}");
    assert!(err.contains(" at 4:"), "`{body}`: no source span in: {err}");
}

#[test]
fn a_local_is_zeroed_before_its_initialiser_reads_it() {
    // `b` shares frame slot 0 with the out-of-scope `a` (-3): both tiers
    // zero it first, so `b` is 5 — not 2.
    assert_reads_past_the_window(
        3,
        "if (true) { int a = -3; } if (true) { int b = b + 5; push(peek(b)); }",
        5,
    );
}

#[test]
fn a_compound_assignment_evaluates_its_index_once() {
    // `i` ends at 2, not 1.
    assert_reads_past_the_window(2, "int i = 3; int[4] a; a[i--] += 1; push(peek(i));", 2);
}

#[test]
fn a_post_increment_evaluates_its_index_once() {
    assert_reads_past_the_window(2, "int i = 3; int[4] a; a[i--]++; push(peek(i));", 2);
}

#[test]
fn an_int_stored_into_a_float_local_is_coerced() {
    // `k / 4` is 0.5, not the integer 0: the `peek(5)` branch is the live
    // one.
    assert_reads_past_the_window(
        2,
        "float k = 0; k = 2; if (k / 4 > 0.25) { push(peek(5)); } else { push(peek(0)); }",
        5,
    );
}

/// The mirror image of the double evaluation is a *valid* program the
/// analysis used to refuse: `i` ends at 1, inside the window.
#[test]
fn a_valid_side_effecting_index_elaborates_certifies_and_runs() {
    let src = windowed(2, "int i = 0; int[4] a; a[i++] += 1; push(peek(i));");
    let g = elaborate(&parse(&src).unwrap()).expect("the program is valid");
    g.for_each_filter(&mut |inst| {
        assert!(
            inst.facts.work.cert.is_some(),
            "{}: {:?}",
            inst.name,
            inst.facts.work.uncertified
        );
    });
    let opt = OptStream::from_graph(&g);
    for tier in [Tier::Bytecode, Tier::TreeWalk] {
        for cert in [true, false] {
            let spec = RunSpec {
                tier,
                cert,
                ..RunSpec::default()
            };
            let outputs = spec.run(&opt, 3).unwrap().outputs;
            assert_eq!(outputs, [1.0, 2.0, 3.0], "{tier:?}, cert {cert}");
        }
    }
}

/// Through the daemon the wrong certificate was a panic that took the
/// process, and every healthy stream in it, down. It is a `compile_error`
/// for the one `open`, and the neighbours never notice.
#[test]
fn an_unsound_program_is_a_compile_error_that_spares_its_neighbours() {
    let svc = Service::new(ServiceOpts::default());
    let request = |line: String| json::parse(&svc.handle(&line)).expect("response parses");
    let open = |id: &str, program: &str| {
        request(
            Json::obj([
                ("op", Json::from("open")),
                ("id", Json::from(id)),
                ("program", Json::from(program)),
            ])
            .dump(),
        )
    };
    let fir = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/assets/fir.str"))
        .expect("assets/fir.str is checked in");
    assert_eq!(open("fir", &fir).get("ok"), Some(&Json::Bool(true)));
    let want = request(r#"{"op":"read","id":"fir","n":4}"#.into());
    assert_eq!(want.get("ok"), Some(&Json::Bool(true)), "{want:?}");

    let bad = windowed(
        3,
        "if (true) { int a = -3; } if (true) { int b = b + 5; push(peek(b)); }",
    );
    let refused = open("bad", &bad);
    assert_eq!(
        refused.get("error").and_then(Json::as_str),
        Some("compile_error"),
        "{refused:?}"
    );
    let detail = refused.get("detail").and_then(Json::as_str).unwrap_or("");
    assert!(detail.contains("peek(5) after 0 pops"), "{refused:?}");
    // Nothing to read from the refused stream; the neighbour and the
    // daemon carry on.
    let gone = request(r#"{"op":"read","id":"bad","n":1}"#.into());
    assert_eq!(gone.get("ok"), Some(&Json::Bool(false)), "{gone:?}");
    let next = request(r#"{"op":"read","id":"fir","n":4}"#.into());
    assert_eq!(next.get("ok"), Some(&Json::Bool(true)), "{next:?}");
    assert_eq!(
        next.get("values").and_then(Json::as_arr).map(<[Json]>::len),
        Some(4)
    );
    let pong = request(r#"{"op":"ping"}"#.into());
    assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
}

// ---- the facts golden -----------------------------------------------------------

/// One phase's facts: its certificate or why there is none, and its
/// possible pop and push counts.
fn phase_line(p: &streamlin::graph::analyze::PhaseFacts) -> String {
    let cert = match (&p.cert, &p.uncertified) {
        (Some(c), _) => format!("cert={}/{}/{}", c.peek, c.pop, c.push),
        (None, Some(why)) => format!("uncertified={why:?}"),
        (None, None) => "uncertified".into(),
    };
    let (pl, ph) = p.pop_range;
    let (ul, uh) = p.push_range;
    format!("{cert} pop=[{pl},{ph}] push=[{ul},{uh}]")
}

/// One line per filter instance with every field of its `FilterFacts`;
/// a periodic source's values are hashed bit for bit (FNV-1a).
fn facts_of(label: &str, graph: &streamlin::graph::Stream, out: &mut String) {
    graph.for_each_filter(&mut |inst| {
        let f = &inst.facts;
        let init = f.init_work.as_ref().map_or("none".into(), phase_line);
        let lints: Vec<String> = (f.lints.iter())
            .map(|l| format!("{}@{} {:?}", l.code, l.span, l.message))
            .collect();
        let errors: Vec<String> = (f.errors.iter())
            .map(|e| format!("{} {:?}", e.span, e.message))
            .collect();
        let plumbing = match &f.plumbing {
            None => "none".to_string(),
            Some(Plumbing::PrintSink { pop }) => format!("PrintSink(pop={pop})"),
            Some(Plumbing::DiscardSink { pop }) => format!("DiscardSink(pop={pop})"),
            Some(Plumbing::Periodic { values, pos }) => {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for v in values.iter() {
                    h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
                }
                format!("Periodic(m={}, pos={pos}, fnv64={h:016x})", values.len())
            }
        };
        out.push_str(&format!(
            "{label} · {} · work: {} · init: {init} · lints: [{}] · errors: [{}] · plumbing: {plumbing}\n",
            inst.name,
            phase_line(&f.work),
            lints.join("; "),
            errors.join("; "),
        ));
    });
}

/// `tests/golden/facts.txt` pins the rate analysis filter by
/// filter: generated on the commit before the abstract walk's linear forms
/// and scalar cells were rewritten for speed, one line per filter instance
/// of the nine benchmarks, `fir(1024)` and the checked-in assets. The
/// `effect=` column went with the state-effect lattice, cut from the old
/// file by `sed`, not regenerated. Never regenerate it to make a change
/// pass; on a mismatch the actual transcript is written to the test temp
/// dir for diffing.
#[test]
fn facts_match_the_parent_commit_golden() {
    let mut actual = String::new();
    let mut benches = all_default();
    benches.push(streamlin::benchmarks::fir(1024));
    for b in &benches {
        facts_of(b.name(), b.graph(), &mut actual);
    }
    for name in [
        "assets/fir.str",
        "assets/lintbait.str",
        "assets/rateconvert.str",
    ] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        let src = std::fs::read_to_string(path).expect("read the asset");
        let graph = elaborate(&parse(&src).unwrap()).unwrap();
        facts_of(name, &graph, &mut actual);
    }
    let golden = include_str!("golden/facts.txt");
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("facts.actual.txt");
        std::fs::write(&path, &actual).expect("write actual transcript");
        let line = (actual.lines().zip(golden.lines()))
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "facts transcript differs from tests/golden/facts.txt at line {}; actual written to {}",
            line + 1,
            path.display()
        );
    }
}
