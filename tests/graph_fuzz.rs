//! Random-graph differential fuzzing of the whole execution stack.
//!
//! A property-based generator (built on the offline `proptest` stand-in
//! in `tools/proptest`) produces well-formed `void->void` programs —
//! pipelines, splitjoins and feedback loops of stateless,
//! linear-extractable (FIR-like) and stateful filters with random rates —
//! and every generated program is held to the data-driven reference
//! engine (`tests/reference`) on:
//!
//! * the single-threaded static plan,
//! * the pipeline-parallel executor at stage budgets 1, [`THREADS`]
//!   and 4,
//! * and the pipeline executor once more under **supervision with a
//!   seeded injected worker panic** — the run must complete (on the
//!   pipeline, or via the watchdog-guarded single-threaded fallback)
//!   with the same bits,
//! * plus a **bytecode ablation**: the single-threaded static plan run
//!   again with `tier: Tier::TreeWalk` in that run's spec, pinning the
//!   flattened instruction dispatch against the reference.
//!
//! A generated feedback loop is seeded by construction: its joiner
//! weights, its body's lookahead or `initWork` phase, its loop filter's
//! rates and its enqueue count vary, but it always enqueues enough items
//! to run. Under-seeded loops are refused when they compile; the unit
//! tests of `runtime::plan` pin that refusal.
//!
//! Every run that does not name them takes its interpreter tier and its
//! tape discipline (`cert`) from the case's own seed, so the pipeline
//! and fault families see both values of both knobs over the cases — and every built graph is asked whether its nodes took them.
//!
//! The differential property: all of them print **bit-identical**
//! outputs, and — within the cycle-quantized pipeline family, where the
//! determinism contract promises it — operation tallies and firing
//! counts are identical across stage budgets. (The
//! reference and the single-threaded static plan stop at the exact output
//! target rather than on cycle boundaries, so their tallies measure a
//! different run length by design; their printed output is the pinned
//! surface.) Both optimization configs run: `interp` (no replacement:
//! every filter is interpreted) and `autosel` (linear extraction may turn
//! the stateless ones into linear/frequency kernels).

use std::time::Duration;

use proptest::prelude::*;
use streamlin::core::combine::analyze_graph;
use streamlin::core::{Config, OptStream};
use streamlin::runtime::flat::NodeKind;
use streamlin::runtime::{RunSpec, Tier};
use streamlin::support::InjectFaults;

mod reference;

/// FNV-1a over the rendered program: a deterministic per-case fault seed,
/// so every fuzz case drills a *different* (but reproducible) fault site.
fn fault_seed(src: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in src.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stage budget of the main pipeline run.
const THREADS: usize = 2;

// ---- program generator ------------------------------------------------------

/// One mid-pipeline stage of a generated program.
#[derive(Debug, Clone)]
enum Stage {
    /// FIR-like stateless filter: `push(Σ cᵢ·peek(iᵢ) + b)` per output.
    Stateless {
        peek: usize,
        pop: usize,
        push: usize,
        coeffs: Vec<i32>,
    },
    /// Stateful accumulator.
    Stateful { pop: usize, push: usize },
    /// Heavy sliding-window filter (a loop over the whole peek window) —
    /// expensive enough to become the dominant node, and
    /// linear-extractable under `autosel`.
    Heavy { peek: usize, scale_q: i32 },
    /// Round-robin splitjoin of two stateless branches.
    SplitJoin {
        pops: [usize; 2],
        pushes: [usize; 2],
        coeffs: [i32; 2],
    },
    /// Occasionally-uncertifiable filter: a state-guarded extra `push`
    /// sits behind a threshold the run never reaches, so the static
    /// analysis cannot certify the push rate (range `[push, push+1]`)
    /// and the engines must keep it on the checked tape path — where it
    /// behaves exactly at the declared rate.
    Wobbly { pop: usize, push: usize, coeff: i32 },
    /// Feedback loop: `join roundrobin(win, wback)`; a body that pops one
    /// joiner round of `win + wback`, peeks `peek_extra` past it, and
    /// pushes `down + back` (with an `initWork` phase that does not peek
    /// past, when `init_work`); `split roundrobin(down, back)`; a loop
    /// filter turning `back` items into `wback`. It enqueues what its body
    /// needs before it can fire, plus `extra` items.
    Loop {
        win: usize,
        wback: usize,
        down: usize,
        back: usize,
        peek_extra: usize,
        init_work: bool,
        extra: usize,
        coeff: i32,
    },
}

impl Stage {
    /// Items a loop stage enqueues: enough for the joiner rounds its body
    /// peeks at, each `wback` items from the back edge, plus `extra`.
    fn enqueued(win: usize, wback: usize, peek_extra: usize, extra: usize) -> usize {
        wback * (1 + peek_extra.div_ceil(win + wback)) + extra
    }
}

#[derive(Debug, Clone)]
struct Spec {
    stages: Vec<Stage>,
    /// Items the source pushes per firing.
    src_push: usize,
}

/// Renders a spec as StreamIt-dialect source. All coefficients are small
/// dyadic rationals, so the printed program round-trips exactly.
fn render(spec: &Spec) -> String {
    use std::fmt::Write as _;
    let mut adds = String::new();
    let mut decls = String::new();
    for (i, stage) in spec.stages.iter().enumerate() {
        let _ = write!(adds, " add F{i}();");
        match stage {
            Stage::Stateless {
                peek,
                pop,
                push,
                coeffs,
            } => {
                let mut body = String::new();
                for j in 0..*push {
                    let mut terms = Vec::new();
                    for (t, c) in coeffs.iter().enumerate() {
                        let pos = (t * 3 + j) % peek;
                        terms.push(format!("{}.0 * 0.25 * peek({pos})", c));
                    }
                    let _ = write!(body, "push({} + {}.5); ", terms.join(" + "), j);
                }
                for _ in 0..*pop {
                    body.push_str("pop(); ");
                }
                let _ = writeln!(
                    decls,
                    "float->float filter F{i} {{ work peek {peek} pop {pop} push {push} {{ {body} }} }}"
                );
            }
            Stage::Stateful { pop, push } => {
                let mut body = String::from("acc = acc * 0.5 + pop(); ");
                for _ in 1..*pop {
                    body.push_str("acc += pop(); ");
                }
                for j in 0..*push {
                    let _ = write!(body, "push(acc + {j}.0); ");
                }
                let _ = writeln!(
                    decls,
                    "float->float filter F{i} {{ float acc; work pop {pop} push {push} {{ {body} }} }}"
                );
            }
            Stage::Heavy { peek, scale_q } => {
                let _ = write!(
                    decls,
                    "float->float filter F{i} {{
                         work peek {peek} pop 1 push 1 {{
                             float s = 0;
                             for (int k = 0; k < {peek}; k++) s += ({scale_q}.0 * 0.125) * peek(k);
                             push(s);
                             pop();
                         }}
                     }}\n"
                );
            }
            Stage::SplitJoin {
                pops,
                pushes,
                coeffs,
            } => {
                let _ = write!(
                    decls,
                    "float->float splitjoin F{i} {{
                         split roundrobin({}, {});
                         add B{i}a(); add B{i}b();
                         join roundrobin({}, {});
                     }}\n",
                    pops[0], pops[1], pushes[0], pushes[1]
                );
                for (tag, (o, (u, c))) in ["a", "b"]
                    .iter()
                    .zip(pops.iter().zip(pushes.iter().zip(coeffs.iter())))
                {
                    let mut body = String::new();
                    for j in 0..*u {
                        let _ = write!(body, "push({c}.0 * 0.5 * peek({})); ", j % o);
                    }
                    for _ in 0..*o {
                        body.push_str("pop(); ");
                    }
                    let _ = writeln!(
                        decls,
                        "float->float filter B{i}{tag} {{ work peek {o} pop {o} push {u} {{ {body} }} }}"
                    );
                }
            }
            Stage::Wobbly { pop, push, coeff } => {
                let mut body = String::new();
                for j in 0..*push {
                    let _ = write!(body, "push({coeff}.0 * 0.25 * peek({}) + {j}.5); ", j % pop);
                }
                body.push_str("if (t > 1000000000.0) push(t); t = t + 0.5; ");
                for _ in 0..*pop {
                    body.push_str("pop(); ");
                }
                let _ = writeln!(
                    decls,
                    "float->float filter F{i} {{ float t; work pop {pop} push {push} {{ {body} }} }}"
                );
            }
            &Stage::Loop {
                win,
                wback,
                down,
                back,
                peek_extra,
                init_work,
                extra,
                coeff,
            } => {
                let mut enqueue = String::new();
                for k in 0..Stage::enqueued(win, wback, peek_extra, extra) {
                    let _ = write!(enqueue, " enqueue {k}.25;");
                }
                let _ = write!(
                    decls,
                    "float->float feedbackloop F{i} {{
                         join roundrobin({win}, {wback});
                         body F{i}b();
                         loop F{i}l();
                         split roundrobin({down}, {back});
                        {enqueue}
                     }}\n"
                );
                let (pop, push) = (win + wback, down + back);
                let phase = |peek: usize| {
                    let mut body = String::new();
                    for j in 0..push {
                        let (a, b) = ((2 * j + 1) % peek, j % peek);
                        let _ = write!(
                            body,
                            "push({coeff}.0 * 0.25 * peek({a}) + 0.5 * peek({b}) + {j}.5); "
                        );
                    }
                    body.push_str(&"pop(); ".repeat(pop));
                    body
                };
                let first = match init_work {
                    true => format!("initWork pop {pop} push {push} {{ {} }}", phase(pop)),
                    false => String::new(),
                };
                let peek = pop + peek_extra;
                let _ = writeln!(
                    decls,
                    "float->float filter F{i}b {{ {first} work peek {peek} pop {pop} push {push} {{ {} }} }}",
                    phase(peek)
                );
                let mut body = String::from("float s = 0; ");
                body.push_str(&"s += pop(); ".repeat(back));
                for j in 0..wback {
                    let _ = write!(body, "push(s * 0.5 + {j}.0); ");
                }
                let _ = writeln!(
                    decls,
                    "float->float filter F{i}l {{ work pop {back} push {wback} {{ {body} }} }}"
                );
            }
        }
    }
    let mut src = String::new();
    let _ = writeln!(
        src,
        "void->void pipeline Main {{ add Src();{adds} add Snk(); }}"
    );
    let mut pushes = String::new();
    for j in 0..spec.src_push {
        let _ = write!(pushes, "push(x * 0.75 - {j}.25); x = x + 1.0; ");
    }
    let _ = writeln!(
        src,
        "void->float filter Src {{ float x; work push {} {{ {pushes} }} }}",
        spec.src_push
    );
    src.push_str("float->void filter Snk { work pop 1 { println(pop()); } }\n");
    src.push_str(&decls);
    src
}

fn stage_strategy() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (
            2usize..6,
            1usize..3,
            1usize..3,
            proptest::collection::vec(-4i32..=4, 1..3)
        )
            .prop_map(|(peek_extra, pop, push, coeffs)| Stage::Stateless {
                peek: pop + peek_extra,
                pop,
                push,
                coeffs,
            }),
        (1usize..3, 1usize..3).prop_map(|(pop, push)| Stage::Stateful { pop, push }),
        (6usize..24, 1i32..5).prop_map(|(peek, scale_q)| Stage::Heavy { peek, scale_q }),
        (
            1usize..3,
            1usize..3,
            1usize..3,
            1usize..3,
            -3i32..=3,
            -3i32..=3
        )
            .prop_map(|(o1, o2, u1, u2, c1, c2)| Stage::SplitJoin {
                pops: [o1, o2],
                pushes: [u1, u2],
                coeffs: [c1, c2],
            }),
        (1usize..3, 1usize..3, -3i32..=3).prop_map(|(pop, push, coeff)| Stage::Wobbly {
            pop,
            push,
            coeff
        }),
        (
            (1usize..3, 1usize..3, 1usize..3, 1usize..3),
            (0usize..4, 0usize..2, 0usize..4, -2i32..=2)
        )
            .prop_map(
                |((win, wback, down, back), (peek_extra, init_work, extra, coeff))| Stage::Loop {
                    win,
                    wback,
                    down,
                    back,
                    peek_extra,
                    init_work: init_work == 1,
                    extra,
                    coeff,
                }
            ),
    ]
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (proptest::collection::vec(stage_strategy(), 1..4), 1usize..3)
        .prop_map(|(stages, src_push)| Spec { stages, src_push })
}

// ---- the differential property ---------------------------------------------

fn assert_bits_equal(label: &str, reference: &[f64], got: &[f64]) {
    assert_eq!(reference.len(), got.len(), "{label}: output count differs");
    for (i, (a, b)) in reference.iter().zip(got).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: output {i} differs: {a} vs {b}"
        );
    }
}

/// Runs the differential property.
fn check_spec(spec: &Spec) {
    let src = render(spec);
    let program = streamlin::lang::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let graph = streamlin::graph::elaborate(&program).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let analysis = analyze_graph(&graph);
    // Wobbly stages must have defeated certification (their push count is
    // state-dependent), everything else here is statically provable.
    for (i, stage) in spec.stages.iter().enumerate() {
        let decl = format!("F{i}");
        graph.for_each_filter(&mut |inst| {
            if inst.decl_name == decl {
                let certified = inst.facts.work.cert.is_some();
                match stage {
                    Stage::Wobbly { .. } => {
                        assert!(!certified, "{decl} must be uncertifiable\n{src}")
                    }
                    _ => assert!(
                        certified,
                        "{decl} must certify: {:?}\n{src}",
                        inst.facts.work.uncertified
                    ),
                }
            }
        });
    }
    let configs = vec![
        ("interp", OptStream::from_graph(&graph)),
        (
            "autosel",
            Config::AutoSel
                .apply(&graph, &analysis)
                .unwrap_or_else(|e| panic!("{e}\n{src}")),
        ),
    ];
    let outputs = 48;
    let seed = fault_seed(&src);
    let base = RunSpec {
        tier: [Tier::Bytecode, Tier::TreeWalk][(seed & 1) as usize],
        cert: seed & 2 == 0,
        ..RunSpec::default()
    };
    for (label, opt) in configs {
        // The tier and the tape discipline are fields of each run's spec,
        // so nothing a sibling test does can change what runs here — and
        // the built graph says so.
        let build = |what: &str, spec: &RunSpec| {
            let art = spec
                .compile(&opt)
                .unwrap_or_else(|e| panic!("{label} {what}: {e}\n{src}"));
            for node in &art.flat.nodes {
                if let NodeKind::Interp(state) = &node.kind {
                    let at = format!("{label} {what}: {}", node.name);
                    assert_eq!(state.use_bytecode, spec.tier == Tier::Bytecode, "{at}");
                    assert!(spec.cert || !state.work_certified, "{at}");
                }
            }
            art
        };
        let run = |what: &str, spec: RunSpec| {
            spec.run_compiled(build(what, &spec), outputs)
                .unwrap_or_else(|e| panic!("{label} {what}: {e}\n{src}"))
        };
        let reference = reference::run(&opt, outputs, base.tier, base.cert)
            .unwrap_or_else(|e| panic!("{label} reference: {e}\n{src}"));

        // The bytecode ablation family: the same plan on each tier must
        // print the same bits and count the same operations.
        let tiers = [Tier::Bytecode, Tier::TreeWalk].map(|tier| {
            let spec = RunSpec {
                tier,
                ..base.clone()
            };
            run(&format!("{tier:?}"), spec)
        });
        for on_tier in &tiers {
            assert_bits_equal(label, &reference.outputs, &on_tier.outputs);
        }
        assert_eq!(
            tiers[0].ops, tiers[1].ops,
            "{label}: tallies differ between the tiers\n{src}"
        );

        // The cycle-quantized pipeline family: tallies and firing counts
        // must match across stage budgets.
        let pipeline = |threads| RunSpec {
            threads: Some(threads),
            ..base.clone()
        };
        let staged = run("pipeline", pipeline(THREADS));
        assert_bits_equal(label, &reference.outputs, &staged.outputs);
        for threads in [1, 4] {
            let other = run(&format!("threads={threads}"), pipeline(threads));
            assert_bits_equal(label, &reference.outputs, &other.outputs);
            assert_eq!(
                staged.firings, other.firings,
                "{label}: firings differ at threads={threads}\n{src}"
            );
            assert_eq!(
                staged.ops, other.ops,
                "{label}: tallies differ at threads={threads}\n{src}"
            );
        }

        // Robustness: the same pipeline run once more with a seeded
        // worker panic under supervision. Whatever the fault hits (or
        // misses — a seed can land on a step the run never reaches), the
        // property is the same: the run completes, either on the pipeline
        // or via the single-threaded fallback, and prints the same bits.
        let fault =
            InjectFaults::parse(&format!("{}:panic", fault_seed(&src))).expect("valid fault spec");
        let drilled = run(
            "fault drill",
            RunSpec {
                watchdog: Some(Duration::from_secs(5)),
                fault: Some(fault),
                ..pipeline(THREADS)
            },
        );
        assert_bits_equal(label, &reference.outputs, &drilled.outputs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_graphs_agree_across_all_engines(spec in spec_strategy()) {
        check_spec(&spec);
    }
}

/// A pinned regression case: a heavy filter behind a splitjoin, with a
/// stateful neighbour.
#[test]
fn pinned_mixed_graph_agrees_across_engines() {
    check_spec(&Spec {
        stages: vec![
            Stage::SplitJoin {
                pops: [2, 1],
                pushes: [1, 2],
                coeffs: [2, -1],
            },
            Stage::Heavy {
                peek: 12,
                scale_q: 3,
            },
            Stage::Stateful { pop: 2, push: 1 },
        ],
        src_push: 2,
    });
}

/// A pinned feedback loop whose body peeks past its round and has an
/// `initWork` phase, whose loop filter turns two items into one, and below
/// which a heavy filter needs lookahead the loop must circulate to supply.
#[test]
fn pinned_feedback_loop_agrees_across_engines() {
    check_spec(&Spec {
        stages: vec![
            Stage::Loop {
                win: 1,
                wback: 1,
                down: 1,
                back: 2,
                peek_extra: 3,
                init_work: true,
                extra: 1,
                coeff: -1,
            },
            Stage::Heavy {
                peek: 10,
                scale_q: 2,
            },
        ],
        src_push: 1,
    });
}

/// A pinned case with an uncertifiable stage in the middle: the checked
/// tape path must coexist with certified neighbors on every engine.
#[test]
fn pinned_uncertifiable_stage_agrees_across_engines() {
    check_spec(&Spec {
        stages: vec![
            Stage::Stateless {
                peek: 3,
                pop: 1,
                push: 2,
                coeffs: vec![2, -1],
            },
            Stage::Wobbly {
                pop: 2,
                push: 1,
                coeff: 2,
            },
            Stage::Heavy {
                peek: 8,
                scale_q: 2,
            },
        ],
        src_push: 1,
    });
}
