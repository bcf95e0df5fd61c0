//! The random program generator behind `graph_fuzz`: well-formed
//! `void->void` programs — pipelines, splitjoins and feedback loops of
//! stateless, linear-extractable (FIR-like) and stateful filters with
//! random rates — rendered as StreamIt-dialect source.

// Each test file that includes this module uses a part of it.
#![allow(dead_code)]

use proptest::prelude::*;

/// One mid-pipeline stage of a generated program.
#[derive(Debug, Clone)]
pub enum Stage {
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
    /// Duplicate splitjoin of pipelines, each a `Stateless`/`Heavy` head
    /// and a `Stateful` tail, joined `roundrobin` with the weights that
    /// balance the columns' rates.
    Grid { columns: Vec<Vec<Stage>> },
}

impl Stage {
    /// Items a loop stage enqueues: enough for the joiner rounds its body
    /// peeks at, each `wback` items from the back edge, plus `extra`.
    fn enqueued(win: usize, wback: usize, peek_extra: usize, extra: usize) -> usize {
        wback * (1 + peek_extra.div_ceil(win + wback)) + extra
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub stages: Vec<Stage>,
    /// Items the source pushes per firing.
    pub src_push: usize,
}

/// Renders a spec as StreamIt-dialect source. All coefficients are small
/// dyadic rationals, so the printed program round-trips exactly.
pub fn render(spec: &Spec) -> String {
    use std::fmt::Write as _;
    let mut adds = String::new();
    let mut decls = String::new();
    for (i, stage) in spec.stages.iter().enumerate() {
        let _ = write!(adds, " add F{i}();");
        match stage {
            Stage::Stateless { .. } | Stage::Stateful { .. } | Stage::Heavy { .. } => {
                render_filter(&mut decls, &format!("F{i}"), stage)
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
            Stage::Grid { columns } => {
                // Column j turns one input item into num_j / den_j outputs;
                // the joiner takes them in that proportion.
                let gains: Vec<(usize, usize)> = (columns.iter())
                    .map(|column| {
                        let (num, den) = (column.iter().map(rates))
                            .fold((1, 1), |(n, d), (pop, push)| (n * push, d * pop));
                        let g = gcd(num, den);
                        (num / g, den / g)
                    })
                    .collect();
                let lcm = gains.iter().fold(1, |l, &(_, d)| l / gcd(l, d) * d);
                let weights: Vec<usize> = gains.iter().map(|&(n, d)| n * (lcm / d)).collect();
                let common = weights.iter().fold(0, |g, &w| gcd(g, w));
                let mut adds = String::new();
                for (j, column) in columns.iter().enumerate() {
                    adds.push_str("add pipeline {");
                    for (k, stage) in column.iter().enumerate() {
                        let name = format!("F{i}c{j}s{k}");
                        let _ = write!(adds, " add {name}();");
                        render_filter(&mut decls, &name, stage);
                    }
                    adds.push_str(" }; ");
                }
                let weights: Vec<String> =
                    weights.iter().map(|w| (w / common).to_string()).collect();
                let _ = writeln!(
                    decls,
                    "float->float splitjoin F{i} {{ split duplicate; {adds}join roundrobin({}); }}",
                    weights.join(", ")
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

/// Declares filter `name` as a `Stateless`, `Stateful` or `Heavy` stage.
fn render_filter(decls: &mut String, name: &str, stage: &Stage) {
    use std::fmt::Write as _;
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
                    "float->float filter {name} {{ work peek {peek} pop {pop} push {push} {{ {body} }} }}"
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
                    "float->float filter {name} {{ float acc; work pop {pop} push {push} {{ {body} }} }}"
                );
        }
        Stage::Heavy { peek, scale_q } => {
            let _ = write!(
                decls,
                "float->float filter {name} {{
                         work peek {peek} pop 1 push 1 {{
                             float s = 0;
                             for (int k = 0; k < {peek}; k++) s += ({scale_q}.0 * 0.125) * peek(k);
                             push(s);
                             pop();
                         }}
                     }}\n"
            );
        }
        _ => unreachable!("not a single filter"),
    }
}

/// Items a `Stateless`, `Stateful` or `Heavy` stage pops and pushes per
/// firing.
fn rates(stage: &Stage) -> (usize, usize) {
    match *stage {
        Stage::Stateless { pop, push, .. } | Stage::Stateful { pop, push } => (pop, push),
        Stage::Heavy { .. } => (1, 1),
        _ => unreachable!("not a single filter"),
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

pub fn stage_strategy() -> impl Strategy<Value = Stage> {
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

pub fn spec_strategy() -> impl Strategy<Value = Spec> {
    (proptest::collection::vec(stage_strategy(), 1..4), 1usize..3)
        .prop_map(|(stages, src_push)| Spec { stages, src_push })
}

/// Programs of one `Grid` stage: a duplicate splitjoin of two to four
/// pipelines, each one or two `Stateless`/`Heavy` filters and a `Stateful`
/// tail, so that no column collapses whole and the linear heads can only
/// be combined across the columns by a grid cut.
pub fn grid_spec_strategy() -> impl Strategy<Value = Spec> {
    let head = stage_strategy().prop_map(|stage| match stage {
        linear @ (Stage::Stateless { .. } | Stage::Heavy { .. }) => linear,
        _ => Stage::Heavy {
            peek: 12,
            scale_q: 3,
        },
    });
    let tail = (1usize..3, 1usize..3).prop_map(|(pop, push)| Stage::Stateful { pop, push });
    let column = (proptest::collection::vec(head, 1..3), tail).prop_map(|(mut stages, tail)| {
        stages.push(tail);
        stages
    });
    (proptest::collection::vec(column, 2..5), 1usize..3).prop_map(|(columns, src_push)| Spec {
        stages: vec![Stage::Grid { columns }],
        src_push,
    })
}

/// Programs of one to six stages, most of them linear-extractable
/// (stateless, heavy, or splitjoins of stateless branches), so that
/// selection has long runs of linear filters to collapse.
pub fn linear_spec_strategy() -> impl Strategy<Value = Spec> {
    let linear = || {
        stage_strategy().prop_map(|stage| match stage {
            Stage::Stateful { pop, push } | Stage::Wobbly { pop, push, .. } => Stage::Stateless {
                peek: pop + 1,
                pop,
                push,
                coeffs: vec![1, -1],
            },
            linear => linear,
        })
    };
    let stage = prop_oneof![linear(), linear(), linear(), stage_strategy()];
    (proptest::collection::vec(stage, 1..7), 1usize..3)
        .prop_map(|(stages, src_push)| Spec { stages, src_push })
}
