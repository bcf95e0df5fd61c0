//! Property test for the extraction analysis (§3.2): generate random
//! linear work functions as *source text*, and check the extracted node's
//! firing semantics against the runtime interpreter executing the same
//! program — analysis and execution must agree item-for-item.
//!
//! The generated bodies are not straight-line: each output is computed in
//! one of several shapes (loops that re-declare an outer local, compound
//! assignment, `++`, decided and undecided branches, short-circuit
//! operators with side effects) that stay affine by construction, so the
//! extractor's scoping, coercion and control-flow rules are exercised
//! against the interpreter's. Three of the shapes aim at the rate
//! analysis instead — a stale frame slot, an index with a side effect, an
//! `int` stored into a `float` — each steering a `peek` whose offset is
//! only inside the window if the analysis walks the body the way the
//! interpreters do; and the property holds every certificate it issues
//! against the checked tape. Below the property sit the fixed programs on
//! which extraction and interpretation once disagreed.

use proptest::prelude::*;
use streamlin::core::combine::analyze_graph;
use streamlin::core::opt::OptStream;
use streamlin::core::Config;
use streamlin::graph::elaborate;
use streamlin::lang::parse;
use streamlin::runtime::flat::NodeKind;
use streamlin::runtime::{Profile, RunSpec};

/// How many shapes [`RandFilter::render_output`] knows.
const SHAPES: u8 = 10;

/// A random affine work function: for each output, a sum of
/// `coeff * peek(i)` terms plus a constant, computed in shape `shapes[j]`.
#[derive(Debug, Clone)]
struct RandFilter {
    peek: usize,
    pop: usize,
    terms: Vec<Vec<(usize, i32)>>,
    offsets: Vec<i32>,
    shapes: Vec<u8>,
}

fn arb_filter() -> impl Strategy<Value = RandFilter> {
    (1usize..=5, 1usize..=3).prop_flat_map(|(peek, push)| {
        let pop = 1usize..=peek;
        let terms = proptest::collection::vec(
            proptest::collection::vec((0..peek, -3..=3i32), 0..=peek),
            push,
        );
        let offsets = proptest::collection::vec(-2..=2i32, push);
        let shapes = proptest::collection::vec(0..SHAPES, push);
        (Just(peek), pop, terms, offsets, shapes).prop_map(|(peek, pop, terms, offsets, shapes)| {
            RandFilter {
                peek,
                pop,
                terms,
                offsets,
                shapes,
            }
        })
    })
}

impl RandFilter {
    /// The statements that compute and push output `j`.
    fn render_output(&self, j: usize) -> String {
        let off = self.offsets[j];
        let sum: String = self.terms[j]
            .iter()
            .map(|(pos, coeff)| format!(" + {coeff} * peek({pos})"))
            .collect();
        // Locals are per output: the dialect has no bare block statement.
        let (acc, t) = (format!("acc{j}"), format!("t{j}"));
        let accumulate: String = self.terms[j]
            .iter()
            .map(|(pos, coeff)| format!("{acc} += {coeff} * peek({pos});\n"))
            .collect();
        match self.shapes[j] {
            // Straight line.
            0 => format!("push({off}{sum});\n"),
            // Compound assignment and `++` on a local accumulator (an int
            // initializer stored into a float).
            1 => format!("float {acc} = {off} - 1; {acc}++;\n{accumulate}push({acc});\n"),
            // A constant-trip `for` whose body re-declares the outer local.
            2 => format!(
                "float {acc} = {off};
                 for (int i = 0; i < 2; i++) {{ float {acc} = 9; {acc} += peek(0); }}
                 {accumulate}push({acc});\n"
            ),
            // A constant-condition `if`: the dead branch must not run.
            3 => format!("if (1 > 2) {{ push(99 * peek(0)); }} else {{ push({off}{sum}); }}\n"),
            // An input-dependent `if` whose branches push the same form.
            4 => format!("if (peek(0) > 0) {{ push({off}{sum}); }} else {{ push({off}{sum}); }}\n"),
            // `&&`/`||` with a side effect on the right: skipped when the
            // left decides, run (once) when it does not.
            5 => format!(
                "int {t} = 0;
                 if (1 > 2 && {t}++ > 0) {{ }}
                 if (true || {t}++ > 0) {{ }}
                 if (2 > 1 && {t}++ >= 0) {{ }}
                 push({off}{sum} + {t} - 1);\n"
            ),
            // An undecided left operand: the right may or may not run, so
            // the local is unknown afterwards — and unused.
            6 => format!(
                "int {t} = 0;
                 if (peek(0) > 0 || {t}++ > 0) {{ }}
                 push({off}{sum});\n"
            ),
            // A sibling-scope local whose initialiser mentions itself,
            // after another local left 7 in the frame slot they share: it
            // reads the fresh zero, so the peek is `peek(0)`, not `peek(7)`.
            7 => format!(
                "if (true) {{ int junk{j} = 7; }}
                 if (true) {{
                     int {t} = {t} + 1;
                     push({off}{sum} + 0 * peek({t} - 1) + {t} - 1);
                 }}\n"
            ),
            // `a[i±±] op= v` and `a[i±±]±±` evaluate the index once: `i`
            // moves one step, and `peek` follows it.
            8 if off % 2 == 0 => format!(
                "int {t} = 0; float[2] {acc};
                 {acc}[{t}++] += 3;
                 push({off}{sum} + 0 * peek({t} - 1) + {acc}[0] - 3);\n"
            ),
            8 => format!(
                "int {t} = 1; float[2] {acc};
                 {acc}[{t}--]++;
                 push({off}{sum} + 0 * peek({t}) + {acc}[1] - 1);\n"
            ),
            // An `int` stored into a `float` divides as a float: the live
            // branch is the first, and the one past the window is dead.
            _ => format!(
                "float {acc} = 0; {acc} = 2;
                 if ({acc} / 4 > 0.25) {{ push({off}{sum} + 0 * peek(0)); }}
                 else {{ push({off}{sum} + 0 * peek({past})); }}\n",
                past = self.peek
            ),
        }
    }

    fn render(&self) -> String {
        let mut body: String = (0..self.terms.len())
            .map(|j| self.render_output(j))
            .collect();
        for _ in 0..self.pop {
            body.push_str("pop();\n");
        }
        format!(
            "void->void pipeline Main {{ add Src(); add F(); add Sink(); }}
             void->float filter Src {{ float x; work push 1 {{ push(sin(x++)); }} }}
             float->float filter F {{
                 work peek {} pop {} push {} {{
                     {body}
                 }}
             }}
             float->void filter Sink {{ work pop 1 {{ println(pop()); }} }}",
            self.peek,
            self.pop,
            self.terms.len(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn extraction_agrees_with_interpretation(f in arb_filter()) {
        let program = parse(&f.render()).unwrap();
        let graph = elaborate(&program).unwrap();
        let analysis = analyze_graph(&graph);
        // The generated filter is affine by construction: extraction must
        // find it (source and sink are the non-linear ones).
        prop_assert_eq!(analysis.linear_count(), 1);

        let spec = RunSpec::default();
        let interpreted = OptStream::from_graph(&graph);
        let interp = spec.run(&interpreted, 64).unwrap();
        let per_filter = Config::Baseline.apply(&graph, &analysis).unwrap();
        let node_based = spec.run(&per_filter, 64).unwrap();
        prop_assert_eq!(interp.outputs.len(), node_based.outputs.len());
        for (a, b) in interp.outputs.iter().zip(&node_based.outputs) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }

        // A certificate is a promise the engines index the window by: the
        // same program on the checked tape must complete, bit-identically.
        let mut certified = false;
        graph.for_each_filter(&mut |inst| {
            certified |= inst.name == "F" && inst.facts.work.cert.is_some();
        });
        if certified {
            let run = |cert| {
                let spec = RunSpec { cert, ..spec.clone() };
                let art = spec.compile(&interpreted).unwrap();
                // The built graph took the tape discipline this run names.
                let unchecked = art.flat.nodes.iter().any(|n| {
                    matches!(&n.kind, NodeKind::Interp(state) if state.work_certified)
                });
                assert_eq!(unchecked, cert);
                spec.run_compiled(art, 64)
            };
            let (trusted, checked) = (run(true), run(false));
            prop_assert!(checked.is_ok(), "checked run of a certified filter: {checked:?}");
            let bits = |p: Profile| p.outputs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(trusted.unwrap()), bits(checked.unwrap()));
        }
    }
}

// ---- programs the extractor once got wrong ------------------------------------

/// Runs `float->float filter F { <fields> work pop 1 push 1 { <body> } }`
/// behind a source that pushes 0, 1, 2, …: the interpreted graph and
/// `Config::Linear` must both print `coeff · i`, and the extracted node's
/// one coefficient must be `coeff` itself.
fn assert_scales_by(fields: &str, body: &str, coeff: f64) {
    let program = parse(&format!(
        "void->void pipeline Main {{ add Src(); add F(); add Sink(); }}
         void->float filter Src {{ float x; work push 1 {{ push(x++); }} }}
         float->float filter F {{ {fields} work pop 1 push 1 {{ {body} }} }}
         float->void filter Sink {{ work pop 1 {{ println(pop()); }} }}"
    ))
    .unwrap();
    let graph = elaborate(&program).unwrap();
    let analysis = analyze_graph(&graph);
    let mut node = None;
    graph.for_each_filter(&mut |inst| {
        if inst.name == "F" {
            node = analysis.node_for(inst);
        }
    });
    let node = node.unwrap_or_else(|| panic!("`{body}` did not extract"));
    assert_eq!(node.coeff(0, 0), coeff, "`{body}`");
    assert_eq!(node.offset(0), 0.0, "`{body}`");

    let want: Vec<f64> = (0..8).map(|i| coeff * f64::from(i)).collect();
    for cert in [true, false] {
        let spec = RunSpec {
            cert,
            ..RunSpec::default()
        };
        let interp = spec.run(&OptStream::from_graph(&graph), 8).unwrap();
        let linear = spec
            .run(&Config::Linear.apply(&graph, &analysis).unwrap(), 8)
            .unwrap();
        assert_eq!(interp.outputs, want, "`{body}` interpreted, cert {cert}");
        assert_eq!(linear.outputs, want, "`{body}` under Config::Linear");
    }
}

#[test]
fn an_inner_declaration_does_not_overwrite_the_outer_binding() {
    assert_scales_by(
        "",
        "float k = 2; for (int i = 0; i < 1; i++) { float k = 5; } push(k * pop());",
        2.0,
    );
}

#[test]
fn a_block_local_shadowing_a_field_leaves_the_field_alone() {
    assert_scales_by(
        "float k; init { k = 2; }",
        "for (int i = 0; i < 1; i++) { float k = 5; k = k + 1; } push(k * pop());",
        2.0,
    );
}

#[test]
fn a_decided_and_skips_its_right_operand() {
    assert_scales_by(
        "",
        "int x = 0; if (1 > 2 && x++ > 0) { } push(pop() * (x + 1));",
        1.0,
    );
}

#[test]
fn a_decided_or_skips_its_right_operand() {
    assert_scales_by(
        "",
        "int x = 0; if (true || x++ > 0) { } push(pop() * (x + 1));",
        1.0,
    );
}

#[test]
fn an_int_stored_into_a_float_local_divides_as_a_float() {
    assert_scales_by("", "float k = 2; push(k / 4 * pop());", 0.5);
}
