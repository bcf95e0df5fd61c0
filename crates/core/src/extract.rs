//! Linear extraction (paper §3.2, Algorithms 1 and 2): reading the verdict.
//!
//! Extraction is a flow-sensitive symbolic execution of the work function
//! that maps every program value to a *linear form* `⟨v⃗, c⟩` — a
//! coefficient vector over tape positions plus a constant — or to ⊤ when
//! no affine representation exists. Loops with compile-time bounds are
//! fully unrolled ("we can afford to symbolically execute all loop
//! iterations", §3.2), up to the walk's unroll bound
//! (`streamlin_graph::analyze::MAX_UNROLL`); both sides of input-dependent
//! branches execute and join under the confluence operator ⊔. If, at the
//! end, the declared number of items was popped and every pushed value is
//! a linear form, the filter *is* linear.
//!
//! That walk is not here. `streamlin_graph::analyze` walks every filter's
//! phases once, at elaboration, in one value domain whose linear reading
//! is extraction (`streamlin_graph::linear`), and stores the verdict as a
//! fact (`inst.facts.linear`): the coefficients in the layout a
//! [`LinearNode`] stores, or the [`NonLinear`] refusal with the span of the
//! statement that decided it. This file reads the fact and builds the
//! node; the one other binding of the walk's domain is
//! `state_space::extract_stateful`'s, with state components.

use streamlin_graph::ir::FilterInst;
use streamlin_graph::linear::{LinearFact, LinearRows};
use streamlin_lang::token::Span;
use streamlin_matrix::{Matrix, Vector};

use crate::node::LinearNode;

pub use streamlin_graph::linear::NonLinear;

/// Extracts the linear node of a filter instance, or explains why it is
/// not linear.
///
/// # Errors
///
/// Returns the first [`NonLinear`] reason encountered.
///
/// # Examples
///
/// ```
/// use streamlin_core::extract::extract;
/// use streamlin_graph::elaborate::elaborate_named;
///
/// let program = streamlin_lang::parse(
///     "float->float filter Fir(int N) {
///          float[N] h;
///          init { for (int i = 0; i < N; i++) h[i] = i + 1; }
///          work push 1 pop 1 peek N {
///              float sum = 0;
///              for (int i = 0; i < N; i++) sum += h[i] * peek(i);
///              push(sum);
///              pop();
///          }
///      }",
/// )
/// .unwrap();
/// let inst = elaborate_named(&program, "Fir", &[streamlin_graph::Value::Int(3)]).unwrap();
/// let streamlin_graph::Stream::Filter(f) = inst else { unreachable!() };
/// let node = extract(&f).unwrap();
/// assert_eq!((node.peek(), node.pop(), node.push()), (3, 1, 1));
/// assert_eq!(node.coeff(2, 0), 3.0);
/// ```
pub fn extract(inst: &FilterInst) -> Result<LinearNode, NonLinear> {
    extract_at(inst).map_err(|(why, _)| why)
}

/// [`extract`], with where the refusal was decided: the statement at
/// which the offending value first went ⊤, or at which the walk stopped
/// (the default span for a structural precondition or a rate mismatch).
pub(crate) fn extract_at(inst: &FilterInst) -> Result<LinearNode, (NonLinear, Span)> {
    match &*inst.facts.linear {
        LinearFact::Linear(rows) => Ok(node_of(rows)),
        LinearFact::Refused(why, at) => Err((why.clone(), *at)),
    }
}

/// The node whose stored rows and offsets are the verdict's.
fn node_of(r: &LinearRows) -> LinearNode {
    let rows = Matrix::from_fn(r.offsets.len(), r.peek, |j, i| r.coeffs[j * r.peek + i]);
    LinearNode::from_rows(rows, Vector::from(r.offsets.to_vec()), r.pop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlin_graph::elaborate::elaborate_named;
    use streamlin_graph::ir::Stream;
    use streamlin_graph::Value;

    fn filter_of(src: &str, name: &str, args: &[Value]) -> std::rc::Rc<FilterInst> {
        let p = streamlin_lang::parse(src).unwrap();
        let Stream::Filter(f) = elaborate_named(&p, name, args).unwrap() else {
            panic!("{name} is not a filter");
        };
        f
    }

    fn extract_src(src: &str, name: &str, args: &[Value]) -> Result<LinearNode, NonLinear> {
        extract(&filter_of(src, name, args))
    }

    #[test]
    fn figure_3_1_example_filter() {
        let node = extract_src(
            "float->float filter ExampleFilter {
                work peek 3 pop 1 push 2 {
                    push(3*peek(2) + 5*peek(1));
                    push(2*peek(2) + peek(0) + 6);
                    pop();
                }
            }",
            "ExampleFilter",
            &[],
        )
        .unwrap();
        assert_eq!((node.peek(), node.pop(), node.push()), (3, 1, 2));
        assert_eq!(node.a().row(0), &[2.0, 3.0]);
        assert_eq!(node.a().row(1), &[0.0, 5.0]);
        assert_eq!(node.a().row(2), &[1.0, 0.0]);
        assert_eq!(node.b().as_slice(), &[6.0, 0.0]);
    }

    #[test]
    fn fir_filter_with_init_weights() {
        let node = extract_src(
            "float->float filter LowPass(int N) {
                float[N] h;
                init { for (int i=0; i<N; i++) h[i] = 1.0 / (i + 1); }
                work peek N pop 1 push 1 {
                    float sum = 0;
                    for (int i=0; i<N; i++) sum += h[i] * peek(i);
                    push(sum);
                    pop();
                }
            }",
            "LowPass",
            &[Value::Int(4)],
        )
        .unwrap();
        assert_eq!(node.peek(), 4);
        for i in 0..4 {
            assert!((node.coeff(i, 0) - 1.0 / (i as f64 + 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn compressor_is_linear() {
        let node = extract_src(
            "float->float filter Compressor(int M) {
                work peek M pop M push 1 {
                    push(pop());
                    for (int i=0; i<(M-1); i++) pop();
                }
            }",
            "Compressor",
            &[Value::Int(3)],
        )
        .unwrap();
        assert_eq!((node.peek(), node.pop(), node.push()), (3, 3, 1));
        assert_eq!(node.coeff(0, 0), 1.0);
        assert_eq!(node.coeff(1, 0), 0.0);
    }

    #[test]
    fn expander_is_linear() {
        let node = extract_src(
            "float->float filter Expander(int L) {
                work peek 1 pop 1 push L {
                    push(pop());
                    for (int i=0; i<(L-1); i++) push(0);
                }
            }",
            "Expander",
            &[Value::Int(3)],
        )
        .unwrap();
        assert_eq!((node.peek(), node.pop(), node.push()), (1, 1, 3));
        assert_eq!(node.coeff(0, 0), 1.0);
        assert_eq!(node.coeff(0, 1), 0.0);
        assert_eq!(node.coeff(0, 2), 0.0);
    }

    #[test]
    fn threshold_detector_is_nonlinear() {
        // Both branches push, but different values: the join is ⊤.
        let err = extract_src(
            "float->float filter Detect(float t) {
                work pop 1 push 1 {
                    float v = pop();
                    if (v > t) { push(1); } else { push(0); }
                }
            }",
            "Detect",
            &[Value::Float(0.5)],
        )
        .unwrap_err();
        assert!(
            matches!(err, NonLinear::PushedNonAffine { index: 0 }),
            "{err}"
        );
    }

    #[test]
    fn equal_pushes_across_branches_stay_linear() {
        let node = extract_src(
            "float->float filter F {
                work pop 1 push 1 {
                    float v = pop();
                    if (v > 0) { push(2 * v); } else { push(v + v); }
                }
            }",
            "F",
            &[],
        )
        .unwrap();
        assert_eq!(node.coeff(0, 0), 2.0);
    }

    #[test]
    fn branch_pop_mismatch_fails() {
        let err = extract_src(
            "float->float filter F {
                work peek 2 pop 2 push 1 {
                    push(peek(0));
                    if (peek(1) > 0) { pop(); pop(); } else { pop(); }
                }
            }",
            "F",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::BranchMismatch(_)), "{err}");
    }

    #[test]
    fn stateful_source_is_nonlinear() {
        let err = extract_src(
            "void->float filter Src {
                float x;
                init { x = 0; }
                work push 1 { push(x++); }
            }",
            "Src",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::PushedNonAffine { .. }), "{err}");
    }

    #[test]
    fn delay_filter_is_nonlinear() {
        let err = extract_src(
            "float->float filter Delay {
                float s;
                work pop 1 push 1 { push(s); s = pop(); }
            }",
            "Delay",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::PushedNonAffine { .. }), "{err}");
    }

    #[test]
    fn product_of_inputs_is_nonlinear() {
        let err = extract_src(
            "float->float filter Sq {
                work peek 2 pop 1 push 1 { push(peek(0) * peek(1)); pop(); }
            }",
            "Sq",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::PushedNonAffine { .. }), "{err}");
    }

    #[test]
    fn division_by_constant_is_linear() {
        let node = extract_src(
            "float->float filter Half {
                work pop 1 push 1 { push(pop() / 2.0); }
            }",
            "Half",
            &[],
        )
        .unwrap();
        assert_eq!(node.coeff(0, 0), 0.5);
    }

    #[test]
    fn division_by_input_is_nonlinear() {
        let err = extract_src(
            "float->float filter F {
                work peek 2 pop 2 push 1 { push(peek(0) / peek(1)); pop(); pop(); }
            }",
            "F",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::PushedNonAffine { .. }), "{err}");
    }

    #[test]
    fn printing_filter_is_nonlinear() {
        let err = extract_src(
            "float->void filter Printer { work pop 1 { println(pop()); } }",
            "Printer",
            &[],
        )
        .unwrap_err();
        assert_eq!(err, NonLinear::Prints);
    }

    #[test]
    fn pure_sink_is_linear_with_zero_push() {
        let node = extract_src(
            "float->void filter Sink { work pop 1 { pop(); } }",
            "Sink",
            &[],
        )
        .unwrap();
        assert_eq!((node.peek(), node.pop(), node.push()), (1, 1, 0));
    }

    // Provable rate/bounds violations are rejected by the abstract
    // interpreter at elaboration (with source spans) before extraction
    // ever sees the filter; the symbolic executor's own mismatch guards
    // (`PopCountMismatch` & co.) remain as defense-in-depth for
    // programmatically built instances.
    fn elab_err(src: &str, name: &str) -> String {
        let p = streamlin_lang::parse(src).unwrap();
        match elaborate_named(&p, name, &[]) {
            Ok(_) => panic!("expected elaboration to fail"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn pop_count_mismatch_is_rejected_at_elaboration() {
        let err = elab_err(
            "float->float filter F { work peek 2 pop 2 push 1 { push(pop()); } }",
            "F",
        );
        assert!(
            err.contains("declared pop rate is 2 but the body always pops 1"),
            "{err}"
        );
        assert!(err.contains("at 1:"), "expected a source span: {err}");
    }

    #[test]
    fn push_count_mismatch_is_rejected_at_elaboration() {
        let err = elab_err(
            "float->float filter F { work pop 1 push 2 { push(pop()); } }",
            "F",
        );
        assert!(
            err.contains("declared push rate is 2 but the body always pushes 1"),
            "{err}"
        );
    }

    #[test]
    fn peek_beyond_declared_rate_is_rejected_at_elaboration() {
        let err = elab_err(
            "float->float filter F { work peek 2 pop 1 push 1 { push(peek(2)); pop(); } }",
            "F",
        );
        assert!(
            err.contains("peek(2) after 0 pops reads past the declared peek window of 2"),
            "{err}"
        );
    }

    #[test]
    fn input_dependent_loop_bound_fails() {
        let err = extract_src(
            "float->float filter F {
                work pop 1 push 1 {
                    float v = pop();
                    float acc = 0;
                    int i = 0;
                    while (i < v) { acc += 1; i++; }
                    push(acc);
                }
            }",
            "F",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::Unresolved(_)), "{err}");
    }

    #[test]
    fn branch_consistent_array_writes_stay_linear() {
        let node = extract_src(
            "float->float filter F {
                work peek 1 pop 1 push 1 {
                    float[2] t;
                    t[0] = 3 * peek(0);
                    t[1] = t[0] + 1;
                    push(t[1]);
                    pop();
                }
            }",
            "F",
            &[],
        )
        .unwrap();
        assert_eq!(node.coeff(0, 0), 3.0);
        assert_eq!(node.offset(0), 1.0);
    }

    #[test]
    fn init_work_filters_are_rejected() {
        let err = extract_src(
            "float->float filter F {
                initWork pop 1 push 1 { push(pop()); }
                work pop 1 push 1 { push(2 * pop()); }
            }",
            "F",
            &[],
        )
        .unwrap_err();
        assert_eq!(err, NonLinear::HasInitWork);
    }

    #[test]
    fn constant_source_is_linear() {
        let node = extract_src(
            "void->float filter One { work push 1 { push(1.5); } }",
            "One",
            &[],
        )
        .unwrap();
        assert_eq!((node.peek(), node.pop(), node.push()), (0, 0, 1));
        assert_eq!(node.offset(0), 1.5);
    }

    #[test]
    fn extraction_matches_definition_on_fire() {
        // The extracted node must reproduce the work function's output.
        let node = extract_src(
            "float->float filter F {
                work peek 4 pop 2 push 2 {
                    push(0.5*peek(3) - 2*peek(0) + 1);
                    push(peek(1) + peek(2));
                    pop(); pop();
                }
            }",
            "F",
            &[],
        )
        .unwrap();
        let w = [1.0, 10.0, 100.0, 1000.0];
        let out = node.fire(&w);
        assert_eq!(out, vec![0.5 * 1000.0 - 2.0 + 1.0, 10.0 + 100.0]);
    }

    #[test]
    fn constant_folding_through_math_calls() {
        let node = extract_src(
            "float->float filter F {
                work pop 1 push 1 { push(cos(0.0) * pop() + sqrt(4.0)); }
            }",
            "F",
            &[],
        )
        .unwrap();
        assert_eq!(node.coeff(0, 0), 1.0);
        assert_eq!(node.offset(0), 2.0);
    }

    #[test]
    fn math_call_on_input_is_top() {
        let err = extract_src(
            "float->float filter F { work pop 1 push 1 { push(sin(pop())); } }",
            "F",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NonLinear::PushedNonAffine { .. }));
    }

    #[test]
    fn multiplication_by_zero_cancels_input_dependence() {
        // 0 * peek(0) has an empty coefficient vector: the result is a
        // constant and the filter remains linear (prune semantics).
        let node = extract_src(
            "float->float filter F {
                work pop 1 push 1 { push(0 * peek(0) + pop()); }
            }",
            "F",
            &[],
        )
        .unwrap();
        assert_eq!(node.coeff(0, 0), 1.0);
    }

    #[test]
    fn compound_assignment_through_a_program() {
        // `s += s` reads the target on both sides; `t -= t` must leave a
        // constant; an int constant accumulates into a float form.
        let node = extract_src(
            "float->float filter F {
                work peek 2 pop 1 push 3 {
                    float s = 3 * peek(0) + peek(1);
                    s += s;
                    push(s);
                    float t = peek(1);
                    t -= t;
                    t += 2;
                    push(t);
                    float[2] a;
                    a[1] = peek(0);
                    a[1] -= 4 * peek(1);
                    a[1]++;
                    push(a[1]);
                    pop();
                }
            }",
            "F",
            &[],
        )
        .unwrap();
        assert_eq!((node.coeff(0, 0), node.coeff(1, 0)), (6.0, 2.0));
        assert_eq!((node.coeff(0, 1), node.coeff(1, 1)), (0.0, 0.0));
        assert_eq!(node.offset(1), 2.0);
        assert_eq!((node.coeff(0, 2), node.coeff(1, 2)), (1.0, -4.0));
        assert_eq!(node.offset(2), 1.0);
    }

    #[test]
    fn index_expressions_of_a_compound_assignment_run_once() {
        // `a[i++] += …` advances `i` once, as in the interpreters.
        let node = extract_src(
            "float->float filter F {
                work pop 1 push 2 {
                    float[2] a;
                    int i = 0;
                    a[i++] += pop();
                    push(a[0]);
                    push(i);
                }
            }",
            "F",
            &[],
        )
        .unwrap();
        assert_eq!(node.coeff(0, 0), 1.0);
        assert_eq!(node.offset(1), 1.0);
    }

    const FIR_SRC: &str = "float->float filter Fir(int N) {
        float[N] h;
        init { for (int i = 0; i < N; i++) h[i] = 1.0 / (i + 1); }
        work peek N pop 1 push 1 {
            float sum = 0;
            for (int i = 0; i < N; i++) sum += h[i] * peek(i);
            push(sum);
            pop();
        }
    }";

    /// `FIR_SRC` reading the tape at `peek(index)` instead of `peek(i)`.
    fn fir_reading(index: &str) -> String {
        FIR_SRC.replace("peek(i)", &format!("peek({index})"))
    }

    #[test]
    fn fir_4096_extracts_to_exactly_its_weights() {
        let weights: Vec<f64> = (0..4096).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let node = extract_src(FIR_SRC, "Fir", &[Value::Int(4096)]).unwrap();
        assert_eq!(node, LinearNode::fir(&weights));
    }

    #[test]
    fn every_order_of_the_taps_extracts_the_same_weights() {
        let n = 1024;
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let reversed: Vec<f64> = (0..n).map(|p| weights[n - 1 - p]).collect();
        let mut permuted = vec![0.0; n];
        (0..n).for_each(|i| permuted[i * 37 % n] = weights[i]);
        for (index, want) in [("N - 1 - i", reversed), ("(i * 37) % N", permuted)] {
            let node = extract_src(&fir_reading(index), "Fir", &[Value::Int(n as i64)]).unwrap();
            assert_eq!(node, LinearNode::fir(&want), "peek({index})");
        }
    }

    /// A filter whose decided loop runs `trips` trips and touches nothing
    /// but a local.
    fn spinning(trips: u64) -> String {
        format!(
            "float->float filter Spin {{
                work pop 1 push 1 {{
                    float s = 0;
                    for (int i = 0; i < {trips}; i++) s = s + 1;
                    push(pop() + s);
                }}
            }}"
        )
    }

    /// The walk unrolls `MAX_UNROLL` trips of a decided loop and no more:
    /// the loop that goes one trip further is refused at its `for`.
    #[test]
    fn the_unroll_bound_is_the_walks_own() {
        use streamlin_graph::analyze::MAX_UNROLL;
        let node = extract_src(&spinning(MAX_UNROLL), "Spin", &[]).unwrap();
        assert_eq!((node.coeff(0, 0), node.offset(0)), (1.0, MAX_UNROLL as f64));
        let inst = filter_of(&spinning(MAX_UNROLL + 1), "Spin", &[]);
        let (why, at) = extract_at(&inst).unwrap_err();
        assert_eq!(
            why,
            NonLinear::Unresolved(format!(
                "loop runs past the unroll bound of {MAX_UNROLL} trips"
            ))
        );
        assert_eq!((at.line, at.col), (4, 21));
        // The rate facts stand: the widened loop touches no tape.
        assert!(inst.facts.work.cert.is_some(), "{:?}", inst.facts.work);
    }
}
