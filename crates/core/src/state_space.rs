//! Linear nodes with state (the paper's §7.1 extension).
//!
//! The thesis' future-work section sketches *stateful* linear nodes
//!
//! ```text
//! y⃗ᵢ   = x⃗·A_x + s⃗ᵢ·A_s + b⃗_x        (outputs)
//! s⃗ᵢ₊₁ = x⃗·C_x + s⃗ᵢ·C_s + b⃗_s        (next state)
//! ```
//!
//! which capture IIR filters, accumulators, delays and control systems —
//! everything the stateless `Λ = {A, b, e, o, u}` cannot. This module
//! implements the representation, its executor and a *stateful extraction*
//! ([`extract_stateful`]) that assigns a state-vector component to every
//! scalar float field the work function mutates, instead of collapsing it
//! to ⊤ as standard extraction does. The combination rules for stateful
//! nodes (feedback-loop collapsing) remain out of scope here, exactly as
//! in the paper.
//!
//! Conventions: unlike the stateless node we keep matrices in *natural*
//! orientation — rows of `a_x` are indexed by `peek` position, columns by
//! output order; state vectors are plain component order — since no paper
//! formula needs to be transcribed against them.

use streamlin_graph::analyze::linear_pieces;
use streamlin_graph::ir::FilterInst;
use streamlin_graph::linear::Piece;
use streamlin_graph::lower::Slot;
use streamlin_graph::value::{Cell, Value};
use streamlin_matrix::{Matrix, Vector};
use streamlin_support::OpCounter;

use crate::extract::NonLinear;
use crate::node::LinearNode;

/// A linear node with state: `y = x·A_x + s·A_s + b_x`,
/// `s' = x·C_x + s·C_s + b_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpaceNode {
    /// `peek × push`: input → output weights (natural orientation:
    /// `a_x[(pos, j)]` is the weight of `peek(pos)` in output `j`).
    a_x: Matrix,
    /// `dim × push`: state → output weights.
    a_s: Matrix,
    /// `peek × dim`: input → next-state weights.
    c_x: Matrix,
    /// `dim × dim`: state → next-state weights.
    c_s: Matrix,
    /// Output offsets (`push` entries, output order).
    b_x: Vector,
    /// State offsets (`dim` entries).
    b_s: Vector,
    /// Initial state (the field values after `init` ran).
    init_state: Vector,
    /// Names of the fields backing each state component (diagnostics).
    state_names: Vec<String>,
    pop: usize,
}

impl StateSpaceNode {
    /// Creates a node; shapes are validated against each other.
    ///
    /// # Errors
    ///
    /// Returns a message when any dimension disagrees.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        a_x: Matrix,
        a_s: Matrix,
        c_x: Matrix,
        c_s: Matrix,
        b_x: Vector,
        b_s: Vector,
        init_state: Vector,
        state_names: Vec<String>,
        pop: usize,
    ) -> Result<Self, String> {
        let dim = a_s.rows();
        let push = a_x.cols();
        let peek = a_x.rows();
        if a_s.cols() != push {
            return Err(format!("a_s has {} cols, expected {push}", a_s.cols()));
        }
        if c_x.rows() != peek || c_x.cols() != dim {
            return Err(format!(
                "c_x is {}x{}, expected {peek}x{dim}",
                c_x.rows(),
                c_x.cols()
            ));
        }
        if c_s.rows() != dim || c_s.cols() != dim {
            return Err(format!(
                "c_s is {}x{}, expected {dim}x{dim}",
                c_s.rows(),
                c_s.cols()
            ));
        }
        if b_x.len() != push || b_s.len() != dim || init_state.len() != dim {
            return Err("offset/initial-state length mismatch".into());
        }
        if state_names.len() != dim {
            return Err("state name count mismatch".into());
        }
        Ok(StateSpaceNode {
            a_x,
            a_s,
            c_x,
            c_s,
            b_x,
            b_s,
            init_state,
            state_names,
            pop,
        })
    }

    /// Peek rate.
    pub fn peek(&self) -> usize {
        self.a_x.rows()
    }

    /// Pop rate.
    pub fn pop(&self) -> usize {
        self.pop
    }

    /// Push rate.
    pub fn push(&self) -> usize {
        self.a_x.cols()
    }

    /// Dimension of the state vector.
    pub fn state_dim(&self) -> usize {
        self.a_s.rows()
    }

    /// Names of the fields backing the state components.
    pub fn state_names(&self) -> &[String] {
        &self.state_names
    }

    /// The initial state (field values after `init`).
    pub fn init_state(&self) -> &Vector {
        &self.init_state
    }

    /// Weight of `peek(pos)` in output `j`.
    pub fn input_coeff(&self, pos: usize, j: usize) -> f64 {
        self.a_x[(pos, j)]
    }

    /// Weight of state component `k` in output `j`.
    pub fn state_coeff(&self, k: usize, j: usize) -> f64 {
        self.a_s[(k, j)]
    }

    /// Weight of state component `k` in next-state component `k2`.
    pub fn state_update_coeff(&self, k: usize, k2: usize) -> f64 {
        self.c_s[(k, k2)]
    }

    /// True when the node uses no state at all (every state matrix is
    /// zero), in which case [`to_linear`](Self::to_linear) succeeds.
    pub fn is_stateless(&self) -> bool {
        self.a_s.nnz(0.0) == 0 && self.c_x.nnz(0.0) == 0 && self.c_s.nnz(0.0) == 0
    }

    /// Converts to a stateless [`LinearNode`] when possible.
    pub fn to_linear(&self) -> Option<LinearNode> {
        if !self.is_stateless() {
            return None;
        }
        let offsets: Vec<f64> = (0..self.push()).map(|j| self.b_x[j]).collect();
        Some(LinearNode::from_coeffs(
            self.peek(),
            self.pop,
            self.push(),
            |pos, j| self.a_x[(pos, j)],
            &offsets,
        ))
    }

    /// Fires once: reads `window` (`window[i] = peek(i)`), updates `state`
    /// in place, returns the outputs in push order.
    ///
    /// # Panics
    ///
    /// Panics if the window or state length is wrong.
    pub fn fire(&self, state: &mut Vector, window: &[f64], ops: &mut OpCounter) -> Vec<f64> {
        assert_eq!(window.len(), self.peek(), "window must equal the peek rate");
        assert_eq!(state.len(), self.state_dim(), "state dimension mismatch");
        let mut out = Vec::with_capacity(self.push());
        for j in 0..self.push() {
            let mut acc = self.b_x[j];
            for (pos, &x) in window.iter().enumerate() {
                let c = self.a_x[(pos, j)];
                if c != 0.0 {
                    acc = ops.fma(acc, c, x);
                }
            }
            for k in 0..self.state_dim() {
                let c = self.a_s[(k, j)];
                if c != 0.0 {
                    acc = ops.fma(acc, c, state[k]);
                }
            }
            out.push(acc);
        }
        let mut next = Vector::zeros(self.state_dim());
        for k2 in 0..self.state_dim() {
            let mut acc = self.b_s[k2];
            for (pos, &x) in window.iter().enumerate() {
                let c = self.c_x[(pos, k2)];
                if c != 0.0 {
                    acc = ops.fma(acc, c, x);
                }
            }
            for k in 0..self.state_dim() {
                let c = self.c_s[(k, k2)];
                if c != 0.0 {
                    acc = ops.fma(acc, c, state[k]);
                }
            }
            next[k2] = acc;
        }
        *state = next;
        out
    }

    /// Runs over an input tape with channel semantics, starting from the
    /// initial state.
    pub fn run_over(&self, input: &[f64], ops: &mut OpCounter) -> Vec<f64> {
        assert!(
            self.pop > 0 || self.peek() == 0,
            "a consuming node must pop"
        );
        let mut state = self.init_state.clone();
        let mut out = Vec::new();
        let mut posn = 0;
        if self.peek() == 0 {
            return out; // a stateful source would run forever; caller drives it
        }
        while posn + self.peek() <= input.len() {
            out.extend(self.fire(&mut state, &input[posn..posn + self.peek()], ops));
            posn += self.pop;
        }
        out
    }
}

impl std::fmt::Display for StateSpaceNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Λs{{peek={}, pop={}, push={}, state={}}}",
            self.peek(),
            self.pop(),
            self.push(),
            self.state_dim()
        )
    }
}

/// Stateful linear extraction: like [`crate::extract::extract`], but every
/// *scalar float field* mutated by `work` becomes a component of the state
/// vector rather than ⊤. Filters whose outputs and final field values are
/// affine in (inputs, state) yield a [`StateSpaceNode`]. The walk is the
/// elaboration walk's domain under this binding
/// (`streamlin_graph::analyze::linear_pieces`), on the same fuel and
/// unroll bound; nothing at compile time calls it.
///
/// # Errors
///
/// All the standard [`NonLinear`] reasons, plus `Unsupported` for mutated
/// array or non-float fields (vector-valued state is future work upon
/// future work).
///
/// # Examples
///
/// The unit delay — non-linear to standard extraction, linear-with-state
/// here:
///
/// ```
/// use streamlin_core::state_space::extract_stateful;
/// use streamlin_graph::elaborate::elaborate_named;
///
/// let p = streamlin_lang::parse(
///     "float->float filter Delay {
///          float s;
///          work pop 1 push 1 { push(s); s = pop(); }
///      }",
/// )
/// .unwrap();
/// let streamlin_graph::Stream::Filter(f) = elaborate_named(&p, "Delay", &[]).unwrap() else {
///     unreachable!()
/// };
/// let node = extract_stateful(&f).unwrap();
/// assert_eq!(node.state_dim(), 1);
/// assert_eq!(node.state_coeff(0, 0), 1.0); // y = s
/// ```
pub fn extract_stateful(inst: &FilterInst) -> Result<StateSpaceNode, NonLinear> {
    if inst.init_work.is_some() {
        return Err(NonLinear::HasInitWork);
    }
    if inst.lowered.prints {
        return Err(NonLinear::Prints);
    }
    // One state component per global `work` can write, in slot (= name)
    // order; reject mutated state we cannot represent.
    let state_slots = written_globals(inst);
    let mut state_names: Vec<String> = Vec::with_capacity(state_slots.len());
    let mut init_state: Vec<f64> = Vec::with_capacity(state_slots.len());
    for &g in &state_slots {
        let name = &inst.lowered.globals[g as usize];
        match inst.state.get(name) {
            Some(Cell::Scalar(_, Value::Float(v))) => {
                state_names.push(name.clone());
                init_state.push(*v);
            }
            Some(Cell::Scalar(_, Value::Int(v))) => {
                // Integer state is usually loop bookkeeping (circular
                // indices); representing it linearly is unsound under
                // wraparound, so refuse.
                return Err(NonLinear::Unsupported(format!(
                    "mutated integer field `{name}` (= {v}) cannot be linear state"
                )));
            }
            Some(Cell::Scalar(_, Value::Bool(_))) | Some(Cell::Array(_)) | None => {
                return Err(NonLinear::Unsupported(format!(
                    "mutated field `{name}` is not a scalar float; cannot be linear state"
                )));
            }
        }
    }

    let pieces = linear_pieces(inst, &state_slots).map_err(|(why, _)| why)?;
    let dim = state_names.len();
    let (e, o) = (inst.work.peek, inst.work.pop);

    // One column per form, each form scattered once: its tape terms
    // (keys below the peek rate) into `on_x`, its state terms (keyed
    // after them) into `on_s`, its constant into `b`.
    let scatter = |forms: &[Piece]| {
        let mut on_x = Matrix::zeros(e, forms.len());
        let mut on_s = Matrix::zeros(dim, forms.len());
        let mut b = Vector::zeros(forms.len());
        for (j, form) in forms.iter().enumerate() {
            b[j] = form.konst;
            for (key, c) in form.terms() {
                match key.checked_sub(e) {
                    None => on_x[(key, j)] = c,
                    Some(k) => on_s[(k, j)] = c,
                }
            }
        }
        (on_x, on_s, b)
    };
    let (a_x, a_s, b_x) = scatter(&pieces.outputs);
    let (c_x, c_s, b_s) = scatter(&pieces.next_state);
    StateSpaceNode::new(
        a_x,
        a_s,
        c_x,
        c_s,
        b_x,
        b_s,
        Vector::from(init_state),
        state_names,
        o,
    )
    .map_err(NonLinear::Unsupported)
}

/// The global slots `work` can write, ascending: the filter's mutable
/// state, as far as one firing to the next is concerned.
fn written_globals(inst: &FilterInst) -> Vec<u32> {
    // Sorted, globals first.
    (inst.lowered.work.fx.writes.iter())
        .map_while(|s| match s {
            Slot::Global(g) => Some(*g),
            Slot::Frame(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlin_graph::elaborate::elaborate_named;
    use streamlin_graph::ir::Stream;

    fn filter_of(src: &str, name: &str) -> std::rc::Rc<FilterInst> {
        let p = streamlin_lang::parse(src).unwrap();
        let Stream::Filter(f) = elaborate_named(&p, name, &[]).unwrap() else {
            panic!("{name} is not a filter");
        };
        f
    }

    #[test]
    fn unit_delay_extracts() {
        let f = filter_of(
            "float->float filter Delay {
                float s;
                work pop 1 push 1 { push(s); s = pop(); }
            }",
            "Delay",
        );
        let node = extract_stateful(&f).unwrap();
        assert_eq!(node.state_dim(), 1);
        assert_eq!(node.input_coeff(0, 0), 0.0); // output ignores the input
        assert_eq!(node.state_coeff(0, 0), 1.0); // y = s
        assert_eq!(node.state_update_coeff(0, 0), 0.0); // s' = x
                                                        // semantics: one-sample delay
        let mut ops = OpCounter::new();
        let out = node.run_over(&[1.0, 2.0, 3.0, 4.0], &mut ops);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn accumulator_extracts() {
        let f = filter_of(
            "float->float filter Acc {
                float total;
                work pop 1 push 1 { total = total + pop(); push(total); }
            }",
            "Acc",
        );
        let node = extract_stateful(&f).unwrap();
        assert_eq!(node.state_dim(), 1);
        let mut ops = OpCounter::new();
        let out = node.run_over(&[1.0, 2.0, 3.0], &mut ops);
        assert_eq!(out, vec![1.0, 3.0, 6.0]);
    }

    #[test]
    fn one_pole_iir_extracts() {
        // y[n] = x[n] + 0.5 y[n-1]
        let f = filter_of(
            "float->float filter Iir {
                float prev;
                work pop 1 push 1 {
                    float y = pop() + 0.5 * prev;
                    push(y);
                    prev = y;
                }
            }",
            "Iir",
        );
        let node = extract_stateful(&f).unwrap();
        assert_eq!(node.state_dim(), 1);
        assert_eq!(node.state_coeff(0, 0), 0.5);
        assert_eq!(node.state_update_coeff(0, 0), 0.5);
        let mut ops = OpCounter::new();
        let out = node.run_over(&[1.0, 0.0, 0.0, 0.0], &mut ops);
        // impulse response of the one-pole: 1, 0.5, 0.25, 0.125
        assert_eq!(out, vec![1.0, 0.5, 0.25, 0.125]);
    }

    #[test]
    fn two_state_biquad_skeleton() {
        // y = x + a*s1 + b*s2; s2' = s1; s1' = y  (direct form II-ish)
        let f = filter_of(
            "float->float filter Bi {
                float s1;
                float s2;
                work pop 1 push 1 {
                    float y = pop() + 0.5 * s1 - 0.25 * s2;
                    push(y);
                    s2 = s1;
                    s1 = y;
                }
            }",
            "Bi",
        );
        let node = extract_stateful(&f).unwrap();
        assert_eq!(node.state_dim(), 2);
        // reference recurrence
        let input = [1.0, -2.0, 3.0, 0.5, 0.0, 1.0];
        let mut ops = OpCounter::new();
        let got = node.run_over(&input, &mut ops);
        let (mut s1, mut s2) = (0.0f64, 0.0f64);
        for (i, &x) in input.iter().enumerate() {
            let y = x + 0.5 * s1 - 0.25 * s2;
            assert!((got[i] - y).abs() < 1e-12, "at {i}: {} vs {y}", got[i]);
            s2 = s1;
            s1 = y;
        }
    }

    #[test]
    fn stateless_filters_convert_to_linear() {
        let f = filter_of(
            "float->float filter G { work pop 1 push 1 { push(3 * pop() + 1); } }",
            "G",
        );
        let node = extract_stateful(&f).unwrap();
        assert!(node.is_stateless());
        let lin = node.to_linear().unwrap();
        assert_eq!(lin.coeff(0, 0), 3.0);
        assert_eq!(lin.offset(0), 1.0);
    }

    #[test]
    fn initial_state_comes_from_init() {
        let f = filter_of(
            "float->float filter Warm {
                float s;
                init { s = 7.0; }
                work pop 1 push 1 { push(s); s = pop(); }
            }",
            "Warm",
        );
        let node = extract_stateful(&f).unwrap();
        assert_eq!(node.init_state().as_slice(), &[7.0]);
        let mut ops = OpCounter::new();
        assert_eq!(node.run_over(&[1.0, 2.0], &mut ops), vec![7.0, 1.0]);
    }

    #[test]
    fn nonlinear_state_update_still_fails() {
        let f = filter_of(
            "float->float filter Sq {
                float s;
                work pop 1 push 1 { push(s); s = s * s + pop(); }
            }",
            "Sq",
        );
        let err = extract_stateful(&f).unwrap_err();
        assert!(
            matches!(
                err,
                NonLinear::Unsupported(_) | NonLinear::PushedNonAffine { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn integer_state_is_rejected() {
        let f = filter_of(
            "float->float filter Idx {
                int i;
                work pop 1 push 1 { push(pop()); i = i + 1; }
            }",
            "Idx",
        );
        let err = extract_stateful(&f).unwrap_err();
        assert!(matches!(err, NonLinear::Unsupported(_)), "{err}");
    }

    #[test]
    fn array_state_is_rejected() {
        let f = filter_of(
            "float->float filter Buf {
                float[4] b;
                work pop 1 push 1 { b[0] = pop(); push(b[0]); }
            }",
            "Buf",
        );
        let err = extract_stateful(&f).unwrap_err();
        assert!(matches!(err, NonLinear::Unsupported(_)), "{err}");
    }

    #[test]
    fn stateful_source_counter() {
        // push(x++): standard extraction rejects it; stateful extraction
        // models it exactly.
        let f = filter_of(
            "void->float filter Count {
                float x;
                work push 1 { push(x++); }
            }",
            "Count",
        );
        let node = extract_stateful(&f).unwrap();
        assert_eq!((node.peek(), node.pop(), node.push()), (0, 0, 1));
        assert_eq!(node.state_dim(), 1);
        let mut ops = OpCounter::new();
        let mut state = node.init_state().clone();
        let a = node.fire(&mut state, &[], &mut ops);
        let b = node.fire(&mut state, &[], &mut ops);
        let c = node.fire(&mut state, &[], &mut ops);
        assert_eq!((a[0], b[0], c[0]), (0.0, 1.0, 2.0));
    }

    /// Stateful extraction walks on the elaboration walk's budget: a
    /// decided loop of `MAX_UNROLL` trips unrolls, one trip more is refused.
    #[test]
    fn the_stateful_walk_has_the_same_unroll_bound() {
        use streamlin_graph::analyze::MAX_UNROLL;
        let leaky = |trips: u64| {
            filter_of(
                &format!(
                    "float->float filter Leak {{
                        float acc;
                        work pop 1 push 1 {{
                            for (int i = 0; i < {trips}; i++) acc = acc + 0.5;
                            push(pop() + acc);
                        }}
                    }}"
                ),
                "Leak",
            )
        };
        let node = extract_stateful(&leaky(MAX_UNROLL)).unwrap();
        assert_eq!((node.state_dim(), node.state_coeff(0, 0)), (1, 1.0));
        let err = extract_stateful(&leaky(MAX_UNROLL + 1)).unwrap_err();
        assert_eq!(
            err,
            NonLinear::Unresolved(format!(
                "loop runs past the unroll bound of {MAX_UNROLL} trips"
            ))
        );
    }
}
