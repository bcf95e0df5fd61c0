//! Splitjoin combination (paper §3.3.3, Transformations 3 and 4).

use streamlin_graph::ir::Splitter;
use streamlin_matrix::{Matrix, Vector};
use streamlin_support::num::{lcm, lcm_all};

use crate::expand::expand;
use crate::node::{Form, LinearError, LinearNode, MAX_MATRIX_ELEMS};
use crate::pipeline::combine_pipeline;
use crate::shape::Shape;

/// Collapses a splitjoin of linear children (or of their shapes) into a
/// single linear node.
///
/// Duplicate splitters use Transformation 3 directly; round-robin splitters
/// are first rewritten to duplicate splitters by composing each child with
/// a *decimator* that discards the items destined for its siblings
/// (Transformation 4).
///
/// # Errors
///
/// * [`LinearError::NotCombinable`] for non-schedulable combinations
///   (branches that disagree on the pop rate), zero weights, or children
///   that push nothing.
/// * [`LinearError::TooLarge`] when the combined matrix exceeds the size
///   guard.
///
/// # Examples
///
/// The example of Figure 3-6 (duplicate splitter, `roundrobin(2,1)` joiner):
///
/// ```
/// use streamlin_core::node::LinearNode;
/// use streamlin_core::splitjoin::combine_splitjoin;
/// use streamlin_graph::ir::Splitter;
///
/// // Λ1: peek 2, pop 2, push 4 with A = [1 2 3 4; 5 6 7 8]
/// let a1 = LinearNode::new(
///     streamlin_matrix::Matrix::from_rows(&[&[1., 2., 3., 4.], &[5., 6., 7., 8.]]),
///     streamlin_matrix::Vector::zeros(4),
///     2,
/// )
/// .unwrap();
/// // Λ2: peek 1, pop 1, push 1 with A = [9], b = [10]
/// let a2 = LinearNode::new(
///     streamlin_matrix::Matrix::from_rows(&[&[9.0]]),
///     streamlin_matrix::Vector::from(vec![10.0]),
///     1,
/// )
/// .unwrap();
/// let c = combine_splitjoin(&Splitter::Duplicate, &[a1, a2], &[2, 1]).unwrap();
/// assert_eq!((c.peek(), c.pop(), c.push()), (2, 2, 6));
/// assert_eq!(c.a().row(0), &[9., 1., 2., 0., 3., 4.]);
/// assert_eq!(c.a().row(1), &[0., 5., 6., 9., 7., 8.]);
/// assert_eq!(c.b().as_slice(), &[10., 0., 0., 10., 0., 0.]);
/// ```
pub fn combine_splitjoin<F: Form>(
    split: &Splitter,
    children: &[F],
    join_weights: &[usize],
) -> Result<F, LinearError> {
    match split {
        Splitter::Duplicate => combine_duplicate(children, join_weights),
        Splitter::RoundRobin(v) => {
            let rewritten = rr_to_duplicate(children, v)?;
            combine_duplicate(&rewritten, join_weights)
        }
    }
}

/// Transformation 3: collapses a duplicate splitjoin.
pub fn combine_duplicate<F: Form>(
    children: &[F],
    join_weights: &[usize],
) -> Result<F, LinearError> {
    let n = children.len();
    if n == 0 {
        return Err(LinearError::NotCombinable(
            "splitjoin has no children".into(),
        ));
    }
    if join_weights.len() != n {
        return Err(LinearError::NotCombinable(format!(
            "{} children but {} joiner weights",
            n,
            join_weights.len()
        )));
    }
    for (k, child) in children.iter().enumerate() {
        if join_weights[k] == 0 {
            return Err(LinearError::NotCombinable(format!(
                "joiner weight of child {k} is zero"
            )));
        }
        if child.push() == 0 {
            return Err(LinearError::NotCombinable(format!(
                "child {k} pushes nothing but the joiner expects items from it"
            )));
        }
    }

    // joinRep = lcm_k( lcm(u_k, w_k) / w_k ): joiner cycles per steady state.
    let join_rep = lcm_all(
        children
            .iter()
            .zip(join_weights)
            .map(|(c, &w)| lcm(c.push() as u64, w as u64) / w as u64),
    ) as usize;
    let reps: Vec<usize> = children
        .iter()
        .zip(join_weights)
        .map(|(c, &w)| w * join_rep / c.push())
        .collect();
    let max_peek = children
        .iter()
        .zip(&reps)
        .map(|(c, &r)| (r - 1) * c.pop() + c.peek())
        .max()
        .expect("non-empty children");

    // All branches must agree on the pop rate, or the splitjoin admits no
    // steady-state schedule (§3.3.3).
    let pops: Vec<usize> = children
        .iter()
        .zip(&reps)
        .map(|(c, &r)| c.pop() * r)
        .collect();
    let pop = pops[0];
    if pops.iter().any(|&p| p != pop) {
        return Err(LinearError::NotCombinable(format!(
            "branches pop at different rates per steady state: {pops:?}"
        )));
    }

    let w_tot: usize = join_weights.iter().sum();
    let push2 = join_rep * w_tot;
    if max_peek.saturating_mul(push2) > MAX_MATRIX_ELEMS {
        return Err(LinearError::TooLarge {
            rows: max_peek,
            cols: push2,
        });
    }

    let mut expanded = Vec::with_capacity(n);
    let mut order = vec![(0, 0); push2];
    let mut w_sum = 0usize;
    for (k, child) in children.iter().enumerate() {
        expanded.push(expand(child, max_peek, pops[k], child.push() * reps[k])?);
        let w_k = join_weights[k];
        let u_k_tot = child.push() * reps[k]; // == w_k * join_rep
        for q in 0..u_k_tot {
            // The q-th item pushed by the expanded child lands at output
            // position (q / w_k)·wTot + wSum_k + (q mod w_k).
            order[(q / w_k) * w_tot + w_sum + (q % w_k)] = (k, q);
        }
        w_sum += w_k;
    }
    Ok(F::gather(&expanded, &order, max_peek, pop))
}

/// The joined rows: output `r` is row `q` of `parts[k]` for
/// `(k, q) = order[r]`.
pub(crate) fn gather(
    parts: &[LinearNode],
    order: &[(usize, usize)],
    peek: usize,
    pop: usize,
) -> LinearNode {
    let mut rows = Matrix::zeros(order.len(), peek);
    let mut offsets = Vector::zeros(order.len());
    for (r, &(k, q)) in order.iter().enumerate() {
        rows.row_mut(r).copy_from_slice(parts[k].row(q));
        offsets[r] = parts[k].offset(q);
    }
    LinearNode::from_rows(rows, offsets, pop)
}

/// [`gather`] on shapes.
pub(crate) fn gather_shape(
    parts: &[Shape],
    order: &[(usize, usize)],
    peek: usize,
    pop: usize,
) -> Shape {
    let mut out = Shape::new(peek, pop);
    for &(k, q) in order {
        out.push_shifted(parts[k].row(q), 0, parts[k].offset(q));
    }
    out
}

/// Transformation 4: rewrites the children of a round-robin splitjoin so a
/// duplicate splitter can be used, by prefixing each child with a
/// *decimator* — the `vTot × v_k` selection matrix that keeps exactly the
/// items destined for child `k` out of each splitter cycle.
///
/// # Errors
///
/// Fails if any splitter weight is zero or a pipeline combination with the
/// decimator fails.
pub fn rr_to_duplicate<F: Form>(
    children: &[F],
    split_weights: &[usize],
) -> Result<Vec<F>, LinearError> {
    if split_weights.len() != children.len() {
        return Err(LinearError::NotCombinable(format!(
            "{} children but {} splitter weights",
            children.len(),
            split_weights.len()
        )));
    }
    let v_tot: usize = split_weights.iter().sum();
    let mut out = Vec::with_capacity(children.len());
    let mut v_sum = 0usize;
    for (k, child) in children.iter().enumerate() {
        let v_k = split_weights[k];
        if v_k == 0 {
            return Err(LinearError::NotCombinable(format!(
                "splitter weight of child {k} is zero"
            )));
        }
        let decimator = F::decimator(v_tot, v_sum, v_k);
        out.push(combine_pipeline(&decimator, child)?);
        v_sum += v_k;
    }
    Ok(out)
}

/// The `v_tot × v_k` selection matrix keeping items `first..first + v_k`
/// of every `v_tot`.
pub(crate) fn decimator(v_tot: usize, first: usize, v_k: usize) -> LinearNode {
    LinearNode::from_coeffs(
        v_tot,
        v_tot,
        v_k,
        |peek_idx, out_idx| {
            if peek_idx == first + out_idx {
                1.0
            } else {
                0.0
            }
        },
        &vec![0.0; v_k],
    )
}

/// [`decimator`] as a shape.
pub(crate) fn decimator_shape(v_tot: usize, first: usize, v_k: usize) -> Shape {
    let mut out = Shape::new(v_tot, v_tot);
    for j in 0..v_k {
        out.push_shifted(&[(first + j, first + j + 1)], 0, false);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{run_reference, RefStream};

    fn input(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 5 + 3) % 11) as f64 - 4.0).collect()
    }

    fn assert_equivalent(split: &Splitter, children: &[LinearNode], join: &[usize]) {
        let combined = combine_splitjoin(split, children, join).unwrap();
        let x = input(96);
        let want = run_reference(
            &RefStream::SplitJoin {
                split: split.clone(),
                children: children.iter().cloned().map(RefStream::Node).collect(),
                join: join.to_vec(),
            },
            &x,
        );
        let got = combined.fire_sequence(&x);
        let n = got.len().min(want.len());
        assert!(n > 0, "nothing to compare for {combined}");
        for i in 0..n {
            assert!(
                (got[i] - want[i]).abs() < 1e-9,
                "mismatch at {i}: {} vs {} ({combined})",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn figure_3_6_example() {
        let a1 = LinearNode::new(
            streamlin_matrix::Matrix::from_rows(&[&[1., 2., 3., 4.], &[5., 6., 7., 8.]]),
            streamlin_matrix::Vector::zeros(4),
            2,
        )
        .unwrap();
        let a2 = LinearNode::new(
            streamlin_matrix::Matrix::from_rows(&[&[9.0]]),
            streamlin_matrix::Vector::from(vec![10.0]),
            1,
        )
        .unwrap();
        let c =
            combine_splitjoin(&Splitter::Duplicate, &[a1.clone(), a2.clone()], &[2, 1]).unwrap();
        assert_eq!((c.peek(), c.pop(), c.push()), (2, 2, 6));
        assert_eq!(c.a().row(0), &[9., 1., 2., 0., 3., 4.]);
        assert_eq!(c.a().row(1), &[0., 5., 6., 9., 7., 8.]);
        assert_eq!(c.b().as_slice(), &[10., 0., 0., 10., 0., 0.]);
        assert_equivalent(&Splitter::Duplicate, &[a1, a2], &[2, 1]);
    }

    #[test]
    fn duplicate_of_two_firs() {
        // A two-band filter bank: both children see the same input.
        let lo = LinearNode::fir(&[0.5, 0.5, 0.5]);
        let hi = LinearNode::fir(&[0.5, -0.5, 0.5]);
        assert_equivalent(&Splitter::Duplicate, &[lo, hi], &[1, 1]);
    }

    #[test]
    fn duplicate_with_unequal_peeks_pads() {
        let short = LinearNode::fir(&[2.0]);
        let long = LinearNode::fir(&[1.0, 1.0, 1.0, 1.0]);
        let c = combine_splitjoin(
            &Splitter::Duplicate,
            &[short.clone(), long.clone()],
            &[1, 1],
        )
        .unwrap();
        assert_eq!(c.peek(), 4);
        assert_equivalent(&Splitter::Duplicate, &[short, long], &[1, 1]);
    }

    #[test]
    fn mismatched_branch_pops_are_rejected() {
        // child 0: pop 2 per output; child 1: pop 1 per output, equal
        // weights -> branches disagree.
        let c0 = LinearNode::from_coeffs(2, 2, 1, |i, _| (i + 1) as f64, &[0.0]);
        let c1 = LinearNode::fir(&[1.0]);
        let err = combine_splitjoin(&Splitter::Duplicate, &[c0, c1], &[1, 1]).unwrap_err();
        assert!(matches!(err, LinearError::NotCombinable(_)), "{err}");
    }

    #[test]
    fn roundrobin_decimators_select_slices() {
        let dec =
            rr_to_duplicate(&[LinearNode::identity(2), LinearNode::identity(1)], &[2, 1]).unwrap();
        // child 0 keeps items 0,1 of each 3-cycle; child 1 keeps item 2.
        assert_eq!(dec[0].peek(), 3);
        assert_eq!(dec[0].pop(), 3);
        assert_eq!(dec[0].push(), 2);
        assert_eq!(dec[0].fire(&[10.0, 20.0, 30.0]), vec![10.0, 20.0]);
        assert_eq!(dec[1].fire(&[10.0, 20.0, 30.0]), vec![30.0]);
    }

    #[test]
    fn roundrobin_splitjoin_equivalence() {
        let even = LinearNode::fir(&[1.0, 2.0]);
        let odd = LinearNode::fir(&[3.0]);
        assert_equivalent(&Splitter::RoundRobin(vec![1, 1]), &[even, odd], &[1, 1]);
    }

    #[test]
    fn weighted_roundrobin_with_rate_changes() {
        // Child 0 compresses 2:1, child 1 passes through.
        let compress =
            LinearNode::from_coeffs(2, 2, 1, |i, _| if i == 0 { 1.0 } else { 0.0 }, &[0.0]);
        let pass = LinearNode::identity(1);
        assert_equivalent(
            &Splitter::RoundRobin(vec![4, 1]),
            &[compress, pass],
            &[2, 1],
        );
    }

    #[test]
    fn zero_weight_is_rejected() {
        let c = LinearNode::fir(&[1.0]);
        assert!(combine_splitjoin(&Splitter::Duplicate, std::slice::from_ref(&c), &[0]).is_err());
        assert!(rr_to_duplicate(&[c], &[0]).is_err());
    }

    #[test]
    fn three_way_bank_with_mixed_push_rates() {
        // Balanced: each child pops 1 per firing and pushes exactly its
        // joiner weight, so every branch fires once per joiner cycle.
        let a = LinearNode::from_coeffs(2, 1, 2, |i, j| (i + j) as f64 + 1.0, &[0.0, 1.0]);
        let b =
            LinearNode::from_coeffs(2, 1, 3, |i, j| (2 * i + j) as f64 - 1.5, &[0.5, 0.0, -0.5]);
        let c = LinearNode::from_coeffs(3, 1, 1, |i, _| (i * i) as f64, &[2.0]);
        assert_equivalent(&Splitter::Duplicate, &[a, b, c], &[2, 3, 1]);
    }

    #[test]
    fn unequal_firing_counts_per_joiner_cycle() {
        // Child 0 fires twice per steady state (pop 1 push 1), child 1
        // once (pop 2 push 2); with weights (1,1) the joiner runs two
        // cycles per steady state and both branches pop 2.
        let a = LinearNode::fir(&[1.0, 2.0]);
        let b = LinearNode::from_coeffs(2, 2, 2, |i, j| (i + 2 * j) as f64, &[0.0, 1.0]);
        assert_equivalent(&Splitter::Duplicate, &[a, b], &[1, 1]);
    }
}
