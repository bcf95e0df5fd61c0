//! The shape of a linear node: its rates and where its coefficients can be
//! nonzero, without their values.
//!
//! Selection prices a region from its rates and its count of nonzero
//! coefficients (`CostModel::direct_total`, `CostModel::freq_total`), so it
//! prices every candidate range from a [`Shape`] and forms coefficients only
//! for the regions it keeps. A shape combines by the same rules as a
//! [`LinearNode`] — both are a [`Form`] of the rules in [`crate::expand`],
//! [`crate::pipeline`] and [`crate::splitjoin`] — at a cost of rows ×
//! intervals instead of rows × window.
//!
//! A shape's support is *structural*: a combined coefficient is in it when
//! one term of its sum has two nonzero factors. So its nonzero counts are an
//! upper bound on the exact node's, equal except where a floating-point sum
//! cancels to exactly `0.0`.

use crate::node::{Form, LinearNode};

/// A linear node's rates, each output's nonzero support over the window,
/// and which offsets can be nonzero.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    peek: usize,
    pop: usize,
    /// Output `j`'s support is `spans[rows[j]..rows[j + 1]]`.
    rows: Vec<usize>,
    /// Sorted, disjoint, non-adjacent half-open intervals of window
    /// positions.
    spans: Vec<(usize, usize)>,
    /// Whether output `j`'s offset can be nonzero.
    offsets: Vec<bool>,
}

impl Shape {
    /// The shape of an exact node: each output's runs of nonzero
    /// coefficients.
    ///
    /// # Examples
    ///
    /// ```
    /// use streamlin_core::node::{Form, LinearNode};
    /// use streamlin_core::pipeline::combine_pipeline;
    /// use streamlin_core::shape::Shape;
    ///
    /// let (f1, f2) = (LinearNode::fir(&[1.0, 1.0]), LinearNode::fir(&[1.0, -1.0]));
    /// let exact = combine_pipeline(&f1, &f2).unwrap(); // [1, 0, -1]
    /// let shape = combine_pipeline(&Shape::of(&f1), &Shape::of(&f2)).unwrap();
    /// assert_eq!((shape.peek(), shape.pop(), shape.push()), (3, 1, 1));
    /// // The middle coefficient cancels to 0.0: structurally it is there.
    /// assert_eq!((exact.nnz_a(), shape.nnz_a()), (2, 3));
    /// ```
    pub fn of(node: &LinearNode) -> Shape {
        let mut shape = Shape::new(node.peek(), node.pop());
        for j in 0..node.push() {
            let mut run = None;
            for (i, &c) in node.row(j).iter().enumerate() {
                match (c != 0.0, run) {
                    (true, None) => run = Some(i),
                    (false, Some(start)) => {
                        shape.spans.push((start, i));
                        run = None;
                    }
                    _ => {}
                }
            }
            if let Some(start) = run {
                shape.spans.push((start, node.peek()));
            }
            shape.rows.push(shape.spans.len());
            shape.offsets.push(node.offset(j) != 0.0);
        }
        shape
    }

    /// A shape with no outputs yet.
    pub(crate) fn new(peek: usize, pop: usize) -> Shape {
        Shape {
            peek,
            pop,
            rows: vec![0],
            spans: Vec::new(),
            offsets: Vec::new(),
        }
    }

    /// Output `j`'s support.
    pub(crate) fn row(&self, j: usize) -> &[(usize, usize)] {
        &self.spans[self.rows[j]..self.rows[j + 1]]
    }

    /// Whether output `j`'s offset can be nonzero.
    pub(crate) fn offset(&self, j: usize) -> bool {
        self.offsets[j]
    }

    /// Appends an output whose support is `spans` shifted by `by`.
    pub(crate) fn push_shifted(&mut self, spans: &[(usize, usize)], by: usize, offset: bool) {
        self.spans
            .extend(spans.iter().map(|&(a, b)| (a + by, b + by)));
        self.rows.push(self.spans.len());
        self.offsets.push(offset);
    }

    /// Appends an output whose support is the union of `spans` (in any
    /// order, overlapping or not), and empties `spans`.
    pub(crate) fn push_union(&mut self, spans: &mut Vec<(usize, usize)>, offset: bool) {
        spans.sort_unstable();
        let start = self.spans.len();
        for &(a, b) in spans.iter() {
            match self.spans[start..].last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => self.spans.push((a, b)),
            }
        }
        spans.clear();
        self.rows.push(self.spans.len());
        self.offsets.push(offset);
    }
}

impl Form for Shape {
    fn peek(&self) -> usize {
        self.peek
    }
    fn pop(&self) -> usize {
        self.pop
    }
    fn push(&self) -> usize {
        self.offsets.len()
    }
    fn nnz_a(&self) -> usize {
        self.spans.iter().map(|&(a, b)| b - a).sum()
    }
    fn nnz_b(&self) -> usize {
        self.offsets.iter().filter(|&&nz| nz).count()
    }
    fn shifted_copies(&self, peek2: usize, pop2: usize, push2: usize) -> Self {
        crate::expand::shifted_shape(self, peek2, pop2, push2)
    }
    fn compose(up: &Self, peek: usize, down: &Self, pop: usize) -> Self {
        crate::pipeline::compose_shape(up, peek, down, pop)
    }
    fn gather(parts: &[Self], order: &[(usize, usize)], peek: usize, pop: usize) -> Self {
        crate::splitjoin::gather_shape(parts, order, peek, pop)
    }
    fn decimator(v_tot: usize, first: usize, v_k: usize) -> Self {
        crate::splitjoin::decimator_shape(v_tot, first, v_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_of_nonzeros_become_intervals() {
        let node = LinearNode::from_coeffs(
            6,
            1,
            2,
            |i, j| match (i, j) {
                (0 | 1 | 4, 0) => 1.0,
                (5, 1) => -2.0,
                _ => 0.0,
            },
            &[0.0, 3.0],
        );
        let shape = Shape::of(&node);
        assert_eq!(shape.row(0), &[(0, 2), (4, 5)]);
        assert_eq!(shape.row(1), &[(5, 6)]);
        assert_eq!((shape.nnz_a(), shape.nnz_b()), (4, 1));
        assert_eq!((shape.nnz_a(), shape.nnz_b()), (node.nnz_a(), node.nnz_b()));
    }

    #[test]
    fn a_union_merges_overlapping_and_adjacent_intervals() {
        let mut shape = Shape::new(10, 1);
        shape.push_union(&mut vec![(6, 8), (0, 2), (1, 3), (3, 4)], false);
        shape.push_union(&mut vec![(5, 6)], true);
        assert_eq!(shape.row(0), &[(0, 4), (6, 8)]);
        assert_eq!(shape.row(1), &[(5, 6)]);
        assert_eq!((shape.nnz_a(), shape.nnz_b()), (7, 1));
    }
}
