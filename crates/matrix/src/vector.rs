//! Row vector companion to [`Matrix`](crate::Matrix).

use streamlin_support::num::approx_eq;

/// A row vector of `f64`, used for the offsets of a linear node (the `b`
/// of `y = x·A + b`, Definition 1 of the paper).
///
/// # Examples
///
/// ```
/// use streamlin_matrix::Vector;
/// let b = Vector::zeros(2);
/// assert_eq!(b.len(), 2);
/// let x = Vector::from(vec![1.0, 2.0]);
/// assert_eq!(x.add(&b).as_slice(), &[1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// A vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element `i`, or `None` when out of bounds.
    pub fn get(&self, i: usize) -> Option<f64> {
        self.data.get(i).copied()
    }

    /// Borrow of the underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn add(&self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector sum length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|a| a * k).collect(),
        }
    }

    /// Dot product.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn dot(&self, rhs: &Vector) -> f64 {
        assert_eq!(self.len(), rhs.len(), "dot product length mismatch");
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Number of entries with `|x| > eps`.
    pub fn nnz(&self, eps: f64) -> usize {
        self.data.iter().filter(|x| x.abs() > eps).count()
    }

    /// True if every entry differs by at most `atol + rtol·max(|a|,|b|)`.
    pub fn approx_eq(&self, rhs: &Vector, atol: f64, rtol: f64) -> bool {
        self.len() == rhs.len()
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(&a, &b)| approx_eq(a, b, atol, rtol))
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl From<Vector> for Vec<f64> {
    fn from(v: Vector) -> Vec<f64> {
        v.data
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl std::fmt::Display for Vector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.4}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_scale_dot() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, -1.0]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 1.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.dot(&b), 1.0);
    }

    #[test]
    fn nnz_and_approx() {
        let a = Vector::from(vec![0.0, 1e-12, 5.0]);
        assert_eq!(a.nnz(1e-9), 1);
        assert!(a.approx_eq(&Vector::from(vec![0.0, 0.0, 5.0]), 1e-9, 0.0));
    }

    #[test]
    fn collect_from_iterator() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }
}
