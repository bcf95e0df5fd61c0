//! The coefficient vector of a linear form, stored by what adding one term
//! costs.
//!
//! The walk's linear reading (`crate::linear`) builds its forms a term at a time: `sum += h[i] * peek(i)`
//! adds one term to an accumulator per loop trip, at rising positions
//! (FIR), falling ones (Radar's `BeamFir` reads `peek(2*(t-k))` with `k`
//! rising) or in any other order. A key is a tape position `p`, or state
//! component `k` as `peek + k`, so keys order as the paper's vector does.
//! What a form holds:
//!
//! * no term (a constant): no storage; one term (`peek(p)`,
//!   `h[k] * peek(p)`): inline, no allocation;
//! * more: `(key, coefficient)` pairs sorted in a deque, so a term past
//!   either end is O(1) amortised and one in between moves at most
//!   [`MAX_MOVES`] entries;
//! * once an insertion would move more, one coefficient per key over the
//!   keys the form spans, where every key is O(1). A span is at most the
//!   declared peek plus the state dimension.
//!
//! So every order of insertion costs O(1) amortised per term, plus at
//! most one span per form for the switch. A zero coefficient is no term:
//! a cancelled entry keeps its slot (cancelling moves nothing), every
//! reader skips it, and a form whose last term cancels holds no storage
//! again.
//!
//! Bits: a key's coefficient is `0.0`, then `± c` for each term added at
//! that key, in the order they were added — the arithmetic a map from key
//! to coefficient does, entry by entry, which `tests.rs` holds it to.

use std::collections::VecDeque;

/// The most entries an insertion between two terms moves before the form
/// turns dense.
const MAX_MOVES: usize = 16;

#[cfg(test)]
thread_local! {
    /// Coefficient entries written by this thread's forms, the entries an
    /// insertion moves included — the unit in which the tests assert
    /// extraction cost is linear in the taps.
    pub(crate) static COEFF_WRITES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[inline]
pub(crate) fn count_coeff_writes(_n: usize) {
    #[cfg(test)]
    COEFF_WRITES.with(|c| c.set(c.get() + _n));
}

/// The terms `Σ c·value(key)` of a linear form.
#[derive(Debug, Clone, Default)]
pub(crate) enum Terms {
    /// No term: the form is a constant.
    #[default]
    Zero,
    /// One term, non-zero.
    One(usize, f64),
    /// Two or more slots, boxed: a form is moved on every step of the
    /// walk, and most forms are constants.
    Many(Box<Many>),
}

/// The slots of a form with more than one, `live` of them non-zero.
#[derive(Debug, Clone)]
pub(crate) enum Many {
    /// Ascending by key.
    Sparse {
        terms: VecDeque<(usize, f64)>,
        live: usize,
    },
    /// The coefficient of every key from `lo` on.
    Dense {
        lo: usize,
        coeffs: VecDeque<f64>,
        live: usize,
    },
}

/// `e ± c` in place, keeping `live` the count of non-zero slots.
#[inline]
fn bump(e: &mut f64, live: &mut usize, c: f64, sub: bool) {
    let was = *e != 0.0;
    *e = if sub { *e - c } else { *e + c };
    match (was, *e != 0.0) {
        (false, true) => *live += 1,
        (true, false) => *live -= 1,
        _ => {}
    }
}

impl Terms {
    /// The single term `1·value(key)`.
    pub(crate) fn unit(key: usize) -> Self {
        count_coeff_writes(1);
        Terms::One(key, 1.0)
    }

    /// No term at all.
    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, Terms::Zero)
    }

    /// Slots held: what a copy writes.
    pub(crate) fn stored(&self) -> usize {
        match self {
            Terms::Zero => 0,
            Terms::One(..) => 1,
            Terms::Many(many) => match &**many {
                Many::Sparse { terms, .. } => terms.len(),
                Many::Dense { coeffs, .. } => coeffs.len(),
            },
        }
    }

    /// The terms, ascending by key, each with its non-zero coefficient.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (one, sparse, dense) = match self {
            Terms::Zero => (None, None, None),
            Terms::One(k, c) => (Some((*k, *c)), None, None),
            Terms::Many(many) => match &**many {
                Many::Sparse { terms, .. } => (None, Some(terms), None),
                Many::Dense { lo, coeffs, .. } => (None, None, Some((*lo, coeffs))),
            },
        };
        let sparse = sparse.into_iter().flatten().copied();
        let dense = (dense.into_iter()).flat_map(|(lo, coeffs)| (lo..).zip(coeffs.iter().copied()));
        (one.into_iter().chain(sparse).chain(dense)).filter(|&(_, c)| c != 0.0)
    }

    /// `coefficient(key) ± c`, for a non-zero `c`.
    pub(crate) fn add(&mut self, key: usize, c: f64, sub: bool) {
        count_coeff_writes(1);
        let live = match self {
            Terms::Zero => {
                let (mut e, mut live) = (0.0, 0);
                bump(&mut e, &mut live, c, sub);
                *self = Terms::One(key, e);
                live
            }
            Terms::One(k, e) if *k == key => {
                let mut live = 1;
                bump(e, &mut live, c, sub);
                live
            }
            Terms::One(k, e) => {
                let (old, new) = ((*k, *e), (key, 0.0));
                let terms = VecDeque::from(if old.0 < key { [old, new] } else { [new, old] });
                let mut many = Box::new(Many::Sparse { terms, live: 1 });
                let live = many.add(key, c, sub);
                *self = Terms::Many(many);
                live
            }
            Terms::Many(many) => many.add(key, c, sub),
        };
        if live == 0 {
            *self = Terms::Zero;
        }
    }

    /// `self ± other`, term by term. A sum folds the shorter form into the
    /// longer: addition commutes, so every key's bits are the same.
    pub(crate) fn add_all(&mut self, mut other: Terms, sub: bool) {
        if !sub && other.stored() > self.stored() {
            std::mem::swap(self, &mut other);
        }
        match other {
            Terms::Zero => {}
            Terms::One(k, c) => self.add(k, c, sub),
            other => other.iter().for_each(|(k, c)| self.add(k, c, sub)),
        }
    }

    /// Applies `f` to every coefficient, dropping those it zeroes.
    pub(crate) fn map(&mut self, f: impl Fn(f64) -> f64) {
        count_coeff_writes(self.stored());
        let each = |e: &mut f64, live: &mut usize| {
            if *e != 0.0 {
                *e = f(*e);
                *live += usize::from(*e != 0.0);
            }
        };
        let mut live = 0;
        match self {
            Terms::Zero => return,
            Terms::One(_, e) => each(e, &mut live),
            Terms::Many(many) => match &mut **many {
                Many::Sparse { terms, live: l } => {
                    terms.iter_mut().for_each(|(_, e)| each(e, &mut live));
                    *l = live;
                }
                Many::Dense {
                    coeffs, live: l, ..
                } => {
                    coeffs.iter_mut().for_each(|e| each(e, &mut live));
                    *l = live;
                }
            },
        }
        if live == 0 {
            *self = Terms::Zero;
        }
    }
}

impl Many {
    /// [`Terms::add`] on two or more slots; the count of live ones after.
    fn add(&mut self, key: usize, c: f64, sub: bool) -> usize {
        match self {
            Many::Sparse { terms, live } => {
                let n = terms.len();
                let at = if terms[n - 1].0 < key {
                    n
                } else if key < terms[0].0 {
                    0
                } else {
                    match terms.binary_search_by_key(&key, |&(k, _)| k) {
                        Ok(i) => {
                            bump(&mut terms[i].1, live, c, sub);
                            return *live;
                        }
                        Err(i) => i,
                    }
                };
                let moves = at.min(n - at);
                if moves > MAX_MOVES {
                    self.densify();
                    return self.add(key, c, sub);
                }
                count_coeff_writes(moves);
                terms.insert(at, (key, 0.0));
                bump(&mut terms[at].1, live, c, sub);
                *live
            }
            Many::Dense { lo, coeffs, live } => {
                if key < *lo {
                    count_coeff_writes(*lo - key);
                    (key..*lo).for_each(|_| coeffs.push_front(0.0));
                    *lo = key;
                } else if key - *lo >= coeffs.len() {
                    count_coeff_writes(key - *lo + 1 - coeffs.len());
                    coeffs.resize(key - *lo + 1, 0.0);
                }
                bump(&mut coeffs[key - *lo], live, c, sub);
                *live
            }
        }
    }

    /// Sparse to dense, over the keys the form spans.
    fn densify(&mut self) {
        let Many::Sparse { terms, live } = self else {
            unreachable!("only a sparse form turns dense")
        };
        let (lo, hi) = (terms[0].0, terms[terms.len() - 1].0);
        count_coeff_writes(hi - lo + 1);
        let mut coeffs = VecDeque::from(vec![0.0; hi - lo + 1]);
        for &(k, c) in &*terms {
            coeffs[k - lo] = c;
        }
        let live = *live;
        *self = Many::Dense { lo, coeffs, live };
    }
}

/// The same terms with the same coefficients (`==` on each, so a NaN
/// coefficient equals nothing), however each side stores them.
impl PartialEq for Terms {
    fn eq(&self, other: &Terms) -> bool {
        self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests;
