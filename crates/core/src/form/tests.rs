//! [`Terms`] against the map it replaced: a `BTreeMap` from key to
//! coefficient, updated the way extraction updated it before, entry by
//! entry. Both are driven through the same seeded sequences of operations
//! and must agree on every coefficient's bits after each one.

use std::collections::BTreeMap;

use super::{Terms, COEFF_WRITES};

type Model = BTreeMap<usize, f64>;

/// `model[key] ± c`, dropping the entry if it cancels.
fn model_add(m: &mut Model, key: usize, c: f64, sub: bool) {
    let e = m.entry(key).or_insert(0.0);
    if sub {
        *e -= c;
    } else {
        *e += c;
    }
    if *e == 0.0 {
        m.remove(&key);
    }
}

fn model_map(m: &mut Model, f: impl Fn(f64) -> f64) {
    m.retain(|_, c| {
        *c = f(*c);
        *c != 0.0
    });
}

/// Each key with its coefficient's bits. A NaN is any NaN: a sum folds
/// the shorter form into the longer, and which operand's NaN `x + y`
/// returns is the one thing IEEE 754 leaves to the machine.
fn bits(terms: impl Iterator<Item = (usize, f64)>) -> Vec<(usize, u64)> {
    terms
        .map(|(k, c)| {
            (
                k,
                if c.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    c.to_bits()
                },
            )
        })
        .collect()
}

/// A small deterministic generator (xorshift).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A non-zero coefficient: mostly small integers, so sums cancel
    /// often; sometimes an arbitrary float, or one small enough that a
    /// product underflows to zero.
    fn coeff(&mut self) -> f64 {
        match self.below(8) {
            0 => {
                f64::from_bits(self.next() >> 2 | 1) * if self.next() & 1 == 0 { 1.0 } else { -1.0 }
            }
            1 => 1e-200 * (self.below(3) as f64 + 1.0),
            _ => [-2.0, -1.0, 0.5, 1.0, 2.0, 3.0][self.below(6)],
        }
    }
}

/// The keys of a run of insertions: rising, falling, or a permutation.
fn order(rng: &mut Rng, n: usize) -> Vec<usize> {
    let stride = [1, 37, 101][rng.below(3)];
    let keys: Vec<usize> = (0..n).map(|i| i * stride % n).collect();
    match rng.below(3) {
        0 => keys,
        1 => keys.into_iter().rev().collect(),
        _ => (0..n).map(|i| (i * 37 + 11) % n).collect(),
    }
}

#[test]
fn every_operation_matches_the_map_bit_for_bit() {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    for round in 0..300 {
        let width = [3, 40, 300][round % 3];
        let mut forms: Vec<(Terms, Model)> = vec![Default::default(); 4];
        for step in 0..60 {
            let i = rng.below(forms.len());
            match rng.below(7) {
                // A run of single terms, as an accumulating loop adds them.
                0 | 1 => {
                    let sub = rng.next() & 1 == 0;
                    for key in order(&mut rng, width)
                        .into_iter()
                        .take(rng.below(width) + 1)
                    {
                        let c = rng.coeff();
                        forms[i].0.add(key, c, sub);
                        model_add(&mut forms[i].1, key, c, sub);
                    }
                }
                // One form into another, or into itself (`s += s`, `s -= s`).
                2 | 3 => {
                    let (j, sub) = (rng.below(forms.len()), rng.next() & 1 == 0);
                    let (other, model) = forms[j].clone();
                    forms[i].0.add_all(other, sub);
                    for (k, c) in model {
                        model_add(&mut forms[i].1, k, c, sub);
                    }
                }
                4 => {
                    let k = [0.0, -1.0, 0.5, 3.0, 1e-200, f64::INFINITY][rng.below(6)];
                    if rng.next() & 1 == 0 {
                        forms[i].0.map(|c| c * k);
                        model_map(&mut forms[i].1, |c| c * k);
                    } else {
                        forms[i].0.map(|c| c / k);
                        model_map(&mut forms[i].1, |c| c / k);
                    }
                }
                5 => {
                    forms[i].0.map(|c| -c);
                    model_map(&mut forms[i].1, |c| -c);
                }
                // The join's question: are two forms equal?
                _ => {
                    let j = rng.below(forms.len());
                    let want = forms[i].1 == forms[j].1;
                    assert_eq!(forms[i].0 == forms[j].0, want, "round {round} step {step}");
                    if rng.next() & 1 == 0 {
                        forms[j] = forms[i].clone();
                    }
                }
            }
            for (terms, model) in &forms {
                let want = bits(model.iter().map(|(&k, &c)| (k, c)));
                assert_eq!(bits(terms.iter()), want, "round {round} step {step}");
                assert_eq!(
                    terms.is_empty(),
                    model.is_empty(),
                    "round {round} step {step}"
                );
            }
        }
    }
}

#[test]
fn a_constant_and_a_single_term_hold_no_heap_storage() {
    let mut t = Terms::default();
    assert!(matches!(t, Terms::Zero));
    t.add(7, 2.0, false);
    assert!(matches!(t, Terms::One(7, c) if c == 2.0));
    t.map(|c| c * 3.0);
    assert!(matches!(t, Terms::One(7, c) if c == 6.0));
    t.add(7, 6.0, true);
    assert!(matches!(t, Terms::Zero));
}

/// Entries written, insertion moves included, for `n` terms added in the
/// order `key(i)`.
fn writes(n: usize, key: impl Fn(usize) -> usize) -> usize {
    COEFF_WRITES.with(|c| c.set(0));
    let mut t = Terms::default();
    for i in 0..n {
        t.add(key(i), 1.0 + i as f64, false);
    }
    assert_eq!(t.iter().count(), n);
    COEFF_WRITES.with(|c| c.get())
}

#[test]
fn adding_terms_costs_the_same_per_term_in_every_order() {
    for n in [1024, 4096] {
        let orders: [(&str, &dyn Fn(usize) -> usize); 4] = [
            ("rising", &|i| i),
            ("falling", &|i| n - 1 - i),
            ("permuted", &|i| i * 37 % n),
            ("outside in", &|i| {
                if i % 2 == 0 {
                    i / 2
                } else {
                    n - 1 - i / 2
                }
            }),
        ];
        for (what, key) in orders {
            let w = writes(n, key);
            assert!(w <= 3 * n, "{what}, {n} terms: {w} entries written");
        }
    }
}
