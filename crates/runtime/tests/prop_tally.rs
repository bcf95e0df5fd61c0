//! Property tests for the zero-cost tally abstraction: for random linear
//! nodes and random inputs, execution monomorphized over the free
//! [`NoCount`] tally is **bit-identical** to execution over the counting
//! [`CountOps`] tally, for every matrix-multiply strategy (including the
//! AVX dispatch inside `Simd` on machines that have it), in both the
//! single-firing and the batched kernels — and `Simd` agrees with the
//! paper's `Unrolled` strategy to within 1e-9 relative tolerance.

use proptest::prelude::*;
use streamlin_core::node::LinearNode;
use streamlin_runtime::linear_exec::{LinearExec, MatMulStrategy};
use streamlin_support::{CountOps, NoCount, OpCounter, Tally};

/// A random linear node: peek 1..=24, pop 1..=peek+2, push 1..=3, sparse
/// small-rational coefficients (zeros exercise the skipping kernels),
/// plus offsets.
fn arb_node() -> impl Strategy<Value = LinearNode> {
    (1usize..=24, 1usize..=4, 1usize..=3).prop_flat_map(|(peek, pop, push)| {
        (
            proptest::collection::vec(-16i32..=16, peek * push),
            proptest::collection::vec(-8i32..=8, push),
            Just((peek, pop, push)),
        )
            .prop_map(|(coeffs, offsets, (peek, pop, push))| {
                let b: Vec<f64> = offsets.iter().map(|&v| v as f64 * 0.5).collect();
                LinearNode::from_coeffs(
                    peek,
                    pop,
                    push,
                    |i, j| {
                        let c = coeffs[i * push + j];
                        // ~1/3 zeros so Unrolled skips real work.
                        if c.rem_euclid(3) == 0 {
                            0.0
                        } else {
                            c as f64 * 0.25
                        }
                    },
                    &b,
                )
            })
    })
}

fn arb_input() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1000i32..=1000, 64..200)
        .prop_map(|v| v.into_iter().map(|x| x as f64 * 0.125).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nocount_is_bit_identical_to_countops(node in arb_node(), input in arb_input()) {
        for strategy in MatMulStrategy::ALL {
            let mut counted_exec = LinearExec::new(node.clone(), strategy);
            let mut free_exec = LinearExec::new(node.clone(), strategy);
            let mut counted = CountOps::new();
            let mut free = NoCount;
            let a = counted_exec.run_over(&input, &mut counted);
            let b = free_exec.run_over(&input, &mut free);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // The free tally reports nothing; the counted one reports
            // the strategy's work when there was any.
            prop_assert_eq!(free.counts(), OpCounter::default());
        }
    }

    #[test]
    fn batched_nocount_matches_batched_countops(node in arb_node(), input in arb_input()) {
        let (e, o) = (node.peek(), node.pop());
        if input.len() < e {
            return Ok(());
        }
        let k = (input.len() - e) / o + 1;
        for strategy in MatMulStrategy::ALL {
            let exec = LinearExec::new(node.clone(), strategy);
            let mut a = Vec::new();
            let mut counted = CountOps::new();
            exec.fire_batch(&input, k, &mut a, &mut counted);
            let mut b = Vec::new();
            let mut free = NoCount;
            exec.fire_batch(&input, k, &mut b, &mut free);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn simd_agrees_with_unrolled(node in arb_node(), input in arb_input()) {
        let mut unrolled = LinearExec::new(node.clone(), MatMulStrategy::Unrolled);
        let mut simd = LinearExec::new(node, MatMulStrategy::Simd);
        let a = unrolled.run_over(&input, &mut NoCount);
        let b = simd.run_over(&input, &mut NoCount);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            let tol = 1e-9 * x.abs().max(y.abs()).max(1.0);
            prop_assert!((x - y).abs() <= tol, "{} vs {}", x, y);
        }
    }
}
