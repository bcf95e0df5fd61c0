//! Property-based tests of the paper's transformations: for random linear
//! nodes and random inputs, the transformed implementation must reproduce
//! the original structure's output exactly (frequency: to FFT tolerance).

use proptest::prelude::*;
use streamlin::core::expand::expand;
use streamlin::core::frequency::{FreqExec, FreqSpec, FreqStrategy};
use streamlin::core::node::LinearNode;
use streamlin::core::pipeline::combine_pipeline;
use streamlin::core::redundancy::{RedundExec, RedundSpec};
use streamlin::core::reference::{run_reference, RefStream};
use streamlin::core::splitjoin::combine_splitjoin;
use streamlin::fft::FftKind;
use streamlin::graph::ir::Splitter;
use streamlin::matrix::{Matrix, Vector};
use streamlin::support::OpCounter;

/// A random linear node with bounded rates and small integer-ish entries.
fn arb_node(max_peek: usize, max_push: usize) -> impl Strategy<Value = LinearNode> {
    (1..=max_peek, 1..=max_push).prop_flat_map(move |(peek, push)| {
        let entries = proptest::collection::vec(-4..=4i32, peek * push);
        let offsets = proptest::collection::vec(-2..=2i32, push);
        (Just(peek), Just(push), 1..=peek, entries, offsets).prop_map(
            |(peek, push, pop, entries, offsets)| {
                LinearNode::from_coeffs(
                    peek,
                    pop,
                    push,
                    |i, j| entries[i * push + j] as f64,
                    &offsets.iter().map(|&v| v as f64).collect::<Vec<_>>(),
                )
            },
        )
    })
}

fn input(len: usize, seed: i64) -> Vec<f64> {
    (0..len)
        .map(|i| (((i as i64 * 37 + seed * 11) % 19) - 9) as f64)
        .collect()
}

fn assert_prefix_close(a: &[f64], b: &[f64], tol: f64) -> Result<(), TestCaseError> {
    let n = a.len().min(b.len());
    for i in 0..n {
        prop_assert!(
            (a[i] - b[i]).abs() < tol,
            "outputs differ at {i}: {} vs {}",
            a[i],
            b[i]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transformation 1: k-fold expansion == k firings.
    #[test]
    fn expansion_matches_repeated_firing(node in arb_node(5, 3), k in 1usize..=4, seed in 0i64..100) {
        let e2 = node.peek() + (k - 1) * node.pop();
        let expanded = expand(&node, e2, k * node.pop(), k * node.push()).unwrap();
        let x = input(e2 + 4 * k * node.pop(), seed);
        let got = expanded.fire_sequence(&x);
        let want = node.fire_sequence(&x);
        assert_prefix_close(&got, &want, 1e-9)?;
    }

    /// Transformation 2: pipeline combination == running the two nodes
    /// back to back.
    #[test]
    fn pipeline_combination_is_equivalent(
        a in arb_node(4, 3),
        b in arb_node(4, 3),
        seed in 0i64..100,
    ) {
        let combined = combine_pipeline(&a, &b).unwrap();
        let x = input(64, seed);
        let want = run_reference(
            &RefStream::Pipeline(vec![RefStream::Node(a), RefStream::Node(b)]),
            &x,
        );
        let got = combined.fire_sequence(&x);
        prop_assume!(!got.is_empty() && !want.is_empty());
        assert_prefix_close(&got, &want, 1e-9)?;
    }

    /// Transformation 3: duplicate splitjoin combination == the parallel
    /// structure (children constrained to a common pop rate).
    #[test]
    fn duplicate_splitjoin_combination_is_equivalent(
        a in arb_node(4, 3),
        b in arb_node(4, 3),
        seed in 0i64..100,
    ) {
        // Use each child's push as its joiner weight; both then fire once
        // per joiner cycle, so schedulability needs equal pops.
        prop_assume!(a.pop() == b.pop());
        let weights = vec![a.push(), b.push()];
        let children = vec![a, b];
        let combined = combine_splitjoin(&Splitter::Duplicate, &children, &weights).unwrap();
        let x = input(80, seed);
        let want = run_reference(
            &RefStream::SplitJoin {
                split: Splitter::Duplicate,
                children: children.into_iter().map(RefStream::Node).collect(),
                join: weights,
            },
            &x,
        );
        let got = combined.fire_sequence(&x);
        prop_assume!(!got.is_empty() && !want.is_empty());
        assert_prefix_close(&got, &want, 1e-9)?;
    }

    /// Transformation 4: round-robin splitjoins after rewriting.
    #[test]
    fn roundrobin_splitjoin_combination_is_equivalent(
        a in arb_node(3, 2),
        b in arb_node(3, 2),
        va in 1usize..=3,
        vb in 1usize..=3,
        seed in 0i64..100,
    ) {
        // Joiner weights = pushes per splitter cycle keep it schedulable:
        // child k fires va/pop... constrain to pop dividing weight stream.
        prop_assume!(va.is_multiple_of(a.pop()) && vb.is_multiple_of(b.pop()));
        let wa = va / a.pop() * a.push();
        let wb = vb / b.pop() * b.push();
        let split = Splitter::RoundRobin(vec![va, vb]);
        let weights = vec![wa, wb];
        let children = vec![a, b];
        let combined = combine_splitjoin(&split, &children, &weights).unwrap();
        let x = input(96, seed);
        let want = run_reference(
            &RefStream::SplitJoin {
                split,
                children: children.into_iter().map(RefStream::Node).collect(),
                join: weights,
            },
            &x,
        );
        let got = combined.fire_sequence(&x);
        prop_assume!(!got.is_empty() && !want.is_empty());
        assert_prefix_close(&got, &want, 1e-9)?;
    }

    /// Transformations 5/6: the frequency implementations reproduce the
    /// direct node.
    #[test]
    fn frequency_implementations_are_equivalent(
        node in arb_node(6, 2),
        naive in proptest::bool::ANY,
        tuned in proptest::bool::ANY,
        seed in 0i64..100,
    ) {
        let strategy = if naive { FreqStrategy::Naive } else { FreqStrategy::Optimized };
        let kind = if tuned { FftKind::Tuned } else { FftKind::Simple };
        let spec = FreqSpec::new(&node, strategy, kind, None).unwrap();
        let mut exec = FreqExec::new(spec);
        let mut ops = OpCounter::new();
        let x = input(160, seed);
        let got = exec.run_over(&x, &mut ops);
        let want = node.fire_sequence(&x);
        prop_assume!(!got.is_empty());
        assert_prefix_close(&got, &want, 1e-6)?;
    }

    /// Transformation 7: redundancy elimination reproduces the direct node
    /// and never uses more multiplications.
    #[test]
    fn redundancy_elimination_is_equivalent(node in arb_node(6, 2), seed in 0i64..100) {
        let spec = RedundSpec::new(&node);
        prop_assert!(spec.mults_per_firing() <= spec.direct_mults_per_firing());
        let mut exec = RedundExec::new(spec);
        let mut ops = OpCounter::new();
        let x = input(96, seed);
        let got = exec.run_over(&x, &mut ops);
        let want = node.fire_sequence(&x);
        prop_assert_eq!(got.len(), want.len());
        assert_prefix_close(&got, &want, 1e-9)?;
    }

    /// Chained pipeline combination is associative in effect.
    #[test]
    fn pipeline_combination_associates(
        a in arb_node(3, 2),
        b in arb_node(3, 2),
        c in arb_node(3, 2),
        seed in 0i64..100,
    ) {
        let left = combine_pipeline(&combine_pipeline(&a, &b).unwrap(), &c).unwrap();
        let right = combine_pipeline(&a, &combine_pipeline(&b, &c).unwrap()).unwrap();
        let x = input(96, seed);
        let lo = left.fire_sequence(&x);
        let ro = right.fire_sequence(&x);
        prop_assume!(!lo.is_empty() && !ro.is_empty());
        assert_prefix_close(&lo, &ro, 1e-9)?;
    }
}

/// A paper-oriented `(A, b)` of a random shape, empty axes included, with
/// fractional entries, zeros and negative zeros.
fn arb_paper_matrix() -> impl Strategy<Value = (Matrix, Vector)> {
    (0usize..=6, 0usize..=5).prop_flat_map(|(peek, push)| {
        let entries = proptest::collection::vec(-9..=9i32, peek * push);
        let offsets = proptest::collection::vec(-9..=9i32, push);
        (Just(peek), Just(push), entries, offsets).prop_map(|(peek, push, entries, offsets)| {
            let a = Matrix::from_fn(peek, push, |r, c| entry(entries[r * push + c]));
            (a, offsets.into_iter().map(entry).collect())
        })
    })
}

fn entry(v: i32) -> f64 {
    match v {
        0 => 0.0,
        1 => -0.0,
        v => f64::from(v) / 7.0,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A node stores its coefficients output-major, but hands back the
    /// paper's `A` and `b` bit for bit, and `coeff`/`offset`/`row` agree
    /// with the paper's indexing: row `peek−1−i` ↔ `peek(i)`, column
    /// `push−1−j` ↔ output `j`.
    #[test]
    fn the_stored_layout_round_trips_the_paper_matrix(
        (a, b) in arb_paper_matrix(),
        pop in 0usize..=3,
    ) {
        let (e, u) = (a.rows(), a.cols());
        let node = LinearNode::new(a.clone(), b.clone(), pop).unwrap();
        prop_assert_eq!((node.peek(), node.pop(), node.push()), (e, pop, u));
        prop_assert_eq!(node.a().rows(), e);
        prop_assert_eq!(node.a().cols(), u);
        prop_assert_eq!(bits(node.a().as_slice()), bits(a.as_slice()));
        prop_assert_eq!(bits(node.b().as_slice()), bits(b.as_slice()));
        for j in 0..u {
            prop_assert_eq!(node.offset(j).to_bits(), b[u - 1 - j].to_bits());
            prop_assert_eq!(node.offsets()[j].to_bits(), b[u - 1 - j].to_bits());
            for i in 0..e {
                let paper = a[(e - 1 - i, u - 1 - j)].to_bits();
                prop_assert_eq!(node.coeff(i, j).to_bits(), paper);
                prop_assert_eq!(node.row(j)[i].to_bits(), paper);
            }
        }
    }
}

/// FNV-1a over the rates and the bits of the paper-layout `A` and `b`.
fn paper_hash(node: &LinearNode) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let dims = [node.peek(), node.pop(), node.push()].map(|d| d as u64);
    let (a, b) = (node.a(), node.b());
    let values = a.as_slice().iter().chain(b.as_slice()).map(|v| v.to_bits());
    for word in dims.into_iter().chain(values) {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Splitmix64: the fixed-seed stream the combinations below are drawn from.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A node with the given rates whose coefficients mix magnitudes, so
    /// that a change in summation order changes the rounded result.
    fn node(&mut self, peek: usize, pop: usize, push: usize) -> LinearNode {
        let mut coeff = || match self.below(8) {
            0 | 1 => 0.0,
            2 => -0.0,
            _ => (self.below(2001) as f64 - 1000.0) / 7.0 * [1e-3, 1.0, 1e3][self.below(3)],
        };
        let rows: Vec<f64> = (0..peek * push).map(|_| coeff()).collect();
        let offsets: Vec<f64> = (0..push).map(|_| coeff()).collect();
        LinearNode::from_coeffs(peek, pop, push, |i, j| rows[j * peek + i], &offsets)
    }

    fn any_node(&mut self) -> LinearNode {
        let peek = 1 + self.below(7);
        let pop = 1 + self.below(peek);
        let push = 1 + self.below(4);
        self.node(peek, pop, push)
    }
}

/// The combination rules work on the stored rows; every combined
/// coefficient must be the bits the paper-layout products gave. The
/// hashes were recorded from the paper-layout implementation (`A₁ᵉ·A₂ᵉ`
/// as a matrix product, expansion as a sum of shifted copies).
#[test]
fn combinations_keep_the_paper_layouts_bits() {
    let mut draw = Draw(0x5eed);
    let mut got = Vec::new();
    for _ in 0..24 {
        let (a, b) = (draw.any_node(), draw.any_node());
        got.push(combine_pipeline(&a, &b).map_or(0, |c| paper_hash(&c)));
    }
    for _ in 0..12 {
        let (pop, push) = (1 + draw.below(3), 1 + draw.below(3));
        let n = 2 + draw.below(2);
        let children: Vec<LinearNode> = (0..n)
            .map(|_| {
                let peek = pop + draw.below(4);
                draw.node(peek, pop, push)
            })
            .collect();
        let weights = vec![push; n];
        let c = combine_splitjoin(&Splitter::Duplicate, &children, &weights);
        got.push(c.map_or(0, |c| paper_hash(&c)));
    }
    for _ in 0..12 {
        let (a, b) = (draw.any_node(), draw.any_node());
        let (va, vb) = (a.pop() * (1 + draw.below(2)), b.pop() * (1 + draw.below(2)));
        let weights = vec![va / a.pop() * a.push(), vb / b.pop() * b.push()];
        let split = Splitter::RoundRobin(vec![va, vb]);
        let c = combine_splitjoin(&split, &[a, b], &weights);
        got.push(c.map_or(0, |c| paper_hash(&c)));
    }
    let combined = got.iter().filter(|&&h| h != 0).count();
    assert!(combined >= 36, "only {combined} of {} combined", got.len());
    assert_eq!(got, PAPER_LAYOUT_HASHES, "actual: {got:#x?}");
}

const PAPER_LAYOUT_HASHES: [u64; 48] = [
    0x9a62d2c6b9be700f,
    0xb5f0de77534b8bb1,
    0x83c8873227838c9d,
    0xa1128b1623c0f649,
    0x6a5ee52d39dad4b1,
    0x5fdc814b84b26edb,
    0x23620a42ae49e05e,
    0x6ea66c3a87144c3a,
    0xaeca777147656188,
    0xf02d6bd2665d9c65,
    0xf99c7f3af7badca6,
    0x42bd020f51c4185e,
    0xe44520f5781cbd09,
    0x70c9d50f6348ad6d,
    0x4398373d71f898d1,
    0x2edb61945e2829ff,
    0xa5a48ce1b743b8b8,
    0xa473f9d6b0b3682a,
    0x564dac788a697e64,
    0x999c71a524797a7d,
    0x4aa8e84b39253b98,
    0x9e65279cce59c5b9,
    0x96420c3746792a39,
    0x79f2a56621192814,
    0xe15e95c31fbbfb5e,
    0xf94b6db15496f999,
    0x0a4c0bb795bbbce5,
    0x67a9b6c8d920e634,
    0xef42ceb2bdb9ff58,
    0xd6c46037e83c5be1,
    0x6b49f919cc34a9c3,
    0x5ef447e14c3f79b5,
    0xf1fe2e5194b743a8,
    0x21c750526d2595bb,
    0x13a2aea0da59597f,
    0x8218928fc602a94c,
    0x32270ba800c58b65,
    0x3da9073c8fa87565,
    0xc386fd7490927fd7,
    0x143c772f99a6cfe6,
    0x52b20ab458317fc9,
    0x5f99a96e26b00ecb,
    0xdb1259ed7ad596b4,
    0x090b2d594d2a5bc3,
    0x492f26fda08d8c63,
    0x08ac0686e27c593f,
    0x4582052dbe3e3d5d,
    0xfc957fb183205124,
];
