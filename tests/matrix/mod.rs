//! The equivalence matrix, generated from `runtime::spec::KNOBS`.
//!
//! For one benchmark, the oracle is the interpreted graph
//! (`OptStream::from_graph`: nothing extraction computes is in it) on the
//! *reference* engine ([`reference`]): tree-walker, data-driven, measured,
//! one thread, every tape access checked. For each sample of the `config` row,
//! [`check`] runs the reference once, holds it to the oracle by `config`'s
//! contract, and then holds every other run to the reference by the
//! contracts of the knobs that run moved off `RunSpec::default()`: each
//! sample of each row alone, then a seeded draw of pairs and triples.
//! Runs are memoised by spec, so a sample that spells a default is free.
//! A new knob, tier or engine family is a row of the table; nothing here
//! names one.

// Each test file that includes this module uses a part of it.
#![allow(dead_code, unused_macros)]

use std::collections::HashMap;
use std::rc::Rc;

use proptest::test_runner::TestRng;
use streamlin::benchmarks::{self, Benchmark};
use streamlin::core::combine::analyze_graph;
use streamlin::core::OptStream;
use streamlin::runtime::measure::first_mismatch;
use streamlin::runtime::spec::Contract;
use streamlin::runtime::{ExecMode, MatMulStrategy, Profile, RunSpec, Tier, KNOBS};

#[path = "../reference/mod.rs"]
pub mod reference;

/// Pairs, then triples, drawn per benchmark × structure.
const DRAWS: [usize; 6] = [2, 2, 2, 2, 3, 3];
const SEED: u64 = 0x2003_0609;
/// The pipeline executor runs whole quanta of steady cycles, and under
/// maximal frequency replacement one cycle of Radar or Vocoder is 10^5
/// firings: seconds per run unoptimised. A debug build leaves the pipeline
/// runs of a longer cycle than this to CI's `--release` run of this matrix.
pub const HEAVY_CYCLE: u64 = 50_000;

/// Knobs moved off the default: `(row of KNOBS, sample)`.
type Deviation = Vec<(usize, &'static str)>;

/// A benchmark at the size the matrix runs it: name, program, outputs per run.
type Sized = (&'static str, fn() -> Benchmark, usize);
pub const BENCHMARKS: [Sized; 9] = [
    ("FIR", || benchmarks::fir(64), 256),
    ("RateConvert", benchmarks::rate_convert, 128),
    ("TargetDetect", benchmarks::target_detect, 128),
    ("FMRadio", benchmarks::fm_radio, 64),
    ("Radar", || benchmarks::radar(2, 2), 32),
    ("FilterBank", benchmarks::filter_bank, 64),
    ("Vocoder", benchmarks::vocoder, 32),
    ("Oversampler", benchmarks::oversampler, 256),
    ("DToA", benchmarks::dtoa, 128),
];

/// The spec a deviation runs under. `matmul` is pinned because `mode`
/// also picks the kernel an unset `matmul` defaults to, and only the
/// kernel is allowed to move a bit.
fn spec_of(dev: &Deviation) -> RunSpec {
    let mut spec = RunSpec {
        matmul: Some(MatMulStrategy::Unrolled),
        ..RunSpec::default()
    };
    for &(k, sample) in dev {
        let applied = KNOBS[k].apply(&mut spec, sample);
        applied.unwrap_or_else(|why| panic!("{} sample `{sample}`: {why}", KNOBS[k].key));
    }
    spec
}

/// Panics unless `got` is `want`: to the bit when `eps` is zero, within
/// `eps` (absolute and relative) otherwise.
fn hold_outputs(what: &str, want: &[f64], got: &[f64], eps: f64) {
    assert_eq!(want.len(), got.len(), "{what}: output counts differ");
    let diff = match eps == 0.0 {
        true => (0..want.len()).find(|&i| want[i].to_bits() != got[i].to_bits()),
        false => first_mismatch(want, got, eps, eps),
    };
    if let Some(i) = diff {
        let (want, got) = (want[i], got[i]);
        panic!("{what}: output {i} differs: {want} (reference) vs {got}");
    }
}

/// One benchmark × structure, and every run of it so far.
struct Cell<'a> {
    name: String,
    opt: &'a OptStream,
    n: usize,
    /// See [`HEAVY_CYCLE`].
    heavy: bool,
    runs: HashMap<String, Rc<Profile>>,
}

impl Cell<'_> {
    /// Runs `spec`, once.
    fn run(&mut self, spec: &RunSpec, what: &str) -> Rc<Profile> {
        let key = format!("{spec:?}");
        if let Some(ran) = self.runs.get(&key) {
            return ran.clone();
        }
        let prof = spec
            .run(self.opt, self.n)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        if spec.mode == ExecMode::Fast {
            assert_eq!(prof.ops.flops(), 0, "{what}: fast mode tallied");
        }
        let ran = Rc::new(prof);
        self.runs.insert(key, ran.clone());
        ran
    }

    /// Holds the run `dev` describes to the reference's outputs `base` by
    /// the weakest contract among its knobs, and to the counts of its
    /// neighbours along every `BitsAndCounts` knob it moves.
    fn hold(&mut self, dev: &Deviation, base: &[f64], seed: Option<u64>) {
        let moved = dev.iter().map(|&(k, s)| format!("{}={s}", KNOBS[k].key));
        let seed = seed.map_or(String::new(), |s| format!(" (seed {s:#x})"));
        let what = format!(
            "{} [{}]{seed}",
            self.name,
            moved.collect::<Vec<_>>().join(" ")
        );
        let spec = spec_of(dev);
        if self.heavy && spec.plan().threads.is_some() {
            return;
        }
        let prof = self.run(&spec, &what);
        let eps = dev.iter().map(|&(k, _)| match KNOBS[k].contract {
            Contract::Tolerance(eps) => eps,
            _ => 0.0,
        });
        let eps = eps.fold(0.0, f64::max);
        hold_outputs(&what, base, &prof.outputs, eps);
        for (i, &(k, sample)) in dev.iter().enumerate() {
            let first = KNOBS[k].samples[0];
            if KNOBS[k].contract == Contract::BitsAndCounts && sample != first {
                let mut anchor = dev.clone();
                anchor[i].1 = first;
                let at = format!("{what} against {}={first}", KNOBS[k].key);
                let anchor = self.run(&spec_of(&anchor), &at);
                assert_eq!(anchor.firings, prof.firings, "{at}: firings differ");
                assert_eq!(anchor.ops, prof.ops, "{at}: tallies differ");
            }
        }
    }
}

/// Holds benchmark `name` to every contract of the table. With `only` it
/// is one row, for the files that keep the hand-written suites' names:
/// `config` holds every configuration's reference to the oracle, any other
/// row holds its samples to the reference under the default configuration.
pub fn check(name: &str, only: Option<&str>) {
    let &(_, bench, n) = BENCHMARKS.iter().find(|b| b.0 == name).unwrap();
    let bench = bench();
    let analysis = analyze_graph(bench.graph());
    let reference = |opt: &OptStream, what: &str| {
        let reference = reference::run(opt, n, Tier::TreeWalk, false);
        reference.unwrap_or_else(|e| panic!("{what}: {e}")).outputs
    };
    let config = KNOBS.iter().find(|k| k.key == "config").unwrap();
    let Contract::Tolerance(config_eps) = config.contract else {
        panic!("`config` reassociates arithmetic: its contract is a tolerance");
    };
    let knobs: Vec<usize> = (0..KNOBS.len())
        .filter(|&k| KNOBS[k].key != "config" && KNOBS[k].contract != Contract::NotOutput)
        .filter(|&k| only.is_none_or(|row| row == KNOBS[k].key))
        .collect();

    let sliced = only.is_some_and(|row| row != "config");
    let oracle = (!sliced).then(|| {
        let interpreted = OptStream::from_graph(bench.graph());
        reference(&interpreted, &format!("{name} interpreted"))
    });
    for &structure in config.samples {
        if sliced && structure != RunSpec::default().config.label() {
            continue;
        }
        let mut spec = RunSpec::default();
        config.apply(&mut spec, structure).unwrap();
        let opt = spec.config.apply(bench.graph(), &analysis);
        let opt = opt.unwrap_or_else(|e| panic!("{name} {structure}: {e}"));
        let plan = || spec_of(&vec![]).compile(&opt).map(|art| art.plan);
        let mut cell = Cell {
            name: format!("{name} {structure}"),
            opt: &opt,
            n,
            heavy: cfg!(debug_assertions) && plan().is_ok_and(|p| p.steady_firings() > HEAVY_CYCLE),
            runs: HashMap::new(),
        };
        let what = format!("{} [reference]", cell.name);
        let base = reference(&opt, &what);
        if let Some(oracle) = &oracle {
            hold_outputs(&what, oracle, &base, config_eps);
        }

        for &k in &knobs {
            for sample in KNOBS[k].samples {
                cell.hold(&vec![(k, sample)], &base, None);
            }
        }
        if only.is_some() {
            continue;
        }
        cell.hold(&vec![], &base, None);
        let seed = cell.name.bytes().fold(SEED, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let mut rng = TestRng::new(seed);
        for arity in DRAWS {
            let mut dev = Deviation::new();
            while dev.len() < arity {
                let k = knobs[rng.usize_below(knobs.len())];
                if dev.iter().all(|&(taken, _)| taken != k) {
                    let samples = KNOBS[k].samples;
                    dev.push((k, samples[rng.usize_below(samples.len())]));
                }
            }
            dev.sort_unstable();
            cell.hold(&dev, &base, Some(seed));
        }
    }
}

/// `name => "Benchmark"` pairs become `#[test] fn name()`, each holding
/// that benchmark to the whole table (`None`) or to one row of it.
macro_rules! matrix_tests {
    ($only:expr; $($name:ident => $bench:literal),* $(,)?) => {
        $(#[test]
        fn $name() {
            matrix::check($bench, $only);
        })*
    };
}
