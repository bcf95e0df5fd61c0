//! The programs under test: the paper's nine plus `fir(1024)`.

use crate::front::Variant;
use crate::stats::Rng;

/// One program of the suite.
pub struct Prog {
    /// Name used in metric names, file names and stream ids.
    pub name: &'static str,
    /// Canonical source text.
    pub source: String,
    /// The optimisation every stage runs it under: `autosel`, except
    /// FIR1024, which stays in the time domain (`linear`) so the suite has
    /// one program bound by the dense matrix kernel.
    pub variant: Variant,
    /// Outputs per steady-state sample: a constant chosen so one sample of
    /// the `autosel` plan lasts 150-300 ms at the commit that added the
    /// benchmark. Never scaled: parent and change time identical work.
    pub steady_n: usize,
    /// Outputs of the counted (`OpCounter`) runs behind
    /// `flops_removed_pct`/`mults_removed_pct`.
    pub default_outputs: usize,
}

/// All ten, in Table 5.2's order with FIR1024 last. `smoke` cuts the
/// per-sample output counts to a twentieth, for the run that only has to
/// show the code paths work; measurements never use it.
pub fn all(smoke: bool) -> Vec<Prog> {
    let sized = |n: usize| if smoke { n / 20 } else { n };
    const STEADY_N: [(&str, usize); 9] = [
        ("FIR", 4_000_000),
        ("RateConvert", 800_000),
        ("TargetDetect", 1_000_000),
        ("FMRadio", 400_000),
        ("Radar", 45_000),
        ("FilterBank", 500_000),
        ("Vocoder", 32_000),
        ("Oversampler", 3_500_000),
        ("DToA", 330_000),
    ];
    let mut out: Vec<Prog> = streamlin_benchmarks::all_default()
        .iter()
        .zip(STEADY_N)
        .map(|(b, (name, steady_n))| {
            assert_eq!(b.name(), name, "suite order changed");
            Prog {
                name,
                source: b.source().to_string(),
                variant: Variant::AutoSel,
                steady_n: sized(steady_n),
                default_outputs: b.default_outputs(),
            }
        })
        .collect();
    let big = streamlin_benchmarks::fir(1024);
    out.push(Prog {
        name: "FIR1024",
        source: big.source().to_string(),
        variant: Variant::Linear,
        steady_n: sized(800_000),
        default_outputs: big.default_outputs(),
    });
    out
}

pub fn find<'a>(all: &'a [Prog], name: &str) -> Result<&'a Prog, String> {
    all.iter()
        .find(|p| p.name == name)
        .ok_or_else(|| format!("no program {name} in the suite"))
}

/// The canonical text plus a trailing comment the seed chose: the same
/// program to the compiler, a different content hash to the plan cache.
pub fn with_nonce(source: &str, rng: &mut Rng) -> String {
    format!("{source}\n// nonce {:016x}\n", rng.next_u64())
}
