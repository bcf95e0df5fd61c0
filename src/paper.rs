//! Chapter 5 of the paper as one generated report, `REPRODUCTION.md`.
//!
//! [`figures`] is the table of the paper's tables and figures, one entry
//! per study, and an entry is data: an id, a title, the paper's quoted
//! claim, its rows (programs) and its columns ([`Col`]: which quantity of
//! which [`Cell`]s). [`Lab`] is the one memoised measurement table behind
//! them: `analyze_graph` runs once per program and every distinct cell is
//! run once, however many columns read it. [`write_exact`] renders the
//! deterministic half (counts and structure: byte-stable across runs and
//! build profiles, compared with the committed file by
//! `tests/reproduction.rs`), [`write_timing`] the informational wall-clock
//! half; the `reproduce` binary writes both, [`MARKER`] between.

use std::collections::HashMap;
use std::io::{self, Write};
use std::process::Command;
use std::rc::Rc;

use crate::benchmarks::{self, Benchmark};
use crate::core::combine::{analyze_graph, replace, LinearAnalysis, ReplaceOptions};
use crate::core::cost::CostModel;
use crate::core::frequency::FreqStrategy::{self, Naive, Optimized};
use crate::core::frequency::{FreqExec, FreqSpec};
use crate::core::opt::OptStats;
use crate::core::{Config, LinearNode, OptStream};
use crate::fft::FftKind::{self, Simple, Tuned};
use crate::graph::stats::{graph_stats, GraphStats};
use crate::runtime::flat::NodeKind;
use crate::runtime::MatMulStrategy::{self, Blocked, Unrolled};
use crate::runtime::{ExecMode, RunSpec};
use crate::support::probe::Recorder;
use crate::support::OpCounter;

/// The line between the two halves of `REPRODUCTION.md`.
pub const MARKER: &str = "<!-- TIMING HALF BELOW: informational, never gated. \
    Everything above this line is exact and diffed by tests/reproduction.rs. -->";

/// Runs behind every timing cell (reported as median and quartiles).
pub const RUNS: usize = 5;

/// A program a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Program {
    /// The i-th of `benchmarks::all_default()`, Table 5-2's order.
    Suite(usize),
    /// `benchmarks::fir(taps)`, the scaling study of §5.5 and §5.6.
    Fir(usize),
    /// `benchmarks::radar(channels, beams)`, the scaling study of §5.7.
    Radar(usize, usize),
}

/// How a cell's stream is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Build {
    /// One of the five configurations, by [`Config::apply`].
    Named(Config),
    /// Figure 5-4's "freq(nc)": frequency replacement filter by filter,
    /// straight from [`replace`] with combination off. (Its "linear(nc)"
    /// would be `ReplaceOptions::per_filter()`, which *is* the baseline.)
    FreqNoCombine,
}

const BASELINE: Build = Build::Named(Config::Baseline);
const LINEAR: Build = Build::Named(Config::Linear);
const FREQ: Build = Build::Named(Config::Freq);
const REDUND: Build = Build::Named(Config::Redund);
const AUTOSEL: Build = Build::Named(Config::AutoSel);

/// One run: the program, how its stream is built, the matrix-multiply code
/// and the mode it executes with, and the outputs it is asked for.
pub type Cell = (Program, Build, MatMulStrategy, ExecMode, usize);

/// What one run of a cell measured, per program output.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub flops: f64,
    pub mults: f64,
    pub nanos: f64,
}

/// Every measurement the report reads, each made once.
#[derive(Default)]
pub struct Lab {
    programs: HashMap<Program, Rc<(Benchmark, LinearAnalysis)>>,
    streams: HashMap<(Program, Build), Rc<OptStream>>,
    samples: HashMap<Cell, Vec<Sample>>,
    attributions: HashMap<Program, Vec<String>>,
    /// Cell lookups so far, and the runs that served them.
    pub reads: usize,
    pub runs: usize,
}

impl Lab {
    /// The program and its linear analysis, built on first use.
    pub fn program(&mut self, program: Program) -> Rc<(Benchmark, LinearAnalysis)> {
        let build = || {
            let bench = match program {
                Program::Suite(i) => benchmarks::all_default().swap_remove(i),
                Program::Fir(taps) => benchmarks::fir(taps),
                Program::Radar(channels, beams) => benchmarks::radar(channels, beams),
            };
            let analysis = analyze_graph(bench.graph());
            Rc::new((bench, analysis))
        };
        Rc::clone(self.programs.entry(program).or_insert_with(build))
    }

    /// The optimized stream of a program under a build, built on first use.
    /// Panics if selection fails: the paper's programs always schedule.
    pub fn stream(&mut self, program: Program, build: Build) -> Rc<OptStream> {
        if !self.streams.contains_key(&(program, build)) {
            let loaded = self.program(program);
            let (graph, analysis) = (loaded.0.graph(), &loaded.1);
            let mut per_filter_freq = ReplaceOptions::maximal_freq();
            per_filter_freq.combine = false;
            let opt = match build {
                Build::Named(config) => config.apply(graph, analysis),
                Build::FreqNoCombine => Ok(replace(graph, analysis, &per_filter_freq)),
            };
            let opt = opt.unwrap_or_else(|e| panic!("{program:?} under {build:?}: {e}"));
            self.streams.insert((program, build), Rc::new(opt));
        }
        Rc::clone(&self.streams[&(program, build)])
    }

    /// Run number `run` of a cell, made when first asked for (a `Measured`
    /// cell only has run 0: its counts are exact).
    /// Panics on execution errors: the report measures known-good programs.
    pub fn sample(&mut self, cell: Cell, run: usize) -> Sample {
        self.reads += 1;
        let (program, build, matmul, mode, n) = cell;
        while self.samples.entry(cell).or_default().len() <= run {
            let mut spec = RunSpec::default();
            (spec.mode, spec.matmul) = (mode, Some(matmul));
            let p = spec.run(&self.stream(program, build), n);
            let p = p.unwrap_or_else(|e| panic!("{cell:?}: {e}"));
            let (flops, mults) = (p.flops_per_output(), p.mults_per_output());
            let nanos = p.nanos_per_output();
            let sample = Sample {
                flops,
                mults,
                nanos,
            };
            self.samples.entry(cell).or_default().push(sample);
            self.runs += 1;
        }
        self.samples[&cell][run]
    }

    /// A suite program's row of the attribution table, made when first
    /// asked for: one counted, recorded run of its autosel plan (the 5-1
    /// cell's run), every node's tally summed by kind per output, then the
    /// total and the node with the largest share.
    /// Panics on execution errors, as [`Lab::sample`] does.
    fn attributed(&mut self, program: Program) -> Vec<String> {
        self.reads += 1;
        if let Some(row) = self.attributions.get(&program) {
            return row.clone();
        }
        let loaded = self.program(program);
        let (name, n) = (loaded.0.name(), loaded.0.default_outputs());
        let opt = self.stream(program, AUTOSEL);
        let mut spec = RunSpec::default();
        (spec.mode, spec.matmul) = (ExecMode::Measured, Some(Unrolled));
        let art = spec.compile(&opt).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut rec = Recorder::new();
        let run = spec.run_recorded(&opt, n, &mut rec);
        let run = run.unwrap_or_else(|e| panic!("{name}: {e}"));
        self.runs += 1;
        let mut by_kind = [0u64; KINDS.len()];
        for (&id, stats) in &rec.nodes {
            by_kind[kind_index(&art.flat.nodes[id].kind)] += stats.ops.flops();
        }
        let total = run.ops.flops();
        assert_eq!(
            by_kind.iter().sum::<u64>(),
            total,
            "{name}: nodes miss FLOPs"
        );
        let (top, top_flops) = rec
            .nodes
            .iter()
            .map(|(&id, stats)| (id, stats.ops.flops()))
            .max_by_key(|&(id, flops)| (flops, std::cmp::Reverse(id)))
            .expect("a plan has nodes");
        let per_output = |flops: u64| format!("{:.1}", flops as f64 / run.outputs.len() as f64);
        let mut row = vec![name.to_string()];
        row.extend(by_kind.iter().map(|&f| per_output(f)));
        row.push(per_output(total));
        row.push(art.flat.nodes[top].name.clone());
        row.push(format!(
            "{:.1}",
            100.0 * top_flops as f64 / total.max(1) as f64
        ));
        self.attributions.insert(program, row.clone());
        row
    }

    /// Exact per-output counts, under the paper's unrolled code.
    fn counted(&mut self, (program, n): (Program, usize), build: Build) -> Sample {
        self.sample((program, build, Unrolled, ExecMode::Measured, n), 0)
    }

    /// Nanoseconds per output of one run in `Fast` mode: the tally is the
    /// instrument, not the program, so it is off while the clock runs.
    fn nanos(&mut self, (program, n): (Program, usize), how: How, run: usize) -> f64 {
        let cell = (program, how.0, how.1, ExecMode::Fast, n);
        self.sample(cell, run).nanos
    }

    /// Speedup % over the baseline, run `run` against run `run`.
    fn speedup(&mut self, at: (Program, usize), how: How, run: usize) -> f64 {
        let before = self.nanos(at, (BASELINE, Unrolled), run);
        speedup_pct(before, self.nanos(at, how, run))
    }
}

/// Percentage removed, `(1 − after/before)·100` (negative = increase): the
/// quantity of Figures 5-1 and 5-2.
pub fn pct_removed(before: f64, after: f64) -> f64 {
    (1.0 - after / before) * 100.0
}

/// Speedup percentage, `(t_before/t_after − 1)·100`: the quantity of
/// Figure 5-3 (an 800 % speedup is 9× faster).
pub fn speedup_pct(before_ns: f64, after_ns: f64) -> f64 {
    (before_ns / after_ns - 1.0) * 100.0
}

/// Figure 5-12's reduction factor: multiplications per output of a direct
/// `taps`-tap FIR over those of its frequency implementation at FFT size
/// `n` (NaN where `n` is too small). `None` is the textbook estimate: two
/// FFTs of `2n·lg n` multiplications and a `4n`-multiplication product per
/// `n − 2·taps + 1` outputs.
fn fft_factor(how: Option<(FreqStrategy, FftKind)>, taps: usize, n: usize) -> f64 {
    let Some((strategy, kind)) = how else {
        let (nf, outputs) = (n as f64, (n + 1).saturating_sub(2 * taps) as f64);
        let estimate = taps as f64 / ((4.0 * nf * nf.log2() + 4.0 * nf) / outputs);
        return if n < 2 * taps { f64::NAN } else { estimate };
    };
    let node = LinearNode::fir(&vec![1.0; taps]);
    let Ok(spec) = FreqSpec::new(&node, strategy, kind, Some(n)) else {
        return f64::NAN;
    };
    let input: Vec<f64> = (0..8 * n + taps).map(|i| (i % 13) as f64).collect();
    let mut ops = OpCounter::new();
    let outputs = FreqExec::new(spec).run_over(&input, &mut ops);
    match outputs.len() {
        0 => f64::NAN,
        len => taps as f64 / (ops.mults() as f64 / len as f64),
    }
}

/// Which per-output count a column reads.
type Count = fn(Sample) -> f64;
const FLOPS: Count = |s| s.flops;
const MULTS: Count = |s| s.mults;

/// How a timed run is built and which matrix-multiply code it executes.
type How = (Build, MatMulStrategy);

/// What a column shows of its row's program.
#[derive(Clone, Copy)]
pub enum Col {
    /// Table 5-2: a statistic of the graph, its analysis and the structure
    /// automatic selection leaves.
    Stat(fn(&GraphStats, &LinearAnalysis, &OptStats) -> f64),
    /// A count per output under a build.
    PerOutput(Count, Build),
    /// % of the baseline's count that a build removes.
    Removed(Count, Build),
    /// % of the baseline's multiplications that a build leaves.
    Remaining(Build),
    /// §4.3.3's cost of the row's FIR per consumed item: direct, or in the
    /// frequency domain under a strategy.
    Model(Option<FreqStrategy>),
    /// Figure 5-12: `fft_factor` at this FFT size (the row picks strategy
    /// and taps).
    FftFactor(usize),
    /// Speedup % over the baseline.
    Speedup(How),
    /// The first speedup minus the second.
    Gain(How, How),
}

/// One study of Chapter 5: its exact columns go to the exact half with the
/// claim and the verdict, its timed columns to the other.
#[derive(Default)]
pub struct Figure {
    pub id: &'static str,
    pub title: &'static str,
    /// The paper's claim as the deleted `fig5_*` binaries quoted it; empty
    /// where they quoted none.
    pub claim: &'static str,
    /// Header of the label column, then a label and a program per row.
    pub rows: (&'static str, Vec<(String, Program)>),
    /// Outputs per run of the FIR and Radar studies (a suite program runs
    /// for its `default_outputs()`).
    pub n: usize,
    pub exact: Vec<(&'static str, Col)>,
    pub timing: Vec<(&'static str, Col)>,
    /// Append an `AVERAGE` row: the mean of every column.
    pub average: bool,
    pub verdict: Option<Verdict>,
}

/// Whether a figure's exact table (row-major, the `AVERAGE` row last)
/// reproduces the paper's claim, and the evidence.
pub type Verdict = fn(&[Vec<f64>]) -> (bool, String);

/// The number in row `row` of a column (of a timed column: as run `run`
/// measured it). NaN prints as `-`.
fn value(lab: &mut Lab, fig: &Figure, row: usize, col: Col, run: usize) -> f64 {
    let program = fig.rows.1[row].1;
    let at = match program {
        Program::Suite(_) => (program, lab.program(program).0.default_outputs()),
        _ => (program, fig.n),
    };
    match (col, program) {
        (Col::Stat(pick), _) => {
            let (loaded, after) = (lab.program(program), lab.stream(program, AUTOSEL).stats());
            pick(&graph_stats(loaded.0.graph()), &loaded.1, &after)
        }
        (Col::PerOutput(count, build), _) => count(lab.counted(at, build)),
        (Col::Removed(count, build), _) => {
            let before = count(lab.counted(at, BASELINE));
            pct_removed(before, count(lab.counted(at, build)))
        }
        (Col::Remaining(build), _) => {
            let after = lab.counted(at, build).mults;
            100.0 * after / lab.counted(at, BASELINE).mults
        }
        (Col::Model(strategy), Program::Fir(taps)) => {
            let (model, node) = (CostModel::default(), LinearNode::fir(&vec![1.0; taps]));
            let direct = model.direct_total(&node, 1.0);
            strategy.map_or(direct, |s| model.freq_total(&node, 1.0, s))
        }
        (Col::FftFactor(n), Program::Fir(taps)) => {
            fft_factor(FFT_STRATEGIES[row / FFT_TAPS.len()].1, taps, n)
        }
        (Col::Speedup(how), _) => lab.speedup(at, how, run),
        (Col::Gain(a, b), _) => lab.speedup(at, a, run) - lab.speedup(at, b, run),
        _ => panic!("{}: a column its row's program cannot have", fig.id),
    }
}

/// Smallest and largest of `values`.
fn range(values: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let low = values.clone().fold(f64::INFINITY, f64::min);
    (low, values.fold(f64::NEG_INFINITY, f64::max))
}

/// Table 5-2's "average vector size": the mean matrix extent (peek × push
/// entries) over the linear filters.
fn avg_vec_size(_: &GraphStats, analysis: &LinearAnalysis, _: &OptStats) -> f64 {
    let extents = analysis.nodes.values().map(|n| n.peek() * n.push().max(1));
    extents.map(|e| e as f64).sum::<f64>() / analysis.nodes.len().max(1) as f64
}

const SCALING_TAPS: [usize; 12] = [1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128];
const REDUND_TAPS: [usize; 14] = [3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 95, 96, 127, 128];
const FFT_TAPS: [usize; 5] = [16, 32, 64, 128, 256];
const FFT_SIZES: [&str; 6] = ["64", "128", "256", "512", "1024", "2048"];
const FFT_STRATEGIES: [(&str, Option<(FreqStrategy, FftKind)>); 4] = [
    ("theoretical", None),
    ("naive, simple FFT", Some((Naive, Simple))),
    ("optimized, simple FFT", Some((Optimized, Simple))),
    ("optimized, tuned FFT", Some((Optimized, Tuned))),
];

/// Every table and figure of Chapter 5 the repository reproduces, one
/// entry per study, in the order the report prints them.
pub fn figures(lab: &mut Lab) -> Vec<Figure> {
    use Col::*;
    let mut name = |p| lab.program(p).0.name().to_string();
    let nine = (0..9).map(Program::Suite);
    let suite: Vec<(String, Program)> = nine.map(|p| (name(p), p)).collect();
    let suite = || ("benchmark", suite.clone());
    let sized = |taps: &usize| (taps.to_string(), Program::Fir(*taps));
    let firs = |taps: &[usize]| ("taps", taps.iter().map(sized).collect());
    let beams = |ch| [1, 2, 4, 8].map(|b| (format!("{ch} × {b}"), Program::Radar(ch, b)));
    let radars = [4, 8, 12].into_iter().flat_map(beams).collect();
    let sizes = |(s, _): &(&str, _)| FFT_TAPS.map(|t| (format!("{s}: {t}"), Program::Fir(t)));
    let fft_rows = FFT_STRATEGIES.iter().flat_map(sizes).collect();
    let fft_column = |n: &'static str| (n, FftFactor(n.parse().expect("a number")));
    let (direct, atlas) = ((LINEAR, Unrolled), (LINEAR, Blocked));
    let (freq, freq_nc) = ((FREQ, Unrolled), (Build::FreqNoCombine, Unrolled));
    vec![
        Figure {
            id: "Table 5-2",
            title: "benchmark characteristics before and after automatic selection",
            rows: suite(),
            exact: vec![
                ("filters", Stat(|g, _, _| g.filters as f64)),
                ("linear", Stat(|_, a, _| a.linear_count() as f64)),
                ("pipelines", Stat(|g, _, _| g.pipelines as f64)),
                ("splitjoins", Stat(|g, _, _| g.splitjoins as f64)),
                ("avg vec size", Stat(avg_vec_size)),
                ("after: filters", Stat(|_, _, o| o.filters as f64)),
                ("after: pipelines", Stat(|_, _, o| o.pipelines as f64)),
                ("after: splitjoins", Stat(|_, _, o| o.splitjoins as f64)),
            ],
            ..Figure::default()
        },
        Figure {
            id: "Figures 5-1, 5-2 and 5-3",
            title: "% of FLOPs (5-1) and of multiplications (5-2) removed; speedup % (5-3)",
            claim: "autosel removes 86 % of FLOPs on average (abstract, §5.2); speedup \
                    averages 450 %, best case 800 % (abstract)",
            rows: suite(),
            exact: vec![
                ("5-1 linear", Removed(FLOPS, LINEAR)),
                ("5-1 freq", Removed(FLOPS, FREQ)),
                ("5-1 autosel", Removed(FLOPS, AUTOSEL)),
                ("5-2 linear", Removed(MULTS, LINEAR)),
                ("5-2 freq", Removed(MULTS, FREQ)),
                ("5-2 autosel", Removed(MULTS, AUTOSEL)),
            ],
            timing: vec![
                ("linear", Speedup(direct)),
                ("freq", Speedup(freq)),
                ("autosel", Speedup((AUTOSEL, Unrolled))),
            ],
            average: true,
            verdict: Some(|g| {
                let (avg, off) = (g[9][2], g[9][2] - 86.0);
                let wins = g[..9].iter().filter(|r| r[2] >= r[0].max(r[1])).count();
                let found = format!("paper 86 %, measured {avg:.1} % ({off:+.1} points)");
                let wins = format!("autosel ≥ max(linear, freq) on {wins} of 9");
                (off.abs() <= 5.0, format!("{found}; {wins}"))
            }),
            ..Figure::default()
        },
        Figure {
            id: "Figures 5-4 and 5-5",
            title: "multiplications removed and speedup, with and without combination (\"nc\")",
            rows: suite(),
            exact: vec![
                ("mult% linear", Removed(MULTS, LINEAR)),
                ("mult% freq(nc)", Removed(MULTS, Build::FreqNoCombine)),
                ("mult% freq", Removed(MULTS, FREQ)),
            ],
            timing: vec![
                ("linear", Speedup(direct)),
                ("freq(nc)", Speedup(freq_nc)),
                ("freq", Speedup(freq)),
                ("5-5: freq − freq(nc)", Gain(freq, freq_nc)),
            ],
            ..Figure::default()
        },
        Figure {
            id: "Figure 5-6",
            title: "linear replacement speedup %: unrolled code against the ATLAS substitute",
            claim: "ATLAS varies from -36 % to +58 % vs the direct code (§5.2)",
            rows: suite(),
            timing: vec![
                ("direct", Speedup(direct)),
                ("atlas", Speedup(atlas)),
                ("atlas − direct", Gain(atlas, direct)),
            ],
            ..Figure::default()
        },
        Figure {
            id: "Figures 5-8 and 5-9",
            title:
                "FIR scaling under frequency replacement, and §4.3.3's cost model (4096 outputs)",
            claim: "reduction approaches the lg(N)/N theoretical curve; speedup grows ~linearly",
            rows: firs(&SCALING_TAPS),
            n: 4096,
            exact: vec![
                ("mults/out base", PerOutput(MULTS, BASELINE)),
                ("mults/out freq", PerOutput(MULTS, FREQ)),
                ("mult% removed", Removed(MULTS, FREQ)),
                ("model direct", Model(None)),
                ("model freq", Model(Some(Optimized))),
            ],
            timing: vec![("speedup%", Speedup(freq))],
            verdict: Some(|g| {
                let (direct, freq) = (g[11][0] / g[0][0], g[11][1] / g[0][1]);
                let grows = format!("direct cost grows {direct:.0}×, frequency cost {freq:.2}×");
                let fewer = format!("{:.1} % fewer multiplications at 128 taps", g[11][2]);
                let found = format!("from 1 to 128 taps the {grows} (lg 128 = 7); {fewer}");
                (g[11][2] > 0.0 && freq < direct.log2(), found)
            }),
            ..Figure::default()
        },
        Figure {
            id: "Figure 5-10",
            title: "redundancy elimination on FIR (2048 outputs)",
            claim: "~50 %+ of multiplications removed (even sizes reuse everything, odd sizes \
                    keep the center tap), but caching overhead makes it *slower* (§5.6)",
            rows: firs(&REDUND_TAPS),
            n: 2048,
            exact: vec![("mults% remaining", Remaining(REDUND))],
            timing: vec![("speedup%", Speedup((REDUND, Unrolled)))],
            verdict: Some(|g| {
                let (removed, off) = (100.0 - g[13][0], 50.0 - g[13][0]);
                let zigzag = g.chunks(2).filter(|pair| pair[1][0] < pair[0][0]).count();
                let found = format!("{removed:.1} % removed at 128 taps ({off:+.1} points)");
                let pairs = "an even size keeps less than the odd one before it";
                let found = format!("{found}; {pairs} on {zigzag} of 7 pairs");
                (removed >= 50.0, found)
            }),
            ..Figure::default()
        },
        Figure {
            id: "Figure 5-11",
            title: "Radar: % of multiplications removed by linear replacement (128 outputs)",
            claim: "linear replacement degrades as the problem grows, and growing the number \
                    of beams hurts much more than growing the channels (§5.7)",
            rows: ("channels × beams", radars),
            n: 128,
            exact: vec![("mult% removed", Removed(MULTS, LINEAR))],
            verdict: Some(|g| {
                let beams = range((0..3).map(|ch| g[4 * ch][0] - g[4 * ch + 3][0]));
                let channels = range((0..4).map(|b| g[b][0] - g[8 + b][0]));
                let lost = format!("1 → 8 beams loses {:.1} to {:.1} points", beams.0, beams.1);
                let less = format!("4 → 12 channels {:.1} to {:.1}", channels.0, channels.1);
                let ok = channels.0 > 0.0 && beams.0 > channels.1;
                (ok, format!("{lost}, {less}"))
            }),
            ..Figure::default()
        },
        Figure {
            id: "Figure 5-12",
            title: "multiplication reduction factor by strategy and FIR size, at FFT size N",
            claim: "optimized beats naive by ~1.5x; FFTW adds another large factor (§5.8)",
            rows: ("strategy: taps \\ N", fft_rows),
            exact: FFT_SIZES.map(fft_column).to_vec(),
            verdict: Some(|g| {
                // A block advances m = N − 2e + 1 inputs naively and m + e − 1
                // optimized: 1.5× at N = 4e (3e against 2e + 1), tending to 1
                // as N grows. Column t is N = 4e for the t-th FIR size.
                let at_4e = range((0..5).map(|t| g[10 + t][t] / g[5 + t][t]));
                // Each FIR size at its best N, one strategy against the one before it.
                let best = |row: usize| g[row].iter().copied().fold(f64::NAN, f64::max);
                let gain = |s: usize| range((0..5).map(move |t| best(s + t) / best(s - 5 + t)));
                let (optimized, tuned) = (gain(10), gain(15));
                let first = format!("optimized/naive {:.2}× to {:.2}×", at_4e.0, at_4e.1);
                let second = format!("optimized/naive {:.2}× to {:.2}×", optimized.0, optimized.1);
                let third = format!("tuned/simple FFT {:.2}× to {:.2}×", tuned.0, tuned.1);
                let found = format!(
                    "at N = 4e (four times the FIR size), {first}. \
                     With each FIR size at its best N, {second}, {third}"
                );
                (at_4e.0 >= 1.4 && tuned.0 >= 2.0, found)
            }),
            ..Figure::default()
        },
    ]
}

/// A Markdown pipe table padded so that its columns also line up as plain
/// text: labels to the left, numbers to the right.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let width = |c: usize| {
        let cells = rows.iter().map(|r| &r[c]).chain([&header[c]]);
        cells.map(|s| s.chars().count()).fold(3, usize::max)
    };
    let widths: Vec<usize> = (0..header.len()).map(width).collect();
    let line = |cells: &[String]| {
        let pad = |(c, (s, &w)): (usize, (&String, &usize))| match c {
            0 => format!("{s:<w$}"),
            _ => format!("{s:>w$}"),
        };
        let padded: Vec<String> = cells.iter().zip(&widths).enumerate().map(pad).collect();
        format!("| {} |\n", padded.join(" | "))
    };
    let dashes = |(c, &w): (usize, &usize)| match c {
        0 => format!(":{}", "-".repeat(w - 1)),
        _ => format!("{}:", "-".repeat(w - 1)),
    };
    let rule: Vec<String> = widths.iter().enumerate().map(dashes).collect();
    let body: String = rows.iter().map(|r| line(r)).collect();
    line(header) + &line(&rule) + &body
}

/// One run's view of a figure's columns: row-major, the `AVERAGE` row last.
fn grid(lab: &mut Lab, fig: &Figure, columns: &[(&str, Col)], run: usize) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for row in 0..fig.rows.1.len() {
        let values = columns.iter().map(|c| value(lab, fig, row, c.1, run));
        rows.push(values.collect());
    }
    if fig.average {
        let mean = |c: usize| rows.iter().map(|r| r[c]).sum::<f64>() / rows.len() as f64;
        let average = (0..columns.len()).map(mean).collect();
        rows.push(average);
    }
    rows
}

/// Writes one half of a figure: its exact columns evaluated once, or its
/// timed columns [`RUNS`] times; then the paper's claim and, in the exact
/// half, the computed verdict.
fn write_figure(lab: &mut Lab, fig: &Figure, timed: bool, out: &mut impl Write) -> io::Result<()> {
    let (columns, runs) = match timed {
        true => (&fig.timing, RUNS),
        false => (&fig.exact, 1),
    };
    if columns.is_empty() {
        return Ok(());
    }
    let grids: Vec<_> = (0..runs).map(|run| grid(lab, fig, columns, run)).collect();
    let labels = fig.rows.1.iter().map(|(label, _)| label.as_str());
    let mut text = Vec::new();
    for (r, label) in labels.chain(fig.average.then_some("AVERAGE")).enumerate() {
        let mut line = vec![label.to_string()];
        for (c, (_, col)) in columns.iter().enumerate() {
            let mut v: Vec<f64> = grids.iter().map(|g| g[r][c]).collect();
            v.sort_by(f64::total_cmp);
            let show = |v: f64| match (v.is_nan(), col) {
                (true, _) => "-".to_string(),
                (_, Col::Stat(_)) => format!("{v:.0}"),
                (_, Col::Model(_) | Col::FftFactor(_)) => format!("{v:.2}"),
                _ => format!("{v:.1}"),
            };
            let (q1, median, q3) = (show(v[runs / 4]), show(v[runs / 2]), show(v[3 * runs / 4]));
            line.push(match timed {
                true => format!("{median} [{q1}, {q3}]"),
                false => median,
            });
        }
        text.push(line);
    }
    let header = [fig.rows.0].into_iter().chain(columns.iter().map(|c| c.0));
    let table = render_table(&header.map(String::from).collect::<Vec<_>>(), &text);
    let claim = match fig.claim {
        "" => "none carried over (the deleted binary quoted none; `PAPER.md` is a title)",
        claim => claim,
    };
    let (id, title) = (fig.id, fig.title);
    writeln!(out, "### {id}: {title}\n\n{table}\n- Paper: {claim}.")?;
    if !timed {
        let verdict = match fig.verdict.map(|verdict| verdict(&grids[0])) {
            None => "nothing to compare".to_string(),
            Some((true, found)) => format!("**reproduces**: {found}"),
            Some((false, found)) => format!("**does not reproduce**: {found}"),
        };
        writeln!(out, "- Verdict: {verdict}.")?;
    }
    writeln!(out)
}

/// The node kinds [`write_attribution`] splits a plan's work by.
const KINDS: [&str; 5] = ["interp", "linear", "freq", "redund", "plumbing"];

fn kind_index(kind: &NodeKind) -> usize {
    match kind {
        NodeKind::Interp(_) => 0,
        NodeKind::Linear(_) => 1,
        NodeKind::Freq(_) => 2,
        NodeKind::Redund(_) => 3,
        _ => 4,
    }
}

/// Where the FLOPs autosel leaves are: each suite program's row of
/// [`Lab::attributed`] under the kinds' header.
fn write_attribution(lab: &mut Lab, out: &mut impl Write) -> io::Result<()> {
    let rows: Vec<Vec<String>> = (0..9).map(|i| lab.attributed(Program::Suite(i))).collect();
    let header = ["benchmark"]
        .into_iter()
        .chain(KINDS)
        .chain(["total", "largest node", "its %"]);
    let table = render_table(&header.map(String::from).collect::<Vec<_>>(), &rows);
    writeln!(
        out,
        "### Figure 5-1, attributed: autosel FLOPs per output by node kind\n\n{table}\n\
         - Paper: none (the split is this repository's, to give every point of \
         5-1's gap an owner).\n- Verdict: nothing to compare.\n"
    )
}

/// Writes the exact half: everything above [`MARKER`].
pub fn write_exact(lab: &mut Lab, out: &mut impl Write) -> io::Result<()> {
    out.write_all(include_str!("paper_preamble.md").as_bytes())?;
    for fig in figures(lab) {
        write_figure(lab, &fig, false, out)?;
    }
    write_attribution(lab, out)?;
    let (reads, runs, programs) = (lab.reads, lab.runs, lab.programs.len());
    let served = format!("{runs} runs over {programs} programs, each analysed once, served them");
    writeln!(out, "The tables above read {reads} cells; {served}.\n")
}

/// Writes the timing half: everything below [`MARKER`].
pub fn write_timing(lab: &mut Lab, out: &mut impl Write) -> io::Result<()> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo.lines().find(|l| l.starts_with("model name"));
    let cpu = cpu
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let rustc = Command::new("rustc").arg("--version").output();
    let rustc = rustc.map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let rustc = rustc.unwrap_or_else(|_| "unknown".to_string());
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.write_all(include_str!("paper_timing.md").as_bytes())?;
    writeln!(
        out,
        "- host CPU: {cpu}\n- `host_cpus`: {cpus}\n- rustc: {rustc}\n"
    )?;
    // Round by round over every timed cell of every figure before any is
    // printed, so that a drifting host moves all the cells of a round alike.
    let figures = figures(lab);
    for run in 0..RUNS {
        for fig in &figures {
            grid(lab, fig, &fig.timing, run);
        }
    }
    for fig in &figures {
        write_figure(lab, fig, true, out)?;
    }
    Ok(())
}
