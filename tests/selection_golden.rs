//! Golden transcripts of linear extraction and optimization selection.
//!
//! `tests/golden/selection.txt` was generated on the commit *before* the
//! in-place extraction arithmetic and the bottom-up selection DP landed.
//! For the nine benchmarks and `fir(1024)` it records the structure
//! selection chose, its statistics, the bit pattern of its estimated cost,
//! and a hash over the bit patterns of every extracted linear node and of
//! every collapsed node in the chosen structure — so neither pass can
//! change a decision or a coefficient silently. Never regenerate it to make
//! a change pass; on a mismatch the actual transcript is written next to
//! the test binary's temp dir for diffing.
//!
//! `tests/golden/extraction.txt` pins extraction itself, filter by filter:
//! generated on the commit *before* the extractor moved from the surface
//! AST onto the slot IR, one line per filter instance with both verdicts
//! (`extract` and `extract_stateful`), coefficients hashed bit for bit.
//!
//! `tests/golden/steady.txt` pins the balance equations: generated by the
//! hierarchical solver `graph::steady` had before it became an edge list
//! handed to the flat solver, one line per filter instance with its
//! repetition count, and the whole stream's I/O per steady cycle, for the
//! nine benchmarks at their default sizes and `fir(1024)`, then FIR and
//! Radar at the equivalence matrix's sizes (the other seven are the same
//! programs at both).
//!
//! `tests/golden/plans.txt` pins the schedule compiler: generated on the
//! commit before feedback loops got static plans, one line per benchmark ×
//! configuration with the lengths of the plan's `init`, `steady` and
//! `cycle` step lists, its buffer slots, its prints per cycle and a hash of
//! each step list. DToA's lines were `none` there; they are the only lines
//! that changed when its loop was planned. The multi-cycle pass moved
//! `slots=` alone, on the 21 lines whose plan runs more than one cycle a
//! pass (every `baseline`, `linear` and `redund` line but Radar's and
//! DToA's): its high-water marks are part of the capacities.

use streamlin::benchmarks::{self, Benchmark};
use streamlin::core::cost::CostModel;
use streamlin::core::extract::extract;
use streamlin::core::select::{select, SelectOptions};
use streamlin::core::state_space::extract_stateful;
use streamlin::core::{analyze_graph, Config, LinearNode, OptStream};
use streamlin::graph::steady::steady_state;
use streamlin::runtime::flat::flatten;
use streamlin::runtime::plan::{self, Step};
use streamlin::runtime::MatMulStrategy;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn node(&mut self, n: &LinearNode) {
        for dim in [n.peek(), n.pop(), n.push()] {
            self.word(dim as u64);
        }
        for v in n.a().as_slice().iter().chain(n.b().as_slice()) {
            self.word(v.to_bits());
        }
    }
}

/// Hashes the collapsed nodes of a chosen structure, in tree order.
fn hash_chosen(opt: &OptStream, h: &mut Fnv) {
    match opt {
        OptStream::Linear(n) => h.node(n),
        OptStream::Freq(s) => h.node(s.node()),
        OptStream::Redund(r) => h.node(r.node()),
        OptStream::Original(_) => {}
        OptStream::Pipeline(children) | OptStream::SplitJoin { children, .. } => {
            children.iter().for_each(|c| hash_chosen(c, h));
        }
        OptStream::FeedbackLoop {
            body, loop_stream, ..
        } => {
            hash_chosen(body, h);
            hash_chosen(loop_stream, h);
        }
    }
}

fn transcript_of(bench: &Benchmark) -> String {
    let analysis = analyze_graph(bench.graph());
    let mut ids: Vec<&usize> = analysis.nodes.keys().collect();
    ids.sort();
    let mut extracted = Fnv::new();
    for id in &ids {
        extracted.word(**id as u64);
        extracted.node(&analysis.nodes[*id]);
    }
    let sel = select(
        bench.graph(),
        &analysis,
        &CostModel::default(),
        &SelectOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
    let mut chosen = Fnv::new();
    hash_chosen(&sel.opt, &mut chosen);
    format!(
        "== {}\nlinear filters: {} extracted={:016x}\nstructure: {}\nstats: {:?}\ncost: {:016x}\nchosen nodes: {:016x}\n",
        bench.name(),
        ids.len(),
        extracted.0,
        sel.opt.describe(),
        sel.opt.stats(),
        sel.cost.to_bits(),
        chosen.0,
    )
}

/// One line per filter instance: the `extract` verdict, then the
/// `extract_stateful` verdict (its node hashed through `Debug`, which
/// prints every matrix entry in shortest round-trip form).
fn extraction_of(bench: &Benchmark) -> String {
    let mut out = String::new();
    bench.graph().for_each_filter(&mut |inst| {
        let stateless = match extract(inst) {
            Ok(n) => {
                let mut h = Fnv::new();
                h.node(&n);
                format!(
                    "linear {}/{}/{} nnz={} fnv64={:016x}",
                    n.peek(),
                    n.pop(),
                    n.push(),
                    n.nnz_a() + n.nnz_b(),
                    h.0
                )
            }
            Err(e) => format!("nonlinear: {e}"),
        };
        let stateful = match extract_stateful(inst) {
            Ok(n) => {
                let mut h = Fnv::new();
                format!("{n:?}").bytes().for_each(|b| h.word(u64::from(b)));
                format!("dim={} fnv64={:016x}", n.state_dim(), h.0)
            }
            Err(e) => e.to_string(),
        };
        out.push_str(&format!(
            "{} · {} · {stateless} · stateful: {stateful}\n",
            bench.name(),
            inst.name
        ));
    });
    out
}

/// The whole stream's I/O per steady cycle, then one line per filter
/// instance: its id, its name and its firings per steady cycle.
fn repetitions_of(label: &str, bench: &Benchmark) -> String {
    let steady = steady_state(bench.graph()).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(steady.reps.len(), bench.graph().filter_count(), "{label}");
    let mut out = format!(
        "== {label}\nio: pop={} push={}\n",
        steady.io.pop, steady.io.push
    );
    bench.graph().for_each_filter(&mut |inst| {
        let reps = steady.reps[&inst.id];
        out.push_str(&format!("{} · {} · reps={reps}\n", inst.id, inst.name));
    });
    out
}

/// FNV-1a over a step list's `(node, times)` pairs.
fn hash_steps(steps: &[Step]) -> u64 {
    let mut h = Fnv::new();
    for step in steps {
        h.word(step.node as u64);
        h.word(u64::from(step.times));
    }
    h.0
}

/// One line per configuration: the plan's shape and step-list hashes, or
/// `none` where the schedule compiler refuses the graph.
fn plans_of(bench: &Benchmark) -> String {
    let analysis = analyze_graph(bench.graph());
    let mut out = String::new();
    for config in Config::ALL {
        let opt = config.apply(bench.graph(), &analysis);
        let opt = opt.unwrap_or_else(|e| panic!("{} {}: {e}", bench.name(), config.label()));
        let flat = flatten(&opt, MatMulStrategy::Unrolled).expect("benchmarks flatten");
        let line = match plan::compile(&flat) {
            Ok(p) => {
                // The stepped order unrolled: what runs, however it is held.
                let steady: Vec<Step> = p.stepped().collect();
                format!(
                    "init={} steady={} cycle={} slots={} prints={:?} fnv64={:016x}/{:016x}/{:016x}",
                    p.init.len(),
                    steady.len(),
                    p.cycle.len(),
                    p.buffer_slots(),
                    p.prints_per_cycle,
                    hash_steps(&p.init),
                    hash_steps(&steady),
                    hash_steps(&p.cycle),
                )
            }
            Err(_) => "none".into(),
        };
        out.push_str(&format!("{} · {} · {line}\n", bench.name(), config.label()));
    }
    out
}

/// The nine benchmarks plus `fir(1024)`.
fn benches() -> Vec<Benchmark> {
    let mut benches = benchmarks::all_default();
    benches.push(benchmarks::fir(1024));
    benches
}

/// Compares `actual` with the checked-in golden; on a mismatch writes the
/// actual transcript to the test temp dir and names the first bad line.
fn assert_golden(name: &str, actual: &str, golden: &str) {
    if actual != golden {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
        std::fs::write(&path, actual).expect("write actual transcript");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "{name} transcript differs from tests/golden/{name}.txt at line {}; \
             actual written to {}",
            line + 1,
            path.display()
        );
    }
}

#[test]
fn selection_matches_the_parent_commit_golden() {
    let actual: String = benches().iter().map(transcript_of).collect();
    assert_golden("selection", &actual, include_str!("golden/selection.txt"));
}

#[test]
fn extraction_matches_the_parent_commit_golden() {
    let actual: String = benches().iter().map(extraction_of).collect();
    assert_golden("extraction", &actual, include_str!("golden/extraction.txt"));
}

#[test]
fn repetitions_match_the_parent_commit_golden() {
    let mut actual: String = benchmarks::all_default()
        .iter()
        .map(|b| repetitions_of(b.name(), b))
        .collect();
    for (label, bench) in [
        ("FIR at fir(1024)", benchmarks::fir(1024)),
        ("FIR at fir(64)", benchmarks::fir(64)),
        ("Radar at radar(2, 2)", benchmarks::radar(2, 2)),
    ] {
        actual.push_str(&repetitions_of(label, &bench));
    }
    assert_golden("steady", &actual, include_str!("golden/steady.txt"));
}

#[test]
fn plans_match_the_parent_commit_golden() {
    let actual: String = benchmarks::all_default().iter().map(plans_of).collect();
    assert_golden("plans", &actual, include_str!("golden/plans.txt"));
}
