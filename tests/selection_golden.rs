//! Golden transcript of linear extraction and optimization selection.
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

use streamlin::benchmarks::{self, Benchmark};
use streamlin::core::cost::CostModel;
use streamlin::core::select::{select, SelectOptions};
use streamlin::core::{analyze_graph, LinearNode, OptStream};

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

#[test]
fn selection_matches_the_parent_commit_golden() {
    let mut benches = benchmarks::all_default();
    benches.push(benchmarks::fir(1024));
    let actual: String = benches.iter().map(transcript_of).collect();
    let golden = include_str!("golden/selection.txt");
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("selection.actual.txt");
        std::fs::write(&path, &actual).expect("write actual transcript");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "selection transcript differs from tests/golden/selection.txt at line {}; \
             actual written to {}",
            line + 1,
            path.display()
        );
    }
}
