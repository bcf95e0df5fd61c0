//! Differential suite: the bytecode tier ([`streamlin::graph::bytecode`])
//! against the reference semantics, the abstract walker under its concrete
//! domain ([`streamlin::graph::absint::exec`]): the walk every certificate
//! and every extracted node is computed on, run at the identity
//! abstraction.
//!
//! For **every filter instance of all nine benchmarks**, both tiers
//! execute the same firing sequence over the same synthetic tape; pushed
//! values, printed values, pop counts, the four floating-point operation
//! tallies and the final persistent state must agree exactly — the
//! compiled form of every work phase, fused dot-product loops included.
//! The two are written independently, so a drift of the walker's skeleton
//! from execution fails here instead of shipping a certificate. A run with
//! counting hooks disabled (the `Fast`-mode analogue: identical code, the
//! tally is a no-op) must produce bit-identical values on each tier, and a
//! program-level check pins `Measured` vs `Fast` outputs across the full
//! engines.
//!
//! The analyses bind as variables only the fields a phase can write, as
//! the lowerer recorded them (`LoweredWork::fx`), and read every other
//! field in place. So the recorded write sets are checked against
//! execution too: every field whose cell the firings changed is written by
//! some phase.
//!
//! Filter **`init` blocks** run on the bytecode tier at elaboration
//! ([`streamlin::graph::elaborate::run_init`]); the reference walk is their
//! reference too: same post-`init` cells for every filter of the nine
//! benchmarks, same message text for every way an `init` can fail.

use std::collections::HashMap;

use streamlin::benchmarks::Benchmark;
use streamlin::core::opt::OptStream;
use streamlin::graph::absint;
use streamlin::graph::analyze::Plumbing;
use streamlin::graph::elaborate::{elaborate, run_init};
use streamlin::graph::exec::{Flow, Host, PureHost, DEFAULT_FUEL};
use streamlin::graph::ir::FilterInst;
use streamlin::graph::lower::{const_eval_expr, lower_filter, LoweredWork, Slot, SlotStore};
use streamlin::graph::value::{Cell, EvalError, Value};
use streamlin::lang::ast::{Block, DataType, FilterDecl, StreamKind};
use streamlin::runtime::flat::NodeKind;
use streamlin::runtime::MatMulStrategy;
use streamlin::runtime::{ExecMode, RunSpec, Tier};

/// Fuel per firing, matching the runtime engine's budget.
const FIRING_FUEL: u64 = 50_000_000;

/// Firings per filter (the first may be an `initWork` phase).
const FIRINGS: usize = 3;

/// Test host over a synthetic tape: counts operations when `count` is
/// set, mirroring the runtime's `Measured`/`Fast` split.
#[derive(Default)]
struct TapeHost {
    input: Vec<f64>,
    cursor: usize,
    pushed: Vec<f64>,
    printed: Vec<f64>,
    count: bool,
    adds: u64,
    muls: u64,
    divs: u64,
    others: u64,
}

impl Host for TapeHost {
    fn peek(&mut self, i: usize) -> Result<f64, EvalError> {
        self.input
            .get(self.cursor + i)
            .copied()
            .ok_or_else(|| EvalError::new("peek past end of test tape"))
    }
    fn pop(&mut self) -> Result<f64, EvalError> {
        let v = self.peek(0)?;
        self.cursor += 1;
        Ok(v)
    }
    fn push(&mut self, v: f64) -> Result<(), EvalError> {
        self.pushed.push(v);
        Ok(())
    }
    fn print(&mut self, v: Value, _newline: bool) -> Result<(), EvalError> {
        self.printed.push(v.as_f64()?);
        Ok(())
    }
    fn count_add(&mut self) {
        self.adds += self.count as u64;
    }
    fn count_mul(&mut self) {
        self.muls += self.count as u64;
    }
    fn count_div(&mut self) {
        self.divs += self.count as u64;
    }
    fn count_other(&mut self) {
        self.others += self.count as u64;
    }
}

/// A deterministic, nonzero, sign-varying tape.
fn tape(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 37 + 11) % 97) as f64 / 13.0 - 3.5)
        .collect()
}

/// Tape length covering `FIRINGS` firings of the filter.
fn tape_len(inst: &FilterInst) -> usize {
    let init = inst.init_work.as_ref().unwrap_or(&inst.work);
    let pops = init.pop + (FIRINGS - 1) * inst.work.pop;
    pops + init.peek.max(inst.work.peek) + 4
}

struct RunResult {
    pushed: Vec<f64>,
    printed: Vec<f64>,
    popped: usize,
    tallies: [u64; 4],
    /// Final persistent state, name → cell.
    state: HashMap<String, Cell>,
}

/// Runs `firings` firings of `inst` over `input`, each through `fire`.
fn run_firings(
    inst: &FilterInst,
    input: &[f64],
    count: bool,
    tier: &str,
    firings: usize,
    fire: impl Fn(&LoweredWork, &mut SlotStore<'_>, &mut TapeHost) -> Result<Flow, EvalError>,
) -> RunResult {
    let lowered = &inst.lowered;
    let mut globals: Vec<Cell> = lowered
        .globals
        .iter()
        .map(|n| inst.state[n].clone())
        .collect();
    let mut frame = vec![Cell::Scalar(DataType::Int, Value::Int(0)); lowered.frame_slots()];
    let mut host = TapeHost {
        input: input.to_vec(),
        count,
        ..TapeHost::default()
    };
    for k in 0..firings {
        let code = match (&lowered.init_work, k) {
            (Some(iw), 0) => iw,
            _ => &lowered.work,
        };
        let mut store = SlotStore {
            globals: &mut globals,
            frame: &mut frame,
        };
        fire(code, &mut store, &mut host)
            .unwrap_or_else(|e| panic!("{} ({tier}): {}", inst.name, e.message));
    }
    let state = lowered.globals.iter().cloned().zip(globals).collect();
    RunResult {
        popped: host.cursor,
        pushed: host.pushed,
        printed: host.printed,
        tallies: [host.adds, host.muls, host.divs, host.others],
        state,
    }
}

/// One firing of a phase on the reference walk.
fn walk_firing(
    code: &LoweredWork,
    store: &mut SlotStore<'_>,
    host: &mut TapeHost,
) -> Result<Flow, EvalError> {
    absint::exec(&code.body, store, host, FIRING_FUEL)
}

/// Runs `FIRINGS` firings through the reference walk.
fn run_reference(inst: &FilterInst, input: &[f64], count: bool) -> RunResult {
    run_firings(inst, input, count, "reference", FIRINGS, walk_firing)
}

/// Runs `FIRINGS` firings through the compiled bytecode tier.
fn run_bytecode(inst: &FilterInst, input: &[f64], count: bool) -> RunResult {
    run_firings(
        inst,
        input,
        count,
        "bytecode",
        FIRINGS,
        |code, store, host| streamlin::graph::bytecode::exec(&code.code, store, host, FIRING_FUEL),
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check_benchmark(bench: &Benchmark) {
    let mut filters = Vec::new();
    bench
        .graph()
        .for_each_filter(&mut |f| filters.push(f.clone()));
    assert!(!filters.is_empty());
    for inst in &filters {
        let input = tape(tape_len(inst));
        let walk_counted = run_reference(inst, &input, true);
        let walk_uncounted = run_reference(inst, &input, false);

        let ctx = format!("{} :: {}", bench.name(), inst.name);
        // The write sets the lowerer recorded are sound: every field the
        // firings changed is written by some phase.
        for (name, g) in inst.lowered.globals.iter().zip(0u32..) {
            assert!(
                walk_counted.state[name] == inst.state[name]
                    || inst.lowered.may_write(Slot::Global(g)),
                "{ctx}: field `{name}` changed but no phase records a write to it"
            );
        }
        // Disabling the counting hooks (the Fast-mode analogue)
        // changes nothing about the values.
        assert_eq!(
            bits(&walk_counted.pushed),
            bits(&walk_uncounted.pushed),
            "{ctx}: counting changed pushed values"
        );
        assert_eq!(
            bits(&walk_counted.printed),
            bits(&walk_uncounted.printed),
            "{ctx}: counting changed printed values"
        );
        assert_eq!(
            walk_uncounted.tallies,
            [0, 0, 0, 0],
            "{ctx}: no-count tallied"
        );

        // The bytecode tier agrees with the reference walk on every
        // dimension, the four tallies included, in both tally
        // monomorphizations.
        let byte_counted = run_bytecode(inst, &input, true);
        let byte_uncounted = run_bytecode(inst, &input, false);
        assert_eq!(
            bits(&byte_counted.pushed),
            bits(&walk_counted.pushed),
            "{ctx}: bytecode pushed values diverge"
        );
        assert_eq!(
            bits(&byte_counted.printed),
            bits(&walk_counted.printed),
            "{ctx}: bytecode printed values diverge"
        );
        assert_eq!(
            byte_counted.popped, walk_counted.popped,
            "{ctx}: bytecode pop counts diverge"
        );
        assert_eq!(
            byte_counted.tallies, walk_counted.tallies,
            "{ctx}: bytecode operation tallies diverge"
        );
        assert_eq!(
            byte_counted.state, walk_counted.state,
            "{ctx}: bytecode final filter state diverges"
        );
        assert_eq!(
            bits(&byte_uncounted.pushed),
            bits(&byte_counted.pushed),
            "{ctx}: counting changed bytecode pushed values"
        );
        assert_eq!(
            byte_uncounted.tallies,
            [0, 0, 0, 0],
            "{ctx}: bytecode no-count tallied"
        );
    }
}

macro_rules! per_filter_differential {
    ($($test:ident => $bench:expr;)*) => {$(
        #[test]
        fn $test() {
            check_benchmark(&$bench);
        }
    )*}
}

per_filter_differential! {
    fir_filters_match => streamlin::benchmarks::fir(256);
    rate_convert_filters_match => streamlin::benchmarks::rate_convert();
    target_detect_filters_match => streamlin::benchmarks::target_detect();
    fm_radio_filters_match => streamlin::benchmarks::fm_radio();
    radar_filters_match => streamlin::benchmarks::radar(4, 4);
    filter_bank_filters_match => streamlin::benchmarks::filter_bank();
    vocoder_filters_match => streamlin::benchmarks::vocoder();
    oversampler_filters_match => streamlin::benchmarks::oversampler();
    dtoa_filters_match => streamlin::benchmarks::dtoa();
}

/// What a differential run cannot see is both tiers being wrong alike, so
/// one filter's three firings are computed by hand: pushed and printed
/// values, pops, the field carried between firings, control flow (`while`,
/// `if`, an early `return`) and the paper's FLOP metric — integer
/// arithmetic is free, an intrinsic is one "other" operation.
#[test]
fn both_tiers_match_a_hand_computed_run() {
    let program = streamlin::lang::parse(
        "float->float filter F {
             float seen;
             work peek 3 pop 1 push 2 {
                 float sum = 0;
                 for (int i = 0; i < 3; i++) sum += (i + 1) * peek(i);
                 push(sum);
                 int n = 0;
                 int acc = 2 * 21 + 7 % 3;
                 while (n < 10) { if (n % 2 == 0) { acc = acc + n; } n++; }
                 push(acc + sqrt(4.0));
                 println(seen++);
                 pop();
                 return;
                 println(99);
             }
         }",
    )
    .unwrap();
    let streamlin::graph::Stream::Filter(inst) =
        streamlin::graph::elaborate::elaborate_named(&program, "F", &[]).unwrap()
    else {
        panic!("F is a filter");
    };
    let input: Vec<f64> = (0..6).map(|i| 10f64.powi(i)).collect();
    for (tier, run) in [
        ("reference", run_reference(&inst, &input, true)),
        ("bytecode", run_bytecode(&inst, &input, true)),
    ] {
        // 1·t[k] + 2·t[k+1] + 3·t[k+2], then 43 + (0+2+4+6+8) + 2.
        assert_eq!(
            run.pushed,
            [321.0, 65.0, 3210.0, 65.0, 32100.0, 65.0],
            "{tier}"
        );
        assert_eq!(run.printed, [0.0, 1.0, 2.0], "{tier}");
        assert_eq!(run.popped, FIRINGS, "{tier}");
        assert_eq!(
            run.state["seen"],
            Cell::Scalar(DataType::Float, Value::Float(3.0)),
            "{tier}"
        );
        // Per firing: 3 multiply-adds, `acc + 2.0`, `seen++`, one `sqrt`.
        assert_eq!(run.tallies, [15, 9, 0, 3], "{tier}: adds/muls/divs/others");
    }
}

/// The parser's nesting budget is what protects every recursive pass
/// behind it — lowering, the abstract walker under both analyses and as
/// the reference tier, the bytecode compiler. The deepest
/// expression it admits must get through all of them on a test thread's
/// 2 MB stack, as built by the dev profile (`opt-level = 1`, so frames
/// are those of a lightly optimised build, not of an unoptimised one).
#[test]
fn the_deepest_admitted_expression_survives_every_pass() {
    // A statement costs four levels, the `push` call and its argument one
    // each.
    let depth = streamlin::lang::parser::MAX_NESTING - 6;
    let nest = format!("{}pop(){}", "(".repeat(depth), ")".repeat(depth));
    let chain = vec!["peek(0)"; depth].join(" + ");
    let src = format!(
        "void->void pipeline Main {{ add S(); add F(); add K(); }}
         void->float filter S {{ float x; work push 1 {{ push(x++); }} }}
         float->float filter F {{ work pop 1 push 2 {{ push({chain}); push({nest}); }} }}
         float->void filter K {{ work pop 1 {{ println(pop()); }} }}"
    );
    let program = streamlin::lang::parse(&src).expect("inside the budget");
    let graph = elaborate(&program).expect("elaborates");
    let analysis = streamlin::core::analyze_graph(&graph);
    assert_eq!(analysis.linear_count(), 1, "F is `[n, 1]·x`");
    let opt = OptStream::from_graph(&graph);
    for tier in [Tier::Bytecode, Tier::TreeWalk] {
        let spec = RunSpec {
            tier,
            ..RunSpec::default()
        };
        let outputs = spec.run(&opt, 4).unwrap().outputs;
        assert_eq!(outputs, [0.0, 0.0, depth as f64, 1.0], "{tier:?}");
    }
}

// ---- `init` blocks ------------------------------------------------------------

/// The cells a filter's `init` starts from, rebuilt the way elaboration
/// builds them: parameters and captured constants as the instance holds
/// them, then each field in declaration order — dimensions evaluated,
/// zero-filled, scalar initializer applied.
fn pre_init_cells(inst: &FilterInst, decl: &FilterDecl) -> HashMap<String, Cell> {
    let mut cells: HashMap<String, Cell> = inst
        .param_names
        .iter()
        .map(|n| (n.clone(), inst.state[n].clone()))
        .collect();
    for field in &decl.fields {
        let dims = field
            .ty
            .dims
            .iter()
            .map(|d| const_eval_expr(&mut cells, d).unwrap().as_index().unwrap())
            .collect();
        let mut cell = Cell::zero_of(field.ty.base, dims);
        if let (Some(init), Cell::Scalar(ty, slot)) = (&field.init, &mut cell) {
            *slot = const_eval_expr(&mut cells, init)
                .unwrap()
                .coerce_to(*ty)
                .unwrap();
        }
        cells.insert(field.name.clone(), cell);
    }
    cells
}

/// Runs an `init` block on the reference walk.
fn reference_init(
    cells: &mut HashMap<String, Cell>,
    init: &Block,
    fuel: u64,
) -> Result<(), EvalError> {
    let lowered = lower_filter(cells, init, None).expect("the block resolves");
    let mut globals: Vec<Cell> = lowered.globals.iter().map(|n| cells[n].clone()).collect();
    let mut frame = vec![Cell::zero_of(DataType::Int, Vec::new()); lowered.frame_slots()];
    let mut store = SlotStore {
        globals: &mut globals,
        frame: &mut frame,
    };
    let run = absint::exec(&lowered.work.body, &mut store, &mut PureHost, fuel);
    cells.extend(lowered.globals.into_iter().zip(globals));
    run.map(|_| ())
}

/// For every filter instance of the nine benchmarks, the cells left by
/// the lowered/bytecode `init` — both re-run here and as elaboration
/// stored them on the instance — equal the reference walk's, cell for
/// cell.
#[test]
fn init_blocks_leave_the_reference_state() {
    let mut with_init = 0;
    for bench in streamlin::benchmarks::all_default() {
        let mut filters = Vec::new();
        bench
            .graph()
            .for_each_filter(&mut |f| filters.push(f.clone()));
        for inst in &filters {
            let ctx = format!("{} :: {}", bench.name(), inst.name);
            let decl = bench
                .program()
                .find(&inst.decl_name)
                .unwrap_or_else(|| panic!("{ctx}: no declaration"));
            let StreamKind::Filter(decl) = &decl.kind else {
                panic!("{ctx}: not a filter declaration");
            };
            let mut reference = pre_init_cells(inst, decl);
            let mut lowered = reference.clone();
            if let Some(init) = &decl.init {
                with_init += 1;
                reference_init(&mut reference, init, DEFAULT_FUEL)
                    .unwrap_or_else(|e| panic!("{ctx} (reference): {}", e.message));
                run_init(&mut lowered, init, DEFAULT_FUEL)
                    .unwrap_or_else(|e| panic!("{ctx} (bytecode): {e}"));
            }
            assert_eq!(lowered, reference, "{ctx}: post-init cells diverge");
            assert_eq!(inst.state, reference, "{ctx}: elaborated state diverges");
        }
    }
    assert!(with_init >= 20, "only {with_init} filters had an `init`");
}

/// Every way an `init` can fail at run time reads the same on both
/// engines, and elaboration reports it as ``while running `init`: …``.
#[test]
fn failing_init_blocks_report_the_reference_message() {
    // (init body, fuel): the last one can only run out of fuel.
    let cases = [
        ("t[4] = 1.0;", DEFAULT_FUEL),
        ("z = 1 / (z - z);", DEFAULT_FUEL),
        ("push(1.0);", DEFAULT_FUEL),
        ("t[0] = peek(0);", DEFAULT_FUEL),
        (
            "for (int i = 0; i < 8; i++) { if (i == 5) { t[i] = 1; } }",
            DEFAULT_FUEL,
        ),
        ("while (z == 0) { t[0] = t[0] + 1; }", 10_000),
    ];
    for (body, fuel) in cases {
        let src = format!(
            "void->void pipeline Main {{ add S(); }}
             void->float filter S {{
                 float[4] t;
                 int z;
                 init {{ {body} }}
                 work push 1 {{ push(t[0] + z); }}
             }}"
        );
        let program = streamlin::lang::parse(&src).unwrap();
        let StreamKind::Filter(decl) = &program.find("S").unwrap().kind else {
            unreachable!()
        };
        let init = decl.init.as_ref().unwrap();
        let mut cells = HashMap::from([
            ("t".to_string(), Cell::zero_of(DataType::Float, vec![4])),
            ("z".to_string(), Cell::zero_of(DataType::Int, vec![])),
        ]);
        let want = reference_init(&mut cells.clone(), init, fuel)
            .expect_err("the reference fails")
            .message;
        let got = run_init(&mut cells, init, fuel).expect_err("the bytecode path fails");
        assert_eq!(
            got.message,
            format!("while running `init`: {want}"),
            "`{body}`"
        );
        if fuel == DEFAULT_FUEL {
            let err = elaborate(&program).expect_err("elaboration fails");
            assert_eq!(err.message, got.message, "`{body}`");
            assert_eq!(err.context, ["Main", "S"], "`{body}`");
        }
    }
}

/// A name error in `init` is caught when the block is lowered, before
/// anything runs, and carries its source position — all of them at once.
#[test]
fn name_errors_in_init_are_spanned_lowering_errors() {
    let program = streamlin::lang::parse(
        "void->void pipeline Main { add S(); }
         void->float filter S {
             float x;
             init {
                 x = nope + 1;
                 x = frob(x);
             }
             work push 1 { push(x); }
         }",
    )
    .unwrap();
    let err = elaborate(&program).expect_err("elaboration fails");
    assert_eq!(
        err.message,
        "in `init`: at 5:18: undefined variable `nope`; at 6:18: unknown function `frob`"
    );
}

/// Program level: the fully interpreted configuration of every benchmark
/// prints bit-identical outputs under `Measured` and `Fast` (same
/// schedule, same typed bytecode, different tally
/// monomorphization) and on both interpreter tiers — each selected by the
/// `tier` field of that run's spec, and confirmed on the built graph.
#[test]
fn interpreted_programs_match_across_modes() {
    for bench in streamlin::benchmarks::all_default() {
        let opt = OptStream::from_graph(bench.graph());
        let n = bench.default_outputs().min(200);
        let run = |mode, tier| {
            let spec = RunSpec {
                mode,
                tier,
                matmul: Some(MatMulStrategy::Unrolled),
                ..RunSpec::default()
            };
            let art = spec.compile(&opt).unwrap();
            for node in &art.flat.nodes {
                if let NodeKind::Interp(state) = &node.kind {
                    assert_eq!(state.use_bytecode, tier == Tier::Bytecode, "{}", node.name);
                }
            }
            spec.run_compiled(art, n)
                .unwrap_or_else(|e| panic!("{} {mode:?} {tier:?}: {e}", bench.name()))
        };
        let measured = run(ExecMode::Measured, Tier::Bytecode);
        let fast = run(ExecMode::Fast, Tier::Bytecode);
        assert_eq!(
            bits(&measured.outputs),
            bits(&fast.outputs),
            "{}: interpreted outputs differ between modes",
            bench.name()
        );
        assert_eq!(fast.ops.flops(), 0, "{}: Fast mode tallied", bench.name());
        assert!(
            measured.ops.flops() > 0,
            "{}: Measured mode tallied nothing",
            bench.name()
        );
        let reference = run(ExecMode::Measured, Tier::TreeWalk);
        assert_eq!(
            bits(&measured.outputs),
            bits(&reference.outputs),
            "{}: interpreted outputs differ between tiers",
            bench.name()
        );
        assert_eq!(
            measured.ops,
            reference.ops,
            "{}: tallies differ between tiers",
            bench.name()
        );
    }
}

/// Every equivalence suite flattens both of its sides, so there a plumbing
/// filter's native node ([`Plumbing`]) is only ever compared with itself.
/// Here each one of the nine benchmarks and FIR1024 is held to the filter
/// it stands for: a source feeds a printing sink for 3·m
/// firings, a sink is fed by a periodic source over the test tape for 64;
/// what the native nodes print must be, bit for bit, what the reference
/// walk pushed or printed, and neither side tallies an operation.
#[test]
fn plumbing_nodes_fire_like_the_filters_they_stand_for() {
    const TAPE: usize = 256;
    let harness = elaborate(
        &streamlin::lang::parse(&format!(
            "void->void pipeline H {{ add Tape(); add Print(); }}
             void->float filter Tape {{
                 float[{TAPE}] t; int i;
                 init {{
                     for (int k = 0; k < {TAPE}; k++) {{
                         float v = (k * 37 + 11) % 97;
                         t[k] = v / 13.0 - 3.5;
                     }}
                 }}
                 work push 1 {{ push(t[i]); i = (i + 1) % {TAPE}; }}
             }}
             float->void filter Print {{ work pop 1 {{ println(pop()); }} }}"
        ))
        .unwrap(),
    )
    .unwrap();
    let mut ends = Vec::new();
    harness.for_each_filter(&mut |f| ends.push(OptStream::Original(f.clone())));
    let [tape_source, printer] = <[OptStream; 2]>::try_from(ends).ok().unwrap();
    let input: Vec<f64> = tape(TAPE).into_iter().cycle().take(64 * TAPE).collect();

    let mut benches = streamlin::benchmarks::all_default();
    benches.push(streamlin::benchmarks::fir(1024));
    let mut checked = 0;
    for bench in &benches {
        let mut filters = Vec::new();
        bench
            .graph()
            .for_each_filter(&mut |f| filters.push(f.clone()));
        for inst in filters {
            let Some(plumbing) = &inst.facts.plumbing else {
                continue;
            };
            let this = OptStream::Original(inst.clone());
            let (firings, program) = match plumbing {
                Plumbing::Periodic { values, .. } => (3 * values.len(), [this, printer.clone()]),
                _ => (64, [tape_source.clone(), this]),
            };
            let walked = run_firings(&inst, &input, true, "reference", firings, walk_firing);
            let spec = RunSpec::default();
            let art = spec.compile(&OptStream::Pipeline(program.into())).unwrap();
            assert!(
                art.flat.nodes.iter().all(|n| n.interp().is_none()),
                "{}",
                inst.name
            );
            let want = match plumbing {
                Plumbing::Periodic { .. } => walked.pushed,
                _ => walked.printed,
            };
            let native = spec.run_compiled(art, want.len()).unwrap();
            let what = format!("{}/{}", bench.name(), inst.name);
            assert_eq!(bits(&native.outputs), bits(&want), "{what}");
            assert_eq!((walked.tallies, native.ops.flops()), ([0; 4], 0), "{what}");
            checked += 1;
        }
    }
    // A source and a printer in each of FIR, FIR1024, Vocoder, Oversampler
    // and DToA; a printer in each of the other five.
    assert_eq!(checked, 15);
}
