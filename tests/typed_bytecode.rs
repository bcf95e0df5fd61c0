//! Fuel-sweep and fault differential for the typed bytecode tier
//! ([`streamlin::graph::bytecode`]) against the tree-walking reference
//! ([`streamlin::graph::lower::SlotInterp`]).
//!
//! `interp_differential` runs whole firings with fuel to spare. What it
//! cannot see is *where* a firing stops: the typed tier charges fuel per
//! run of statements and keeps scalars in registers, so "fuel runs out at
//! the same logical point, with the same partial state" is a property of
//! the compiler, not of the arithmetic. Here both tiers run the same phase
//! at **every** fuel value from 0 up to completion (sampled above 300) —
//! the first firing of every filter of the nine benchmarks, and a table of
//! bodies written to cover what the benchmarks do not — and must agree on
//! `Ok`/`Err`, the message, what was pushed and printed before the stop,
//! the four tallies, the pops and the final globals.
//!
//! Every typed run is repeated on a host that lends its tape as a slice,
//! which fused dot loops then read directly: outputs, state and tallies
//! must not move.
//!
//! A second table holds **faults**: every way a body can fail at run time,
//! including the ones the typer refuses to compile (the phase then runs on
//! the reference tier, which is pinned here too). A third runs typed code
//! over **stores that do not match** the signature it was compiled for.

use std::collections::HashMap;

use streamlin::graph::bytecode::{self, Regs};
use streamlin::graph::elaborate::run_init;
use streamlin::graph::exec::{Host, DEFAULT_FUEL};
use streamlin::graph::lower::{
    const_eval_expr, lower_filter, LoweredFilter, LoweredWork, SlotInterp, SlotStore,
};
use streamlin::graph::value::{ArrayVal, Cell, EvalError, Value};
use streamlin::lang::ast::{DataType, StreamKind};

/// Test host over a synthetic tape, counting every tally family. With a
/// `window`, accesses past it fail the way the runtime's checked host does.
/// `sliced`, it also lends the readable tape as a slice, as the runtime's
/// host does, so fused dot loops read it directly.
#[derive(Default)]
struct TapeHost {
    input: Vec<f64>,
    window: Option<usize>,
    sliced: bool,
    cursor: usize,
    pushed: Vec<f64>,
    printed: Vec<String>,
    tallies: [u64; 4],
}

impl Host for TapeHost {
    fn peek(&mut self, i: usize) -> Result<f64, EvalError> {
        let at = self.cursor + i;
        if self.window.is_some_and(|w| at >= w) {
            return Err(EvalError::new(format!(
                "peek({i}) after {} pops exceeds the declared peek window",
                self.cursor
            )));
        }
        self.input
            .get(at)
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
    fn print(&mut self, v: Value, newline: bool) -> Result<(), EvalError> {
        v.as_f64()?;
        self.printed.push(format!("{v:?}/{newline}"));
        Ok(())
    }
    fn tape(&self) -> Option<&[f64]> {
        let end = self
            .window
            .map_or(self.input.len(), |w| w.min(self.input.len()));
        self.input.get(self.cursor..end).filter(|_| self.sliced)
    }
    fn count_add(&mut self) {
        self.tallies[0] += 1;
    }
    fn count_mul(&mut self) {
        self.tallies[1] += 1;
    }
    fn count_div(&mut self) {
        self.tallies[2] += 1;
    }
    fn count_other(&mut self) {
        self.tallies[3] += 1;
    }
}

/// A deterministic, nonzero, sign-varying tape.
fn tape(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 37 + 11) % 97) as f64 / 13.0 - 3.5)
        .collect()
}

/// Everything observable about a run of firings.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// How many firings completed, or the message of the one that failed.
    result: Result<usize, String>,
    pushed: Vec<u64>,
    printed: Vec<String>,
    popped: usize,
    tallies: [u64; 4],
    /// Final globals, by `Debug` text (`NaN` equals itself, `-0.0` does
    /// not equal `0.0`).
    globals: String,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Tier {
    Typed,
    TreeWalk,
}

/// One phase over given cells: the unit every comparison runs twice.
struct Case<'a> {
    work: &'a LoweredWork,
    globals: &'a [Cell],
    input: &'a [f64],
    window: Option<usize>,
}

impl Case<'_> {
    /// Runs `fire` over fresh copies of the cells and the tape and
    /// collects everything observable; `fire` says how many firings
    /// completed, or why one did not.
    fn observe(
        &self,
        sliced: bool,
        fire: impl FnOnce(&mut SlotStore<'_>, &mut TapeHost) -> Result<usize, String>,
    ) -> Outcome {
        let mut globals = self.globals.to_vec();
        let mut frame = vec![Cell::zero_of(DataType::Int, Vec::new()); self.work.frame_slots];
        let mut host = TapeHost {
            input: self.input.to_vec(),
            window: self.window,
            sliced,
            ..TapeHost::default()
        };
        let mut store = SlotStore {
            globals: &mut globals,
            frame: &mut frame,
        };
        let result = fire(&mut store, &mut host);
        Outcome {
            result,
            pushed: host.pushed.iter().map(|v| v.to_bits()).collect(),
            printed: host.printed,
            popped: host.cursor,
            tallies: host.tallies,
            globals: format!("{globals:?}"),
        }
    }

    /// Runs `firings` consecutive firings on one tier, each on `fuel`,
    /// through one binding: scalar globals stay in registers in between,
    /// as in the runtime's batches.
    fn run(&self, tier: Tier, firings: usize, fuel: u64) -> Outcome {
        self.run_on(false, tier, firings, fuel)
    }

    /// [`Case::run`] on a host that lends its tape as a slice (`sliced`)
    /// or only answers `peek`.
    fn run_on(&self, sliced: bool, tier: Tier, firings: usize, fuel: u64) -> Outcome {
        self.observe(sliced, |store, host| {
            let mut regs = Regs::default();
            let mut bound = self.work.code.bind(store, &mut regs, tier == Tier::Typed);
            for _ in 0..firings {
                bound.fire(host, fuel).map_err(|e| e.message)?;
            }
            Ok(firings)
        })
    }

    /// The reference tier through its own entry point, not through the
    /// bytecode module: what `bind(.., false)` must be equal to.
    fn run_reference(&self, fuel: u64) -> Outcome {
        self.observe(false, |store, host| {
            let flow = SlotInterp::new(host, fuel).exec_work(store, &self.work.body);
            flow.map(|_| 1).map_err(|e| e.message)
        })
    }

    /// Both tiers at every fuel from 0 up to the first value the firing
    /// no longer runs out on (it completes, or fails for its own reason):
    /// all of 0..=300, then growing by a tenth. Returns that fuel value.
    fn sweep(&self, ctx: &str) -> u64 {
        let mut fuel = 0u64;
        loop {
            let want = self.run_reference(fuel);
            let got = self.run(Tier::Typed, 1, fuel);
            assert_eq!(got, want, "{ctx}: typed tier diverges at fuel {fuel}");
            // A fused loop over the lent slice reads, sums and counts
            // what one that peeks term by term does.
            let sliced = self.run_on(true, Tier::Typed, 1, fuel);
            assert_eq!(sliced, got, "{ctx}: the tape slice diverges at fuel {fuel}");
            if !matches!(&want.result, Err(message) if message.contains("fuel")) {
                return fuel;
            }
            fuel = if fuel < 300 {
                fuel + 1
            } else {
                fuel + fuel / 10
            };
            assert!(fuel < DEFAULT_FUEL, "{ctx}: never completes");
        }
    }
}

/// A hand-written filter, lowered without elaboration's analyses (which
/// would reject some of the faults before they can run): fields are
/// zeroed, `init` is run, the work body is lowered against the result.
fn lowered(src: &str) -> (LoweredFilter, Vec<Cell>) {
    let program = streamlin::lang::parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let StreamKind::Filter(decl) = &program.decls[0].kind else {
        panic!("expected a filter");
    };
    let mut state: HashMap<String, Cell> = HashMap::new();
    for field in &decl.fields {
        let dims = (field.ty.dims.iter())
            .map(|d| const_eval_expr(&mut state, d).unwrap().as_index().unwrap())
            .collect();
        state.insert(field.name.clone(), Cell::zero_of(field.ty.base, dims));
    }
    if let Some(init) = &decl.init {
        run_init(&mut state, init, DEFAULT_FUEL).unwrap();
    }
    let lowered = lower_filter(&state, &decl.work.body, None)
        .unwrap_or_else(|errs| panic!("{errs:?}\n{src}"));
    let globals = lowered.globals.iter().map(|g| state[g].clone()).collect();
    (lowered, globals)
}

/// A `float->float` filter with the given fields and work body.
fn filter(fields: &str, body: &str) -> String {
    format!("float->float filter F {{ {fields} work peek 8 pop 1 push 1 {{ {body} }} }}")
}

// ---- the benchmarks ---------------------------------------------------------

/// The first firing (the `initWork` phase where there is one) of every
/// filter instance of a benchmark, at every fuel value.
fn sweep_benchmark(bench: &streamlin::benchmarks::Benchmark) {
    let mut filters = Vec::new();
    bench
        .graph()
        .for_each_filter(&mut |f| filters.push(f.clone()));
    for inst in &filters {
        let lowered = &inst.lowered;
        let (work, rates) = match (&lowered.init_work, &inst.init_work) {
            (Some(code), Some(rates)) => (code, rates),
            _ => (&lowered.work, &inst.work),
        };
        assert_eq!(work.code.refusal(), None, "{}: refused", inst.name);
        let globals: Vec<Cell> = (lowered.globals.iter())
            .map(|g| inst.state[g].clone())
            .collect();
        let case = Case {
            work,
            globals: &globals,
            input: &tape(rates.peek + 4),
            window: None,
        };
        case.sweep(&format!("{} :: {}", bench.name(), inst.name));
    }
}

macro_rules! benchmark_sweeps {
    ($($test:ident => $bench:expr;)*) => {$(
        #[test]
        fn $test() {
            sweep_benchmark(&$bench);
        }
    )*}
}

benchmark_sweeps! {
    fir_fuel_sweep => streamlin::benchmarks::fir(256);
    rate_convert_fuel_sweep => streamlin::benchmarks::rate_convert();
    target_detect_fuel_sweep => streamlin::benchmarks::target_detect();
    fm_radio_fuel_sweep => streamlin::benchmarks::fm_radio();
    radar_fuel_sweep => streamlin::benchmarks::radar(4, 4);
    filter_bank_fuel_sweep => streamlin::benchmarks::filter_bank();
    vocoder_fuel_sweep => streamlin::benchmarks::vocoder();
    oversampler_fuel_sweep => streamlin::benchmarks::oversampler();
    dtoa_fuel_sweep => streamlin::benchmarks::dtoa();
}

// ---- hand-written bodies ----------------------------------------------------

/// `(name, fields, work body)`: what the benchmarks' bodies do not reach.
const BODIES: &[(&str, &str, &str)] = &[
    (
        "mixed int/float promotion",
        "int n; float acc;",
        "float x = pop(); int k = 3; acc = acc + k * x + n; n = n + 1;
         float h = k / 2; acc += n; acc -= 2; int m = 7 % k + n * 2 - k;
         push(acc / 2 + (k / 2 + x) * m + h);",
    ),
    (
        "op= and ++ on int and float array elements",
        "int[4] c; float[4] w; int i;",
        "c[i % 4] += 3; c[(i + 1) % 4]++; c[2] -= c[0]; c[3] *= 2; c[3]--;
         w[i % 4] += 1.5; w[c[0] % 4]++; w[1] -= c[1]; w[2] *= w[0]; w[3] /= 2; w[3]--;
         float old = w[0]++; int was = c[1]++;
         push(w[i % 4] + c[i % 4] + old + was + pop()); i++;",
    ),
    (
        "&& and || with a side-effecting right operand",
        "int n; int m;",
        "boolean b = (n++ > 0) && (m++ > 1);
         boolean c = (n > 2) || (m++ < 100);
         boolean d = !b && (c || (n++ == m++));
         if (b || c && d) { push(n + m + pop()); } else { push(n - m - pop()); }",
    ),
    (
        "nested fused dot",
        "float[8] h; float best; init { for (int i = 0; i < 8; i++) h[i] = i * 0.5 - 1; }",
        "best = 0;
         for (int i = 0; i < 4; i++) {
             float sum = 0;
             for (int j = i; j < 8; j++) sum += h[j] * peek(j);
             float cross = 0;
             for (int j = 0; j < 6; j++) cross += peek(i) * peek(j);
             if (sum + cross > best) { best = sum + cross; }
         }
         push(best); pop();",
    ),
    (
        "return inside a loop",
        "int count;",
        "float x = pop(); push(x);
         for (int i = 0; i < 10; i++) { if (i == 3) { return; } count = count + i; }
         count = -1;",
    ),
    (
        "a local re-declared per iteration",
        "float total;",
        "for (int i = 0; i < 3; i++) {
             float s; s = s + i; int k; k += i + 1; boolean seen; seen = !seen;
             if (seen) { total += s + k; }
             int again = again + i;
             total += again;
         }
         push(total + pop());",
    ),
    (
        "local arrays of rank one and two",
        "int r;",
        "float[2][3] m; r = 1; m[r][2] = 4; m[r][r + 1] += 1.5; m[0][r]++;
         int[3] v; v[2]++; v[r] = v[2] + 2; int j = 0;
         m[j++][j] = 7;
         push(m[1][2] + m[0][1] + v[1] + v[2] + j + pop());",
    ),
    (
        "intrinsics, bit operators, comparisons",
        "int n; boolean flag;",
        "float x = pop();
         int bits = (5 & 3) | (1 << 4) ^ 2 >> 1;
         float f = abs(-3) + min(2, 5) + max(1.5, 2) + sqrt(16) + pow(2, 3) + atan2(1, 1);
         f = f + abs(x) + min(x, 1) + floor(x) + sin(x) * cos(x) + 7.5 % 2;
         flag = (bits >= 3) == (x != x) || flag != true;
         if (x < 0 && -x > 1 || x <= 2 && x >= -2 && bits == bits) { n = -n + 1; }
         push(f + bits + n);",
    ),
    (
        "operands a later ++ must not change",
        "int i; float[4] a;",
        "int x = 2; int y = x + x++ * 2; float z = 1; z = z + z++;
         a[i++ % 4] = i; a[i % 4] = i++; int k = i + (i++ + i);
         float w = pop(); w += w++; x += x++;
         push(y + z + a[0] + a[1] + k + w + x + max(i, i++));",
    ),
    (
        "while, compound updates, printing",
        "int n;",
        "n = 10; while (n > 0) { n -= 3; print(n); } println(pop() * n); push(n);",
    ),
];

#[test]
fn hand_written_bodies_agree_at_every_fuel_value() {
    for (name, fields, body) in BODIES {
        let (lowered, globals) = lowered(&filter(fields, body));
        assert_eq!(lowered.work.code.refusal(), None, "{name}: refused");
        let case = Case {
            work: &lowered.work,
            globals: &globals,
            input: &tape(12),
            window: None,
        };
        let fuel = case.sweep(name);
        // Three firings through one binding: registers, literals and the
        // scalar globals they hold carry over as the cells would.
        let typed = case.run(Tier::Typed, 3, fuel);
        assert_eq!(typed, case.run(Tier::TreeWalk, 3, fuel), "{name}: batch");
        assert_eq!(
            typed,
            case.run_on(true, Tier::Typed, 3, fuel),
            "{name}: sliced"
        );
        assert_eq!(typed.result, Ok(3), "{name}");
    }
}

// ---- faults -----------------------------------------------------------------

/// `(fields, body, text the failure must contain, the typer refuses it)`.
const FAULTS: &[(&str, &str, &str, bool)] = &[
    ("int z;", "push(1 / z);", "integer division by zero", false),
    (
        "int z; float seen;",
        "seen = pop(); push(7 % z);",
        "integer remainder by zero",
        false,
    ),
    (
        "float[4] a; int k; float seen;",
        "k = -1; seen = 1; push(a[k]);",
        "expected a non-negative integer, found -1",
        false,
    ),
    (
        "float[4] a; int k;",
        "k = 4; a[k] = 1; push(0);",
        "index 4 out of bounds for dimension 0 of size 4",
        false,
    ),
    (
        "int[4] c; int k;",
        "k = 7; c[1] = 5; c[k]++; push(0);",
        "index 7 out of bounds",
        false,
    ),
    (
        "float[2][2] m; int k;",
        "k = -2; push(m[5][k++]);",
        "expected a non-negative integer, found -2",
        false,
    ),
    (
        "float[2][2] m; int k;",
        "push(m[5][k++ + 9]);",
        "index 5 out of bounds for dimension 0 of size 2",
        false,
    ),
    (
        "float[2][2] m; int k;",
        "k = -1; push(m[k][k++]);",
        "expected a non-negative integer, found -1",
        false,
    ),
    (
        "int k;",
        "k = -3; push(peek(k));",
        "expected a non-negative integer, found -3",
        false,
    ),
    (
        "int k;",
        "k = -3; float[4] t; float[k] u; push(0);",
        "expected a non-negative integer, found -3",
        false,
    ),
    // A fused loop whose array is too short: the entry check bails, the
    // typed loop fails at the exact element with the partial sum stored.
    (
        "float[4] h; float acc; init { for (int i = 0; i < 4; i++) h[i] = i + 1; }",
        "for (int i = 0; i < 8; i++) acc += h[i] * peek(i); push(acc);",
        "index 4 out of bounds",
        false,
    ),
    (
        "float acc; int lo;",
        "lo = -2; for (int i = lo; i < 3; i++) acc += peek(i) * peek(1); push(acc);",
        "expected a non-negative integer, found -2",
        false,
    ),
    // What can only fail for a type reason is refused, and fails on the
    // reference tier with its text.
    (
        "float[4] a;",
        "push(a[1.5]);",
        "expected an integer, found Float(1.5)",
        true,
    ),
    (
        "boolean b;",
        "push(b + 1);",
        "expected a number, found a boolean",
        true,
    ),
    (
        "int n; float seen;",
        "seen = pop(); n = 1.5; push(n);",
        "cannot store Float(1.5) into a variable of type Int",
        true,
    ),
    (
        "int n;",
        "n += 0.5; push(n);",
        "cannot store Float(0.5)",
        true,
    ),
    (
        "int n;",
        "if (n) { push(1); }",
        "expected a boolean, found Int(0)",
        true,
    ),
    ("float[4] a;", "push(a);", "variable is an array", true),
    (
        "float x;",
        "push(x[0]);",
        "variable is a scalar, not an array",
        true,
    ),
    (
        "float[4] a;",
        "push(a[0][1]);",
        "array expects 1 indices, got 2",
        true,
    ),
];

#[test]
fn faults_read_the_same_on_both_tiers() {
    for (fields, body, text, refused) in FAULTS {
        let (lowered, globals) = lowered(&filter(fields, body));
        assert_eq!(
            lowered.work.code.refusal().is_some(),
            *refused,
            "`{body}`: {:?}",
            lowered.work.code.refusal()
        );
        let case = Case {
            work: &lowered.work,
            globals: &globals,
            input: &tape(12),
            window: None,
        };
        let want = case.run_reference(DEFAULT_FUEL);
        let message = want.result.clone().expect_err(body);
        assert!(message.contains(text), "`{body}`: {message}");
        assert_eq!(case.run(Tier::Typed, 1, DEFAULT_FUEL), want, "`{body}`");
        // Out of fuel before the fault is out of fuel on both, too.
        case.sweep(body);
    }
}

/// An ill-typed statement the run never reaches is nothing on the
/// reference tier, so it must be nothing here: the body is refused and
/// still runs.
#[test]
fn an_ill_typed_statement_in_dead_code_is_refused_and_harmless() {
    let (lowered, globals) = lowered(&filter(
        "int n;",
        "if (n > 0) { n = 1.5; } push(pop() + n);",
    ));
    assert!(lowered.work.code.refusal().is_some());
    let case = Case {
        work: &lowered.work,
        globals: &globals,
        input: &tape(12),
        window: None,
    };
    let typed = case.run(Tier::Typed, 2, DEFAULT_FUEL);
    assert_eq!(typed.result, Ok(2));
    assert_eq!(typed, case.run(Tier::TreeWalk, 2, DEFAULT_FUEL));
}

/// The checked host's window error, in a plain `peek`, after a `pop`, and
/// in the middle of a fused loop (whose partial sum must be stored).
#[test]
fn a_peek_past_the_window_fails_alike_under_the_checked_host() {
    let bodies = [
        ("float seen;", "seen = 1; push(peek(5)); pop();"),
        (
            "float seen;",
            "seen = pop(); seen = seen + pop(); push(peek(1));",
        ),
        (
            "float[8] h; float acc; init { for (int i = 0; i < 8; i++) h[i] = i + 1; }",
            "for (int i = 0; i < 8; i++) acc += h[i] * peek(i); push(acc); pop();",
        ),
        (
            "float acc; int at;",
            "at = 6; for (int i = 0; i < 2; i++) acc += peek(i) * peek(at); push(acc);",
        ),
    ];
    for (fields, body) in bodies {
        let (lowered, globals) = lowered(&filter(fields, body));
        let case = Case {
            work: &lowered.work,
            globals: &globals,
            input: &tape(12),
            window: Some(3),
        };
        let want = case.run_reference(DEFAULT_FUEL);
        let message = want.result.clone().expect_err(body);
        assert!(
            message.contains("exceeds the declared peek window"),
            "{message}"
        );
        assert_eq!(case.run(Tier::Typed, 1, DEFAULT_FUEL), want, "`{body}`");
        case.sweep(body);
    }
}

// ---- store mismatch -----------------------------------------------------------

fn scalar(ty: DataType, v: Value) -> Cell {
    Cell::Scalar(ty, v)
}

/// Typed code over a store whose cells are not what it was compiled for
/// runs the phase on the reference tier: whatever that does with such a
/// store — a different value, an error — is what comes out.
#[test]
fn a_store_that_does_not_match_the_signature_runs_on_the_reference_tier() {
    let (lowered, globals) = lowered(&filter(
        "float[4] a; int n; float x;",
        "a[1] = a[1] + 1; x = x + n + a[1]; n++; push(x + pop());",
    ));
    assert_eq!(lowered.work.code.refusal(), None);
    assert_eq!(lowered.globals, ["a", "n", "x"]);
    let array = |elem, dims: Vec<usize>| Cell::Array(ArrayVal::zeros(elem, dims));
    let stores: Vec<(&str, Vec<Cell>)> = vec![
        ("as compiled", globals.clone()),
        (
            "an int where a float is compiled in",
            vec![
                globals[0].clone(),
                globals[1].clone(),
                scalar(DataType::Int, Value::Int(4)),
            ],
        ),
        (
            "a float where an int is compiled in",
            vec![
                globals[0].clone(),
                scalar(DataType::Float, Value::Float(2.5)),
                globals[2].clone(),
            ],
        ),
        (
            "a cell whose value contradicts its type",
            vec![
                globals[0].clone(),
                scalar(DataType::Int, Value::Float(2.5)),
                globals[2].clone(),
            ],
        ),
        (
            "an int array where a float array is compiled in",
            vec![
                array(DataType::Int, vec![4]),
                globals[1].clone(),
                globals[2].clone(),
            ],
        ),
        (
            "a rank-2 array where a rank-1 array is compiled in",
            vec![
                array(DataType::Float, vec![2, 2]),
                globals[1].clone(),
                globals[2].clone(),
            ],
        ),
        (
            "a scalar where an array is compiled in",
            vec![
                scalar(DataType::Float, Value::Float(1.0)),
                globals[1].clone(),
                globals[2].clone(),
            ],
        ),
        (
            "an array where a scalar is compiled in",
            vec![
                globals[0].clone(),
                globals[1].clone(),
                array(DataType::Float, vec![4]),
            ],
        ),
        (
            "a shorter array than the body indexes",
            vec![
                array(DataType::Float, vec![1]),
                globals[1].clone(),
                globals[2].clone(),
            ],
        ),
    ];
    for (what, cells) in &stores {
        let case = Case {
            work: &lowered.work,
            globals: cells,
            input: &tape(12),
            window: None,
        };
        assert_eq!(
            case.run(Tier::Typed, 1, DEFAULT_FUEL),
            case.run_reference(DEFAULT_FUEL),
            "{what}"
        );
        case.sweep(what);
    }
}

/// An element that contradicts its own array's header can only come from
/// outside: the typed tier reports it instead of computing with it.
#[test]
fn an_element_that_contradicts_its_array_is_an_error_not_a_number() {
    let (lowered, mut globals) = lowered(&filter("float[4] a;", "push(a[1] + pop());"));
    let Cell::Array(a) = &mut globals[0] else {
        panic!("`a` is an array");
    };
    a.data[1] = Value::Int(3);
    let mut frame = Vec::new();
    let mut store = SlotStore {
        globals: &mut globals,
        frame: &mut frame,
    };
    let mut host = TapeHost {
        input: tape(4),
        ..TapeHost::default()
    };
    let err = bytecode::exec(&lowered.work.code, &mut store, &mut host, DEFAULT_FUEL).unwrap_err();
    assert!(
        err.message.contains("does not match its declared type"),
        "{err}"
    );
}
