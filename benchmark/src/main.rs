//! streamlin's benchmark. See `benchmark/README.md`.
//!
//! ```console
//! $ bash benchmark/run.sh --workload steady_kernel --seed 1 --seconds 10 --trace 0
//! $ bash benchmark/run.sh --seed 1 --out result.json        # every workload, both passes
//! $ bash benchmark/run.sh --repeat 2 --out result.json      # spreads against the bounds
//! $ bash benchmark/run.sh --compare old.json new.json
//! $ bash benchmark/run.sh --smoke
//! ```

mod front;
mod probes;
mod proc;
mod programs;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use streamlin_runtime::MatMulStrategy;
use streamlin_support::json::Json;
use streamlin_support::NoCount;

use crate::front::{AnyEngine, Variant};
use crate::proc::{CpuMask, Watchdog};
use crate::report::Spec;
use crate::run::{Env, Outcome, Run, EXPECTED_LEN};
use crate::workloads::Workload;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    bin_dir: PathBuf,
    work_dir: Option<PathBuf>,
    spec: String,
    out: Option<String>,
    trace_out: Option<String>,
    repeat: usize,
    smoke: bool,
    compare: Option<(String, String)>,
    regen_expected: bool,
}

const USAGE: &str =
    "usage: harness [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace 0|1]
               [--bin-dir <dir>] [--work-dir <dir>] [--spec BENCHMARK.json]
               [--out <result.json>] [--trace-out <chrome-trace.json>]
               [--repeat <k>] [--smoke]
       harness --compare <old.json> <new.json> [--spec BENCHMARK.json]
       harness --regen-expected";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        bin_dir: PathBuf::from("target/release"),
        work_dir: None,
        spec: "BENCHMARK.json".into(),
        out: None,
        trace_out: None,
        repeat: 1,
        smoke: false,
        compare: None,
        regen_expected: false,
    };
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&flag, &mut it)?),
            "--seed" => {
                let v = value(&flag, &mut it)?;
                a.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value(&flag, &mut it)?;
                a.seconds = Some(v.parse().ok().filter(|s| *s > 0.0).ok_or_else(|| bad(&v))?);
            }
            "--trace" => {
                a.traced = match value(&flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--bin-dir" => a.bin_dir = value(&flag, &mut it)?.into(),
            "--work-dir" => a.work_dir = Some(value(&flag, &mut it)?.into()),
            "--spec" => a.spec = value(&flag, &mut it)?,
            "--out" => a.out = Some(value(&flag, &mut it)?),
            "--trace-out" => a.trace_out = Some(value(&flag, &mut it)?),
            "--repeat" => {
                let v = value(&flag, &mut it)?;
                a.repeat = v.parse().ok().filter(|k| *k >= 1).ok_or_else(|| bad(&v))?;
            }
            "--smoke" => a.smoke = true,
            "--compare" => a.compare = Some((value(&flag, &mut it)?, value(&flag, &mut it)?)),
            "--regen-expected" => a.regen_expected = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("harness: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `Ok(false)`: the benchmark ran and something was wrong (a failed
/// operation, a spread over its bound, a regression).
fn dispatch(args: &Args) -> Result<bool, String> {
    if args.regen_expected {
        return regen_expected().map(|()| true);
    }
    let spec = Spec::load(&args.spec)?;
    if let Some((old, new)) = &args.compare {
        let regressed = report::compare(&spec, old, new)?;
        println!("{regressed} regressed row(s)");
        return Ok(regressed == 0);
    }
    let declared: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    let ours: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    if declared != ours {
        return Err(format!(
            "{} declares workloads {declared:?}, the benchmark has {ours:?}",
            args.spec
        ));
    }

    let env = Env {
        streamlinc: args.bin_dir.join("streamlinc"),
        streamlind: args.bin_dir.join("streamlind"),
        work_dir: args
            .work_dir
            .clone()
            .unwrap_or_else(|| args.bin_dir.join("benchmark-work")),
        expected_dir: PathBuf::from("benchmark/expected"),
        all_cpus: CpuMask::current(),
    };
    for bin in [&env.streamlinc, &env.streamlind] {
        if !bin.is_file() {
            return Err(format!(
                "{} not found: build with `cargo build --release` first (benchmark/run.sh does)",
                bin.display()
            ));
        }
    }
    // --smoke: the same code paths at a twentieth of the counts.
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.5 } else { spec.run_seconds });
    let scale = seconds / 10.0;
    let progs = programs::all(args.smoke);
    let wd = Watchdog::new();
    // The generator and every child it spawns share one CPU. Left alone,
    // Linux runs client and daemon on one core or on two depending on what
    // ran before, and a pipe round trip is 3 us or 44 us accordingly.
    // (The watchdog thread above started before this and stays free.)
    if !env.all_cpus.is_some_and(|all| all.first_only().apply()) {
        eprintln!("harness: cannot pin to one CPU; daemon latencies will be bimodal");
    }
    let one = |w: &'static Workload, seed: u64, traced: bool| -> Result<Outcome, String> {
        // The traced pass is the same workload at a third of the rounds.
        let scale = if traced { scale / 3.0 } else { scale };
        Ok(Run::new(&env, w, &progs, seed, scale, traced, &wd)?.run())
    };
    let write_trace = |o: &Outcome| -> Result<(), String> {
        match &args.trace_out {
            Some(path) if o.tracer.span_count() > 0 => {
                std::fs::write(path, o.tracer.chrome_trace())
                    .map_err(|e| format!("cannot write {path}: {e}"))
            }
            _ => Ok(()),
        }
    };

    // The driver's form: one workload, one pass, the result on the last line.
    if let Some(name) = args.workload.as_deref().filter(|n| *n != "all") {
        let w = workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let outcome = one(w, args.seed, args.traced)?;
        let declared = if args.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let title = format!(
            "workload {name} seed {} seconds {seconds} trace {}",
            args.seed,
            u8::from(args.traced)
        );
        let correct = report::print_outcome(&title, &outcome, declared);
        write_trace(&outcome)?;
        println!("{}", report::result_line(&outcome, declared, correct));
        return Ok(correct);
    }

    // Every workload: `--repeat` untraced sets for the end-to-end metrics,
    // then one traced pass for the per-layer metrics.
    let mut all_ok = true;
    let mut records = Vec::new();
    for w in workloads::ALL {
        let mut sets = Vec::new();
        for k in 0..args.repeat {
            let o = one(w, args.seed + k as u64, false)?;
            let title = format!("== {} (set {}, untraced)", w.name, k + 1);
            all_ok &= report::print_outcome(&title, &o, &spec.end_to_end);
            sets.push(o);
        }
        let traced = one(w, args.seed, true)?;
        let title = format!("== {} (traced, per layer)", w.name);
        all_ok &= report::print_outcome(&title, &traced, &spec.per_layer);
        write_trace(&traced)?;
        records.push((w.name, report::workload_record(&sets, &traced)));
    }
    let mut doc = vec![
        ("schema", Json::Str(report::SCHEMA.into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("sets", Json::Num(args.repeat as f64)),
    ];
    // Counted before the pin: afterwards the process sees one CPU.
    doc.extend(report::host_info(
        &wd,
        env.all_cpus.map_or(1, CpuMask::count),
    ));
    doc.push(("workloads", Json::obj(records)));
    let doc = Json::obj(doc);
    if args.repeat > 1 {
        let over = report::print_repeat_table(&spec, &doc);
        println!("{over} spread(s) over their bound");
        all_ok &= over == 0;
    }
    if let Some(path) = &args.out {
        std::fs::write(path, doc.dump_pretty() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_ok)
}

/// Rewrites `benchmark/expected/<Program>.txt`: the first 256 outputs of
/// each program's unoptimised graph on the data-driven engine. Run once,
/// at the commit that added the benchmark; the files are the oracle every
/// later commit is checked against.
fn regen_expected() -> Result<(), String> {
    let mut off = trace::Tracer::new(false);
    for p in programs::all(false) {
        let c = front::compile(
            &p.source,
            Variant::Unoptimised,
            MatMulStrategy::Unrolled,
            &mut off,
        )?;
        let mut engine = AnyEngine::<NoCount>::dynamic(&c);
        engine
            .run_until_outputs(EXPECTED_LEN)
            .map_err(|e| format!("{}: {e}", p.name))?;
        let text: String = engine.printed()[..EXPECTED_LEN]
            .iter()
            .map(|v| format!("{v:?}\n"))
            .collect();
        let path = format!("benchmark/expected/{}.txt", p.name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}
