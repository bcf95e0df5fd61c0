//! `streamlinc` — command-line driver for the streamlin compiler.
//!
//! Parses a StreamIt-dialect program, runs the linear analysis and the
//! requested optimization, executes it, and reports structure and
//! operation counts:
//!
//! ```console
//! $ streamlinc program.str                        # autosel, 1000 outputs
//! $ streamlinc program.str --config freq -n 5000
//! $ streamlinc program.str --sched dynamic        # data-driven engine
//! $ streamlinc program.str --mode fast            # uncounted, SIMD kernels
//! $ streamlinc program.str --threads 4            # pipeline-parallel stages
//! $ streamlinc program.str --threads 4 --fission auto   # split the bottleneck
//! $ streamlinc program.str --fission 2            # force a fission width
//! $ streamlinc program.str --emit-graph           # print the structures
//! $ streamlinc program.str --metrics              # telemetry summary table
//! $ streamlinc program.str --trace-out t.json     # Chrome trace-event file
//! $ streamlinc program.str --quiet                # program output only
//! $ streamlinc program.str --lint                 # spanned diagnostics, no run
//! $ streamlinc program.str --deny-lints           # CI: non-zero exit on lints
//! $ streamlinc program.str --threads 4 --watchdog-ms 2000   # stall watchdog
//! $ streamlinc program.str --threads 4 --fault-inject 7:panic@s1  # drill
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use streamlin::runtime::measure::{profile_supervised, Supervision};
use streamlin::support::{InjectFaults, Probe, Recorder};

use streamlin::core::combine::{analyze_graph, replace, ReplaceOptions, ReplaceTarget};
use streamlin::core::cost::CostModel;
use streamlin::core::select::{select, SelectOptions};
use streamlin::prelude::*;

struct Args {
    path: String,
    config: String,
    sched: Scheduler,
    mode: ExecMode,
    matmul: Option<MatMulStrategy>,
    /// `Some(n)`: run the pipeline-parallel executor over at most `n`
    /// stages (`--sched static` without `--threads` stays the classic
    /// single-threaded plan engine).
    threads: Option<usize>,
    /// Data-parallel fission of the dominant node: `auto` asks the cost
    /// model, a number forces a width, `off` (default) disables it.
    fission: streamlin::runtime::fission::Fission,
    outputs: usize,
    emit_graph: bool,
    /// Print the telemetry summary (where time went: phases, stages,
    /// rings, nodes) after the run.
    metrics: bool,
    /// Write a Chrome trace-event JSON timeline of the run here.
    trace_out: Option<String>,
    quiet: bool,
    /// Deterministic fault plan (`--fault-inject <seed>:<spec>`): a
    /// supervised drill of the pipeline executor's failure paths. See
    /// the fault module's spec grammar (`panic@s1`, `wedge`, `die`,
    /// `slow=50`, `delay@c2=100`, `refuse#1`, `nofission`).
    fault: Option<InjectFaults>,
    /// Wall-clock no-progress deadline for the pipeline watchdog, in
    /// milliseconds (`--watchdog-ms N`).
    watchdog_ms: Option<u64>,
    /// Cycle quantum of the pipeline pacing protocol (`--quantum N`,
    /// original steady cycles). `0`: env `STREAMLIN_CYCLE_QUANTUM`, else
    /// the built-in default of 4.
    quantum: u64,
    /// `--lint`: print every advisory diagnostic the static analysis
    /// produced (spanned, one line each) and skip execution.
    lint: bool,
    /// `--deny-lints`: like `--lint`, but exit non-zero if any lint
    /// fired (for CI).
    deny_lints: bool,
}

impl Args {
    /// Whether the run needs an instrumented (Recorder) profile: any of
    /// the telemetry outputs, or `--emit-graph` (whose decision dump is
    /// sourced from the recorder's notes).
    fn instrumented(&self) -> bool {
        self.metrics || self.trace_out.is_some() || self.emit_graph
    }

    /// The matrix-multiply strategy to execute with: an explicit
    /// `--matmul` wins; otherwise `fast` mode selects the vectorized
    /// dense kernel and `measured` mode the paper's unrolled one.
    fn strategy(&self) -> MatMulStrategy {
        self.matmul.unwrap_or_else(|| self.mode.default_strategy())
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: streamlinc <program.str> [--config baseline|linear|freq|redund|autosel]\n\
         \x20                [--sched auto|static|dynamic] [--mode measured|fast]\n\
         \x20                [--matmul unrolled|diagonal|blocked|simd] [--threads <n>]\n\
         \x20                [--fission auto|off|<w>] [-n <outputs>] [--emit-graph]\n\
         \x20                [--metrics] [--trace-out <file>] [--quiet]\n\
         \x20                [--watchdog-ms <n>] [--fault-inject <seed>:<spec>[,<spec>...]]\n\
         \x20                [--quantum <n>] [--no-bytecode] [--lint] [--deny-lints]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        path: String::new(),
        config: "autosel".into(),
        sched: Scheduler::Auto,
        mode: ExecMode::Measured,
        matmul: None,
        threads: None,
        fission: streamlin::runtime::fission::Fission::Off,
        outputs: 1000,
        emit_graph: false,
        metrics: false,
        trace_out: None,
        quiet: false,
        fault: None,
        watchdog_ms: None,
        quantum: 0,
        lint: false,
        deny_lints: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => args.config = it.next().unwrap_or_else(|| usage()),
            "--sched" => {
                args.sched = match it.next().as_deref() {
                    Some("auto") => Scheduler::Auto,
                    Some("static") => Scheduler::Static,
                    Some("dynamic") => Scheduler::Dynamic,
                    _ => usage(),
                }
            }
            "--mode" => {
                args.mode = match it.next().as_deref() {
                    Some("measured") => ExecMode::Measured,
                    Some("fast") => ExecMode::Fast,
                    _ => usage(),
                }
            }
            "--matmul" => {
                args.matmul = Some(match it.next().as_deref() {
                    Some("unrolled") => MatMulStrategy::Unrolled,
                    Some("diagonal") => MatMulStrategy::Diagonal,
                    Some("blocked") => MatMulStrategy::Blocked,
                    Some("simd") => MatMulStrategy::Simd,
                    _ => usage(),
                })
            }
            "--threads" => {
                args.threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&t| t >= 1)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--fission" => {
                use streamlin::runtime::fission::Fission;
                args.fission = match it.next().as_deref() {
                    Some("auto") => Fission::Auto,
                    Some("off") => Fission::Off,
                    Some(v) => match v.parse() {
                        Ok(w) if w >= 1 => Fission::Width(w),
                        _ => usage(),
                    },
                    None => usage(),
                }
            }
            "-n" | "--outputs" => {
                args.outputs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--fault-inject" => {
                let spec = it.next().unwrap_or_else(|| usage());
                args.fault = Some(InjectFaults::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("streamlinc: bad --fault-inject spec: {e}");
                    std::process::exit(2);
                }));
            }
            "--watchdog-ms" => {
                args.watchdog_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&ms| ms >= 1)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--quantum" => {
                args.quantum = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&q| q >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--no-bytecode" => streamlin::runtime::set_bytecode_tier(false),
            "--lint" => args.lint = true,
            "--deny-lints" => {
                args.lint = true;
                args.deny_lints = true;
            }
            "--emit-graph" => args.emit_graph = true,
            "--metrics" => args.metrics = true,
            "--trace-out" => args.trace_out = Some(it.next().unwrap_or_else(|| usage())),
            "--quiet" => args.quiet = true,
            "-h" | "--help" => usage(),
            other if args.path.is_empty() && !other.starts_with('-') => {
                args.path = other.to_string()
            }
            _ => usage(),
        }
    }
    if args.path.is_empty() {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("streamlinc: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the program's outputs, one per line, through a single buffered
/// lock on stdout. A reader that has gone away (`streamlinc … | head -1`)
/// ends the run quietly: the outputs it wanted were delivered.
fn print_outputs(values: &[f64]) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let written = values
        .iter()
        .try_for_each(|v| writeln!(out, "{v}"))
        .and_then(|()| out.flush());
    match written {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let source = std::fs::read_to_string(&args.path)
        .map_err(|e| format!("cannot read {}: {e}", args.path))?;
    // The recorder's creation instant is the trace epoch, so it exists
    // before the first compile phase; uninstrumented runs never build one
    // and execute the NoProbe-monomorphized engines.
    let mut rec = args.instrumented().then(Recorder::new);
    let t0 = rec.as_ref().map_or(0, |r| r.now());
    let program = parse(&source).map_err(|e| e.to_string())?;
    if let Some(r) = rec.as_mut() {
        r.phase("parse", t0);
    }
    let t0 = rec.as_ref().map_or(0, |r| r.now());
    let graph = elaborate(&program).map_err(|e| e.to_string())?;
    if let Some(r) = rec.as_mut() {
        r.phase("elaborate", t0);
    }
    if args.lint {
        // One line per distinct (position, code, message, declaration):
        // a declaration instantiated many times reports each finding once.
        let mut lints: Vec<(u32, u32, &'static str, String, String)> = Vec::new();
        graph.for_each_filter(&mut |inst| {
            for l in &inst.facts.lints {
                lints.push((
                    l.span.line,
                    l.span.col,
                    l.code,
                    l.message.clone(),
                    inst.decl_name.clone(),
                ));
            }
        });
        lints.sort();
        lints.dedup();
        for (line, col, code, msg, decl) in &lints {
            println!(
                "{}:{line}:{col}: warning[{code}]: {msg} (in filter {decl})",
                args.path
            );
        }
        if !args.quiet {
            eprintln!("{} lint(s)", lints.len());
        }
        if args.deny_lints && !lints.is_empty() {
            return Err(format!("--deny-lints: {} lint(s)", lints.len()));
        }
        return Ok(());
    }

    let analysis = analyze_graph(&graph);

    if !args.quiet {
        eprintln!(
            "parsed {} declarations; {} filters ({} linear)",
            program.decls.len(),
            graph.filter_count(),
            analysis.linear_count()
        );
    }

    let t0 = rec.as_ref().map_or(0, |r| r.now());
    let opt = match args.config.as_str() {
        "baseline" => replace(&graph, &analysis, &ReplaceOptions::per_filter()),
        "linear" => replace(&graph, &analysis, &ReplaceOptions::maximal_linear()),
        "freq" => replace(&graph, &analysis, &ReplaceOptions::maximal_freq()),
        "redund" => replace(
            &graph,
            &analysis,
            &ReplaceOptions {
                combine: true,
                target: ReplaceTarget::Redund,
            },
        ),
        "autosel" => {
            select(
                &graph,
                &analysis,
                &CostModel::default(),
                &SelectOptions::default(),
            )
            .map_err(|e| e.to_string())?
            .opt
        }
        other => return Err(format!("unknown config `{other}`")),
    };
    if let Some(r) = rec.as_mut() {
        r.phase("select", t0);
    }

    if args.emit_graph {
        eprintln!("structure: {}", opt.describe());
    }

    // `--threads`/`--fission` select the pipeline executor (a lone
    // `--fission` runs it with a 1-stage budget, matching the fission
    // pass's threads argument); otherwise the classic engines run.
    let pipeline_threads = match (args.threads, args.fission) {
        (None, streamlin::runtime::fission::Fission::Off) => None,
        (threads, _) => Some(threads.unwrap_or(1)),
    };
    // Every CLI run goes through the supervised profiler: with no
    // `--fault-inject`/`--watchdog-ms` it monomorphizes to the exact
    // unsupervised engines; with either, the supervisor watches the run
    // and degrades to the single-threaded static plan on infrastructure
    // failures instead of hanging or dying.
    let sup = Supervision {
        watchdog: args.watchdog_ms.map(Duration::from_millis),
        fallback: true,
        quantum: args.quantum,
    };
    let prof = profile_supervised(
        &opt,
        args.outputs,
        args.strategy(),
        args.sched,
        args.mode,
        pipeline_threads,
        args.fission,
        &sup,
        args.fault.as_ref(),
        rec.as_mut(),
    )
    .map_err(|e| e.to_string())?;
    if let Some(reason) = &prof.degraded {
        if !args.quiet {
            eprintln!("streamlinc: degraded to the single-threaded static plan ({reason})");
        }
    }

    if args.emit_graph {
        // The decision dump: fission engagement/refusal, schedule shape,
        // partition and pool — straight from the telemetry notes the
        // profiler recorded, so the text dump and the exported trace
        // describe the same run.
        for (key, text) in &rec.as_ref().expect("emit-graph runs instrumented").notes {
            eprintln!("{key}: {text}");
        }
    }
    if args.metrics {
        eprint!(
            "{}",
            rec.as_ref().expect("--metrics runs instrumented").summary()
        );
    }
    if let Some(path) = &args.trace_out {
        let trace = rec
            .as_ref()
            .expect("--trace-out runs instrumented")
            .chrome_trace();
        std::fs::write(path, trace).map_err(|e| format!("cannot write {path}: {e}"))?;
        if !args.quiet {
            eprintln!("trace written to {path}");
        }
    }
    if args.quiet {
        print_outputs(&prof.outputs)?;
    } else {
        let stats = opt.stats();
        eprintln!(
            "nodes: {} ({} interpreted, {} linear, {} freq, {} redund)",
            stats.filters, stats.originals, stats.linear, stats.freq, stats.redund
        );
        let mut sched_desc = if prof.threads > 1 {
            format!("{} scheduler, {} threads", prof.sched.label(), prof.threads)
        } else {
            format!("{} scheduler", prof.sched.label())
        };
        if prof.fission > 1 {
            sched_desc.push_str(&format!(", fission x{}", prof.fission));
        }
        match args.mode {
            ExecMode::Measured => eprintln!(
                "{} outputs in {:?} [{sched_desc}]: {:.1} flops/output, {:.1} mults/output",
                prof.outputs.len(),
                prof.wall,
                prof.flops_per_output(),
                prof.mults_per_output()
            ),
            ExecMode::Fast => eprintln!(
                "{} outputs in {:?} [{sched_desc}, fast/{}]: {:.0} outputs/sec (uncounted)",
                prof.outputs.len(),
                prof.wall,
                args.strategy().label(),
                prof.outputs.len() as f64 / prof.wall.as_secs_f64().max(1e-9),
            ),
        }
        for v in prof.outputs.iter().take(10) {
            println!("{v}");
        }
        if prof.outputs.len() > 10 {
            println!("... ({} more)", prof.outputs.len() - 10);
        }
    }
    Ok(())
}
