//! `streamlinc` — command-line driver for the streamlin compiler.
//!
//! Parses a StreamIt-dialect program, runs the linear analysis and the
//! requested optimization, executes it, and reports structure and
//! operation counts:
//!
//! ```console
//! $ streamlinc program.str                        # autosel, 1000 outputs
//! $ streamlinc program.str --config freq -n 5000
//! $ streamlinc program.str --mode fast            # uncounted, SIMD kernels
//! $ streamlinc program.str --threads 4            # pipeline-parallel stages
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

use streamlin::graph::analyze::ANALYSIS_FUEL;
use streamlin::prelude::*;
use streamlin::runtime::spec::{count, usage_flags};
use streamlin::runtime::{front_end, KNOBS};
use streamlin::support::{fmt_f64, Recorder};

/// What to run (`spec`, filled from the knob table) and how to present it.
struct Args {
    path: String,
    spec: RunSpec,
    outputs: usize,
    emit_graph: bool,
    /// Print the telemetry summary (where time went: phases, stages,
    /// rings, nodes) after the run.
    metrics: bool,
    /// Write a Chrome trace-event JSON timeline of the run here.
    trace_out: Option<String>,
    quiet: bool,
    /// `--lint`: print every advisory diagnostic the static analysis
    /// produced (spanned, one line each) and skip execution.
    lint: bool,
    /// `--deny-lints`: like `--lint`, but exit non-zero if any lint
    /// fired (for CI).
    deny_lints: bool,
}

impl Args {
    /// Whether the run needs a `Recorder`: any of the telemetry outputs,
    /// `--emit-graph` (whose decision dump is the recorder's notes), or a
    /// fault drill (whose `fault` note says whether it found an executor
    /// to act on).
    fn instrumented(&self) -> bool {
        self.metrics || self.trace_out.is_some() || self.emit_graph || self.spec.fault.is_some()
    }
}

/// Prints `why` (if any) and the usage text — the run knobs straight from
/// the table — and exits 2.
fn usage(why: Option<String>) -> ! {
    if let Some(why) = why {
        eprintln!("streamlinc: {why}");
    }
    eprintln!(
        "usage: streamlinc <program.str> [-n <outputs>] [--emit-graph] [--metrics]\n\
         \x20                [--trace-out <file>] [--quiet] [--lint] [--deny-lints]\n{}",
        usage_flags("                 ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        path: String::new(),
        spec: RunSpec::default(),
        outputs: 1000,
        emit_graph: false,
        metrics: false,
        trace_out: None,
        quiet: false,
        lint: false,
        deny_lints: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let flag = a.strip_prefix("--").unwrap_or("");
        if let Some(knob) = KNOBS.iter().find(|k| k.flag == flag) {
            let raw = it.next().unwrap_or_else(|| usage(None));
            if let Err(why) = knob.apply(&mut args.spec, &raw) {
                usage(Some(format!("bad --{flag} spec: {why}")));
            }
            continue;
        }
        match a.as_str() {
            "-n" | "--outputs" => {
                let raw = it.next().unwrap_or_else(|| usage(None));
                match count(&raw, 0) {
                    Ok(n) => args.outputs = n as usize,
                    Err(why) => usage(Some(format!("bad -n spec: {why}"))),
                }
            }
            "--lint" => args.lint = true,
            "--deny-lints" => {
                args.lint = true;
                args.deny_lints = true;
            }
            "--emit-graph" => args.emit_graph = true,
            "--metrics" => args.metrics = true,
            "--trace-out" => args.trace_out = Some(it.next().unwrap_or_else(|| usage(None))),
            "--quiet" => args.quiet = true,
            other if args.path.is_empty() && !other.starts_with('-') => {
                args.path = other.to_string()
            }
            _ => usage(None),
        }
    }
    if args.path.is_empty() {
        usage(None);
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

type Stdout = std::io::BufWriter<std::io::StdoutLock<'static>>;

/// Runs `write` on a single buffered lock of stdout: the one way
/// `streamlinc` prints. A reader that has gone away (`streamlinc … | head
/// -1`) ends the run quietly: the lines it wanted were delivered.
fn print(write: impl FnOnce(&mut Stdout) -> std::io::Result<()>) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    match write(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

/// Writes values one per line with the workspace's one number writer (the
/// text `{}` would give, without `std::fmt`).
fn write_values(out: &mut Stdout, values: &[f64]) -> std::io::Result<()> {
    let mut line = String::new();
    values.iter().try_for_each(|v| {
        line.clear();
        fmt_f64::write(&mut line, *v);
        line.push('\n');
        out.write_all(line.as_bytes())
    })
}

/// `--lint`: one line per distinct (position, code, message, declaration)
/// — a declaration instantiated many times reports each finding once.
fn lint(args: &Args, source: &str) -> Result<(), String> {
    let program = parse(source).map_err(|e| e.to_string())?;
    let graph = elaborate(&program).map_err(|e| e.to_string())?;
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
    print(|out| {
        lints.iter().try_for_each(|(line, col, code, msg, decl)| {
            writeln!(
                out,
                "{}:{line}:{col}: warning[{code}]: {msg} (in filter {decl})",
                args.path
            )
        })
    })?;
    if !args.quiet {
        eprintln!("{} lint(s)", lints.len());
    }
    if args.deny_lints && !lints.is_empty() {
        return Err(format!("--deny-lints: {} lint(s)", lints.len()));
    }
    Ok(())
}

/// `--metrics`' last table: the five filters whose analysis walks took
/// the most steps, each phase's walk against its fuel.
fn heaviest_walks(graph: &Stream) -> String {
    let mut walks = Vec::new();
    graph.for_each_filter(&mut |inst| walks.push((inst.facts.walk_steps, inst.name.clone())));
    walks.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut out = format!("heaviest walks (steps; fuel {ANALYSIS_FUEL} per phase)\n");
    for (steps, name) in walks.iter().take(5) {
        out.push_str(&format!("  {steps:>9}  {name}\n"));
    }
    out
}

fn run(args: &Args) -> Result<(), String> {
    let source = std::fs::read_to_string(&args.path)
        .map_err(|e| format!("cannot read {}: {e}", args.path))?;
    if args.lint {
        return lint(args, &source);
    }
    // The recorder's creation instant is the trace epoch, so it exists
    // before the first compile phase; uninstrumented runs never build one
    // and hand `None` down the same code. Either way the run is the one
    // spine every caller uses: front end, compile, open, read, close — a
    // fault or watchdog in the spec supervises it, and an infrastructure
    // failure degrades to the single-threaded static plan instead of
    // hanging or dying.
    let mut rec = args.instrumented().then(Recorder::new);
    let plan = args.spec.plan();
    let front = front_end(&source, &plan, rec.as_mut())?;
    if !args.quiet {
        eprintln!(
            "parsed {} declarations; {} filters ({} linear)",
            front.decls,
            front.graph.filter_count(),
            front.linear
        );
    }
    let opt = &front.opt;
    if args.emit_graph {
        eprintln!("structure: {}", opt.describe());
    }
    let prof = args
        .spec
        .run_with(opt, args.outputs, rec.as_mut())
        .map_err(|e| e.to_string())?;
    if !args.quiet {
        if let Some(reason) = &prof.degraded {
            eprintln!("streamlinc: degraded to the single-threaded static plan ({reason})");
        }
        // A drill that opened on a single-threaded engine injected nothing:
        // say so, or its clean output reads as a passed drill.
        let mut notes = rec.iter().flat_map(|r| &r.notes);
        if let Some((_, why)) = notes.find(|(k, why)| *k == "fault" && why.starts_with("inert")) {
            eprintln!("streamlinc: --fault-inject is {why}");
        }
    }

    if args.emit_graph {
        // The decision dump: schedule shape, partition and pool — straight from the telemetry notes the
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
        eprint!("{}", heaviest_walks(&front.graph));
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
        print(|out| write_values(out, &prof.outputs))?;
    } else {
        let stats = opt.stats();
        eprintln!(
            "nodes: {} ({} interpreted, {} linear, {} freq, {} redund)",
            stats.filters, stats.originals, stats.linear, stats.freq, stats.redund
        );
        let how = format!("threads: {}", prof.threads);
        match args.spec.mode {
            // No outputs, no per-output rates: the init firings' counts
            // divided by nothing are not a rate.
            ExecMode::Measured if prof.outputs.is_empty() => {
                eprintln!("0 outputs in {:?} [{how}]", prof.wall)
            }
            ExecMode::Measured => eprintln!(
                "{} outputs in {:?} [{how}]: {:.1} flops/output, {:.1} mults/output",
                prof.outputs.len(),
                prof.wall,
                prof.flops_per_output(),
                prof.mults_per_output()
            ),
            ExecMode::Fast => eprintln!(
                "{} outputs in {:?} [{how}, fast/{}]: {:.0} outputs/sec (uncounted)",
                prof.outputs.len(),
                prof.wall,
                plan.matmul.label(),
                prof.outputs.len() as f64 / prof.wall.as_secs_f64().max(1e-9),
            ),
        }
        print(|out| {
            let shown = prof.outputs.len().min(10);
            write_values(out, &prof.outputs[..shown])?;
            match prof.outputs.len() - shown {
                0 => Ok(()),
                more => writeln!(out, "... ({more} more)"),
            }
        })?;
    }
    Ok(())
}
