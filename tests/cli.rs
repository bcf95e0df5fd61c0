//! Integration tests for the `streamlinc` command-line driver, run against
//! the checked-in benchmark sources in `assets/`.

use std::process::Command;

use streamlin::runtime::{front_end, RunSpec, Tier};

mod reference;

fn streamlinc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_streamlinc"))
}

#[test]
fn compiles_and_runs_the_fir_asset() {
    let out = streamlinc()
        .args(["assets/fir.str", "-n", "64", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(lines.len(), 64);
    for l in lines {
        l.parse::<f64>().expect("numeric program output");
    }
}

/// A measured run of zero outputs reports no per-output rates (the init
/// firings divided by no outputs are not one).
#[test]
fn zero_outputs_report_no_per_output_rates() {
    let out = streamlinc()
        .args(["assets/fir.str", "-n", "0"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let report = stderr
        .lines()
        .find(|l| l.starts_with("0 outputs in "))
        .unwrap_or_else(|| panic!("no output report in {stderr}"));
    assert!(!report.contains("/output"), "{report}");
    assert!(out.stdout.is_empty());
}

/// The `streamlinc … | head -1` shape: the reader is gone before the
/// outputs are written. The run ends quietly with exit 0 — no panic, no
/// "Broken pipe" on stderr.
#[test]
fn a_closed_stdout_pipe_is_a_quiet_exit() {
    let mut child = streamlinc()
        .args(["assets/fir.str", "-n", "4096", "--quiet"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take()); // close the read end, as an exited `head` does
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
}

/// The `streamlinc … | head -2` shape for the other two things
/// `streamlinc` prints: the first-ten preview of a run without `--quiet`
/// and the `--lint` findings. The reader is gone before either is
/// written; the run still ends with its own exit code and no panic.
#[test]
fn a_closed_stdout_pipe_ends_the_preview_and_the_lints_quietly() {
    for args in [
        &["assets/rateconvert.str", "-n", "50"][..],
        &["assets/lintbait.str", "--lint"][..],
    ] {
        let mut child = streamlinc()
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{args:?}: {stderr}");
    }
}

#[test]
fn all_configs_agree_on_rate_convert_asset() {
    let mut outputs = Vec::new();
    for config in ["baseline", "linear", "freq", "autosel"] {
        let out = streamlinc()
            .args([
                "assets/rateconvert.str",
                "--config",
                config,
                "-n",
                "128",
                "--quiet",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{config}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let vals: Vec<f64> = std::str::from_utf8(&out.stdout)
            .unwrap()
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        outputs.push((config, vals));
    }
    let (_, base) = &outputs[0];
    for (config, vals) in &outputs[1..] {
        assert_eq!(vals.len(), base.len(), "{config}");
        for (a, b) in base.iter().zip(vals) {
            assert!((a - b).abs() < 1e-6, "{config}: {a} vs {b}");
        }
    }
}

/// The CLI runs the static plan; the data-driven reference engine runs the
/// same program and must print the same text, which for printed floats is
/// the same bits.
#[test]
fn schedulers_agree_on_the_fir_asset() {
    let out = streamlinc()
        .args(["assets/fir.str", "-n", "64", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let planned: Vec<String> = std::str::from_utf8(&out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let src = std::fs::read_to_string("assets/fir.str").unwrap();
    let front = front_end(&src, &RunSpec::default().plan(), None).unwrap();
    let reference = reference::run(&front.opt, 64, Tier::default(), true).unwrap();
    let want: Vec<String> = reference.outputs.iter().map(|v| format!("{v}")).collect();
    assert_eq!(planned, want);
}

/// `--sched` went with the data-driven session family: it is an unknown
/// flag now, a usage error like any other.
#[test]
fn rejects_unknown_scheduler() {
    let out = streamlinc()
        .args(["assets/fir.str", "--sched", "nope"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

/// `--fission` went with data-parallel fission: an unknown flag, a usage
/// error before the program is read.
#[test]
fn rejects_the_fission_flag() {
    let out = streamlinc()
        .args(["assets/fir.str", "--fission", "2"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("declarations"));
}

#[test]
fn reports_errors_for_bad_programs() {
    let dir = std::env::temp_dir().join("streamlinc_bad.str");
    std::fs::write(&dir, "void->void pipeline Main { add Missing(); }").unwrap();
    let out = streamlinc()
        .arg(dir.to_str().unwrap())
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("Missing"));
}

#[test]
fn rejects_unknown_config() {
    let out = streamlinc()
        .args(["assets/fir.str", "--config", "nope"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    // A usage error, caught by the knob table before the program is read.
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --config"), "{stderr}");
    assert!(!stderr.contains("declarations"), "{stderr}");
}

/// Every enumerated or numeric knob is validated the same way, whatever
/// the flag: unknown names and zero, negative or fractional counts are
/// usage errors before anything is parsed.
#[test]
fn rejects_bad_knob_values_before_parsing() {
    for (flag, bad) in [
        ("--mode", "turbo"),
        ("--matmul", "fused"),
        ("--matmul", "diagonal"),
        ("--tier", "jit"),
        ("--cert", "maybe"),
        ("--threads", "0"),
        ("--threads", "1.5"),
        ("--quantum", "-2"),
        ("--quantum", "0"),
        ("--watchdog-ms", "0"),
        ("--watchdog-ms", "-5"),
    ] {
        let out = streamlinc()
            .args(["assets/fir.str", flag, bad])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}: {stderr}");
        assert!(
            stderr.contains(&format!("bad {flag}")),
            "{flag} {bad}: {stderr}"
        );
        assert!(!stderr.contains("declarations"), "{flag} {bad}: {stderr}");
    }
}

#[test]
fn fault_injection_flag_degrades_to_identical_output() {
    // Clean pipeline run = the byte-exact reference.
    let reference = streamlinc()
        .args(["assets/fir.str", "--threads", "2", "-n", "64", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Same run with an injected worker panic: the supervisor must fall
    // back to the single-threaded static plan, say so on stderr, and
    // print byte-identical program output.
    let out = streamlinc()
        .args([
            "assets/fir.str",
            "--threads",
            "2",
            "--fault-inject",
            "7:panic@s1",
            "--watchdog-ms",
            "2000",
            "-n",
            "64",
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("degraded to the single-threaded static plan"),
        "degradation notice missing: {stderr}"
    );

    let quiet = streamlinc()
        .args([
            "assets/fir.str",
            "--threads",
            "2",
            "--fault-inject",
            "7:panic@s1",
            "-n",
            "64",
            "--quiet",
        ])
        .output()
        .expect("binary runs");
    assert!(
        quiet.status.success(),
        "{}",
        String::from_utf8_lossy(&quiet.stderr)
    );
    assert_eq!(
        quiet.stdout, reference.stdout,
        "faulted run must print byte-identical program output"
    );
}

/// A fault plan acts inside the pipeline executor only: without
/// `--threads` the drill injects nothing, and says so instead of passing
/// silently. Output and exit status are the undrilled run's.
#[test]
fn an_inert_fault_drill_says_so() {
    let run = |extra: &[&str]| {
        let out = streamlinc()
            .args(["assets/fir.str", "-n", "4"])
            .args(extra)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        (out.stdout, stderr)
    };
    let inert = "--fault-inject is inert: no pipeline executor";
    let (clean, stderr) = run(&["--quiet"]);
    assert!(stderr.is_empty(), "{stderr}");

    let (drilled, stderr) = run(&["--fault-inject", "7:panic@s1"]);
    assert_eq!(stderr.matches(inert).count(), 1, "{stderr}");
    assert!(!stderr.contains("degraded"), "{stderr}");
    assert!(!drilled.is_empty());

    let (quiet, stderr) = run(&["--fault-inject", "7:panic@s1", "--quiet"]);
    assert!(stderr.is_empty(), "--quiet prints no notice: {stderr}");
    assert_eq!(quiet, clean, "an inert drill changes no output bit");

    // The same plan on the pipeline executor is armed, not inert.
    let (_, stderr) = run(&["--fault-inject", "7:panic@s1", "--threads", "2"]);
    assert!(!stderr.contains(inert), "{stderr}");
    assert!(stderr.contains("degraded"), "{stderr}");
}

#[test]
fn rejects_malformed_fault_specs() {
    let out = streamlinc()
        .args(["assets/fir.str", "--fault-inject", "notaspec"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad --fault-inject spec"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn lint_reports_multiple_spanned_diagnostics_in_one_run() {
    let out = streamlinc()
        .args(["assets/lintbait.str", "--lint", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut codes: Vec<&str> = stdout
        .lines()
        .filter_map(|l| {
            let start = l.find("warning[")? + "warning[".len();
            let end = l[start..].find(']')? + start;
            Some(&l[start..end])
        })
        .collect();
    codes.sort_unstable();
    codes.dedup();
    assert!(
        codes.len() >= 2,
        "expected at least 2 distinct lint codes, got {codes:?} from:\n{stdout}"
    );
    // Every diagnostic is spanned: `path:line:col:`.
    for l in stdout.lines() {
        assert!(
            l.starts_with("assets/lintbait.str:"),
            "unspanned diagnostic: {l}"
        );
        let mut parts = l.split(':');
        parts.next();
        parts.next().unwrap().parse::<u32>().expect("line number");
        parts.next().unwrap().parse::<u32>().expect("column");
    }
}

#[test]
fn deny_lints_fails_on_lintbait_and_passes_clean_assets() {
    let out = streamlinc()
        .args(["assets/lintbait.str", "--deny-lints", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "lintbait must fail --deny-lints");

    for asset in ["assets/fir.str", "assets/rateconvert.str"] {
        let out = streamlinc()
            .args([asset, "--deny-lints", "--quiet"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{asset} should be lint-clean: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn lintbait_still_runs_despite_lints() {
    let out = streamlinc()
        .args(["assets/lintbait.str", "-n", "8", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::str::from_utf8(&out.stdout).unwrap().lines().count(), 8);
}

#[test]
fn provable_rate_violation_is_a_spanned_compile_error() {
    let dir = std::env::temp_dir().join("streamlinc-lint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad_rate.str");
    std::fs::write(
        &path,
        "void->void pipeline Main { add S(); add K(); }\n\
         void->float filter S { work push 2 { push(1.0); } }\n\
         float->void filter K { work pop 1 { println(pop()); } }\n",
    )
    .unwrap();
    let out = streamlinc()
        .args([path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("declared push rate is 2 but the body always pushes 1"),
        "{stderr}"
    );
    assert!(stderr.contains("at 2:"), "span missing: {stderr}");
}

/// `--metrics` reports the compile phases the shared compiler recorded,
/// front end included (`analyze` used to run untimed).
#[test]
fn metrics_lists_every_compile_phase_in_order() {
    let out = streamlinc()
        .args(["assets/fir.str", "--threads", "2", "--metrics", "-n", "32"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let mut at = 0;
    for phase in [
        "parse",
        "elaborate",
        "analyze",
        "select",
        "flatten",
        "plan",
        "partition",
    ] {
        let found = stderr[at..]
            .find(&format!("\n  {phase} "))
            .unwrap_or_else(|| panic!("phase `{phase}` missing or out of order:\n{stderr}"));
        at += found + 1;
    }
}

/// `--metrics` ends with the filters whose analysis walks took the most
/// steps, heaviest first, against the walk's fuel: on `fir.str` the
/// 64-tap low-pass filter, whose loop the walk unrolls.
#[test]
fn metrics_name_the_heaviest_walks() {
    let out = streamlinc()
        .args(["assets/fir.str", "--metrics", "-n", "4", "--quiet"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let mut lines = stderr
        .lines()
        .skip_while(|l| !l.starts_with("heaviest walks"));
    assert_eq!(
        lines.next(),
        Some("heaviest walks (steps; fuel 2000000 per phase)"),
        "{stderr}"
    );
    let rows: Vec<(u64, &str)> = lines
        .map(|l| {
            let (steps, name) = l.trim_start().split_once("  ").expect("steps, then a name");
            (steps.parse().expect("a step count"), name)
        })
        .collect();
    let names: Vec<&str> = rows.iter().map(|r| r.1).collect();
    assert_eq!(
        names,
        [
            "LowPassFilter(1, 1.0471975511965976, 64)",
            "FloatSource",
            "FloatPrinter"
        ]
    );
    assert!(
        rows[0].0 > 64 && rows.windows(2).all(|w| w[0].0 >= w[1].0),
        "{rows:?}"
    );
}

/// The multi-cycle pass is visible: `fir.str` under `linear` prints one
/// value a cycle, so a pass is 64 cycles. A read of 1000 runs 15 passes
/// (960 values), 39 single whole cycles and the stepped cycle that holds
/// the stop.
#[test]
fn metrics_show_the_cycles_per_pass() {
    let out = streamlinc()
        .args(["assets/fir.str", "--config", "linear", "--metrics"])
        .args(["-n", "1000", "--quiet"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let line = |key: &str| {
        let found = stderr.lines().find(|l| l.trim_start().starts_with(key));
        found.unwrap_or_else(|| panic!("no `{key}` line in {stderr}"))
    };
    assert!(
        line("schedule:").ends_with("cycle order: 3 steps, 1 outputs, 64 cycles per pass"),
        "{stderr}"
    );
    assert_eq!(
        line("cycles:").trim(),
        "cycles: 999 whole in 15 passes, 1 stepped"
    );
}

/// Which tier ran is part of the decision dump: an `interp` label per
/// interpreted filter, a `typer` note for every phase the typer refused
/// (with the reason), and per filter the fused-loop entries against the
/// entry checks that bailed. `Corr`'s second loop never iterates but
/// indexes the tape at −1, which its entry check cannot vouch for: a bail
/// on every firing, and no error. `Clip` stores a float into an int in a
/// branch no run takes, so it can only run on the reference tier.
#[test]
fn emit_graph_says_which_tier_ran_and_how_fused_loops_fared() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("which_tier.str");
    let program = "
        void->void pipeline Main { add Ramp(); add Corr(); add Clip(); add Printer(); }
        void->float filter Ramp { float x; work push 1 { push(x++); } }
        float->float filter Corr {
            float[4] h;
            init { for (int i = 0; i < 4; i++) h[i] = i + 1; }
            work peek 4 pop 1 push 1 {
                float acc = 0;
                int past = -1;
                for (int i = 0; i < 4; i++) acc += h[i] * peek(i);
                for (int i = 0; i < 0; i++) acc += peek(past) * peek(i);
                push(acc * acc); pop();
            }
        }
        float->float filter Clip {
            int seen;
            work pop 1 push 1 {
                float t = pop();
                if (seen < 0) { seen = 0.5; }
                seen++;
                if (t > 1000) { push(1000); } else { push(t); }
            }
        }
        float->void filter Printer { work pop 1 { println(pop()); } }";
    std::fs::write(&path, program).unwrap();
    let notes = |extra: &[&str]| {
        let out = streamlinc()
            .arg(&path)
            .args(["-n", "5", "--emit-graph"])
            .args(extra)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            "400\n900\n1000\n1000\n1000\n"
        );
        let keys = ["interp: ", "typer: ", "fused: "];
        let kept: Vec<&str> = (stderr.lines())
            .filter(|l| keys.iter().any(|k| l.starts_with(k)))
            .collect();
        kept.join("\n")
    };
    assert_eq!(
        notes(&[]),
        "interp: Ramp: typed\n\
         interp: Corr: typed\n\
         typer: Clip work refused: store of a value the variable's type cannot hold\n\
         interp: Clip: treewalk\n\
         fused: Corr: 10 entries, 5 bails"
    );
    assert_eq!(
        notes(&["--tier", "treewalk"]),
        "interp: Ramp: treewalk\n\
         interp: Corr: treewalk\n\
         typer: Clip work refused: store of a value the variable's type cannot hold\n\
         interp: Clip: treewalk"
    );
    // The pipeline's workers report their own filters' loops (how many
    // depends on how far past five outputs its cycles run).
    assert!(notes(&["--threads", "2"]).contains("\nfused: Corr: "));
}
