//! Integration tests for the `streamlinc` command-line driver, run against
//! the checked-in benchmark sources in `assets/`.

use std::process::Command;

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

#[test]
fn schedulers_agree_on_the_fir_asset() {
    let run = |sched: &str| -> Vec<String> {
        let out = streamlinc()
            .args(["assets/fir.str", "--sched", sched, "-n", "64", "--quiet"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{sched}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::str::from_utf8(&out.stdout)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    };
    let stat = run("static");
    let dyn_ = run("dynamic");
    assert_eq!(stat.len(), 64);
    // Textual equality is bit-level equality of the printed floats.
    assert_eq!(stat, dyn_);
}

#[test]
fn rejects_unknown_scheduler() {
    let out = streamlinc()
        .args(["assets/fir.str", "--sched", "nope"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
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
        ("--tier", "jit"),
        ("--cert", "maybe"),
        ("--threads", "0"),
        ("--threads", "1.5"),
        ("--fission", "-2"),
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
fn fission_flag_prints_identical_output_and_reports_the_decision() {
    // The unfissed run is the byte-exact reference for every width; the
    // emit-graph run must name the fissed node (FIR freq's dominant node
    // is duplicable, so `--fission 2` must engage, not silently no-op).
    let reference = streamlinc()
        .args([
            "assets/fir.str",
            "--config",
            "freq",
            "--threads",
            "2",
            "-n",
            "96",
            "--quiet",
        ])
        .output()
        .expect("binary runs");
    assert!(reference.status.success());
    for width in ["2", "4", "auto"] {
        let out = streamlinc()
            .args([
                "assets/fir.str",
                "--config",
                "freq",
                "--threads",
                "2",
                "--fission",
                width,
                "--emit-graph",
                "-n",
                "96",
                "--quiet",
            ])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--fission {width}: {stderr}");
        assert_eq!(
            out.stdout, reference.stdout,
            "--fission {width}: output bytes differ from the unfissed run"
        );
        assert!(
            stderr.contains("fission: freq"),
            "--fission {width}: decision missing from --emit-graph: {stderr}"
        );
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
