//! The knob table is the source of truth. Everything here iterates
//! [`KNOBS`], so a row added to the table is covered without editing
//! this file:
//!
//! * every `samples` entry of every row is accepted in the argv spelling
//!   (`streamlinc --flag value`) and the JSON spelling (an `open` member),
//!   the two parse to equal [`RunSpec`]s, and each refuses the same bad
//!   values;
//! * a row of the exec half never changes the plan-cache key, a row of
//!   the plan half always does;
//! * the README's knob table is the text the table generates.

use streamlin::runtime::spec::{markdown_table, Knob};
use streamlin::runtime::{MatMulStrategy, RunSpec, KNOBS};
use streamlin::service::cache::PlanKey;
use streamlin::service::proto::{parse_request, Request};
use streamlin::support::json::Json;

/// Values no row accepts: not a name, not a count (zero, negative,
/// fractional, non-finite, overflowing), not a fault spec.
const BAD_VALUES: [&str; 7] = [
    "bogus",
    "0",
    "-5",
    "0.5",
    "inf",
    "NaN",
    "99999999999999999999",
];

/// The spec `streamlinc <program> --<flag> <value>` would run: the CLI
/// finds the row by its flag and applies the value over its defaults.
fn via_argv(knob: &Knob, value: &str) -> Result<RunSpec, String> {
    let mut spec = RunSpec::default();
    knob.apply(&mut spec, value).map(|()| spec)
}

/// The spec `{"op":"open",…,"<key>":<value>}` opens, with `value` as a
/// JSON number when it is one and as a string otherwise.
fn via_json(knob: &Knob, value: &str) -> Result<RunSpec, String> {
    let member = match value.parse::<f64>() {
        Ok(n) if n.is_finite() => Json::Num(n),
        _ => Json::Str(value.into()),
    };
    let line = Json::obj(vec![
        ("op", Json::Str("open".into())),
        ("id", Json::Str("s".into())),
        ("program", Json::Str("p".into())),
        (knob.key, member),
    ])
    .dump();
    match parse_request(&line)? {
        Request::Open(open) => Ok(open.spec),
        other => panic!("not an open: {other:?}"),
    }
}

#[test]
fn argv_and_json_spellings_parse_to_equal_specs() {
    for knob in KNOBS {
        let mut sets_something = false;
        for &value in knob.samples {
            let argv = via_argv(knob, value)
                .unwrap_or_else(|why| panic!("--{} {value}: {why}", knob.flag));
            let json = via_json(knob, value)
                .unwrap_or_else(|why| panic!("\"{}\": {value}: {why}", knob.key));
            assert_eq!(argv, json, "{} = {value}", knob.key);
            sets_something |= argv != RunSpec::default();
        }
        assert!(sets_something, "{}: a knob that sets nothing", knob.key);
    }
}

#[test]
fn argv_and_json_spellings_refuse_the_same_values() {
    for knob in KNOBS {
        for bad in BAD_VALUES {
            assert!(
                via_argv(knob, bad).is_err(),
                "--{} accepted `{bad}`",
                knob.flag
            );
            let why = via_json(knob, bad).expect_err(&format!("\"{}\" accepted `{bad}`", knob.key));
            assert!(
                why.contains(&format!("`{}`", knob.key)),
                "the refusal must name the member: {why}"
            );
        }
    }
}

#[test]
fn the_cache_key_is_exactly_the_plan_half() {
    // `matmul` is pinned because `mode`'s one compile-time effect is the
    // kernel an unset `matmul` defaults to; with it pinned, `mode` is
    // purely an exec-half knob.
    let base = RunSpec {
        matmul: Some(MatMulStrategy::Blocked),
        ..RunSpec::default()
    };
    let key = |spec: &RunSpec| PlanKey::of("program text", spec.plan());
    for knob in KNOBS {
        let mut distinct = 0;
        for &value in knob.samples {
            let mut changed = base.clone();
            knob.apply(&mut changed, value).unwrap();
            if changed == base {
                continue; // the sampled value is the default
            }
            distinct += 1;
            if knob.compile_time {
                assert_ne!(
                    key(&changed),
                    key(&base),
                    "{} = {value} must select a different artifact",
                    knob.key
                );
            } else {
                assert_eq!(
                    key(&changed),
                    key(&base),
                    "{} = {value} must not reach the compiler",
                    knob.key
                );
            }
        }
        assert!(
            distinct > 0,
            "{}: no sampled value differs from the default",
            knob.key
        );
    }
    assert_ne!(
        key(&base),
        PlanKey::of("other text", base.plan()),
        "the source hash is the rest of the key"
    );
}

/// Normalisation happens once, in `RunSpec::plan`: requests that compile
/// to the same artifact are equal there.
#[test]
fn normalisation_makes_equivalent_requests_equal() {
    use std::time::Duration;
    use streamlin::runtime::ExecMode;
    use streamlin::support::InjectFaults;
    let base = RunSpec::default();
    let fast = RunSpec {
        mode: ExecMode::Fast,
        ..base.clone()
    };
    let fast_simd = RunSpec {
        matmul: Some(MatMulStrategy::Simd),
        ..fast.clone()
    };
    assert_eq!(fast.plan(), fast_simd.plan());
    assert_ne!(
        fast.plan(),
        base.plan(),
        "the default kernel differs by mode"
    );
    let measured_simd = RunSpec {
        matmul: Some(MatMulStrategy::Simd),
        ..base.clone()
    };
    assert_eq!(
        measured_simd.plan(),
        fast.plan(),
        "the kernel is the mode's only compile-time effect"
    );
    let staged = RunSpec {
        threads: Some(2),
        quantum: 8,
        ..base.clone()
    };
    assert_eq!(staged.plan().threads, Some(2));
    assert_ne!(
        staged.plan(),
        RunSpec {
            quantum: 4,
            ..staged.clone()
        }
        .plan()
    );
    let drilled = RunSpec {
        fault: Some(InjectFaults::parse("1:panic").unwrap()),
        watchdog: Some(Duration::from_millis(5)),
        ..staged.clone()
    };
    assert_eq!(
        drilled.plan(),
        staged.plan(),
        "a drill and a watchdog act on the session, not the artifact"
    );
}

#[test]
fn every_run_value_has_exactly_one_row() {
    let mut keys: Vec<&str> = KNOBS.iter().map(|k| k.key).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "cert",
            "config",
            "fault",
            "matmul",
            "mode",
            "quantum",
            "threads",
            "tier",
            "watchdog_ms"
        ],
        "the independently settable run values are these nine"
    );
    let mut flags: Vec<&str> = KNOBS.iter().map(|k| k.flag).collect();
    flags.sort_unstable();
    flags.dedup();
    assert_eq!(flags.len(), KNOBS.len(), "flags find their row uniquely");
}

#[test]
fn the_readme_prints_the_generated_table() {
    let readme = std::fs::read_to_string("README.md").expect("README.md");
    assert!(
        readme.contains(&markdown_table()),
        "README.md must carry the knob table exactly as `spec::markdown_table()` renders it:\n{}",
        markdown_table()
    );
}
