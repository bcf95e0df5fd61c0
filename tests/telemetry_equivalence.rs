//! The telemetry contract: instrumenting a run with a [`Recorder`] must
//! not change what the run computes. For every benchmark program, every
//! execution mode and pipeline budget,
//! `RunSpec::run_recorded` (probe on) must produce printed output
//! **bit-identical** to the same engines handed no recorder (probe off),
//! with identical operation tallies and firing counts — the probe
//! observes the run, it never participates in it. One case holds the
//! recorded *and* drilled run to the same bits.
//!
//! A second group pins the *shape* of what was observed: the Chrome
//! trace export parses under the workspace's own JSON reader, satisfies
//! the viewer invariants ([`validate_trace`]), carries one named lane
//! per worker plus the coordinator, and the recorder's firing totals
//! agree with the profile's own counters.

use streamlin::core::combine::analyze_graph;
use streamlin::core::{Config, OptStream};
use streamlin::runtime::flat::flatten;
use streamlin::runtime::telemetry::validate_trace;
use streamlin::runtime::{ExecMode, RunSpec};
use streamlin::support::probe::Event;
use streamlin::support::{InjectFaults, NoCount, OpCounter, Recorder};

mod reference;

fn configured(bench: &streamlin::benchmarks::Benchmark, config: Config) -> OptStream {
    config
        .apply(bench.graph(), &analyze_graph(bench.graph()))
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
}

/// Asserts one probe-on run against its probe-off reference.
fn assert_identical(
    name: &str,
    label: &str,
    what: &str,
    mode: ExecMode,
    reference: &streamlin::runtime::Profile,
    probed: &streamlin::runtime::Profile,
) {
    assert_eq!(
        probed.outputs.len(),
        reference.outputs.len(),
        "{name} {label} {what}: output counts differ"
    );
    for (i, (a, b)) in reference.outputs.iter().zip(&probed.outputs).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name} {label} {what}: output {i} differs: {a} vs {b}"
        );
    }
    assert_eq!(
        reference.firings, probed.firings,
        "{name} {label} {what}: firing counts differ under the probe"
    );
    if mode == ExecMode::Measured {
        assert_eq!(
            reference.ops, probed.ops,
            "{name} {label} {what}: tallies differ under the probe"
        );
    }
}

/// The full matrix for one benchmark: modes × threads {1, 2}, probe on vs
/// probe off, plus the single-threaded plan and the data-driven reference
/// engine.
fn check(bench: &streamlin::benchmarks::Benchmark, outputs: usize) {
    for config in [Config::Baseline, Config::AutoSel] {
        let label = config.label();
        let opt = configured(bench, config);
        for mode in [ExecMode::Measured, ExecMode::Fast] {
            // Probe off, then probe on, for one spec.
            let both = |spec: RunSpec| {
                let reference = spec
                    .run(&opt, outputs)
                    .unwrap_or_else(|e| panic!("{} {label}: {e}", bench.name()));
                let probed = spec
                    .run_recorded(&opt, outputs, &mut Recorder::new())
                    .unwrap_or_else(|e| panic!("{} {label} probed: {e}", bench.name()));
                (reference, probed)
            };
            let base = RunSpec {
                mode,
                ..RunSpec::default()
            };
            // The single-threaded plan.
            let (reference, probed) = both(base.clone());
            assert_identical(bench.name(), label, mode.label(), mode, &reference, &probed);
            // The reference engine, which records a span per firing.
            let on_reference = |rec: Option<&mut Recorder>| {
                let flat = flatten(&opt, base.plan().matmul).unwrap();
                let run = match mode {
                    ExecMode::Measured => reference::run_flat::<OpCounter>(flat, outputs, rec),
                    ExecMode::Fast => reference::run_flat::<NoCount>(flat, outputs, rec),
                };
                run.unwrap_or_else(|e| panic!("{} {label} reference: {e}", bench.name()))
            };
            let (off, on) = (on_reference(None), on_reference(Some(&mut Recorder::new())));
            let bits = |r: &reference::Reference| {
                r.outputs.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let what = format!("{} {label} reference {}", bench.name(), mode.label());
            assert_eq!(
                bits(&off),
                bits(&on),
                "{what}: outputs differ under the probe"
            );
            assert_eq!(
                (off.firings, off.ops),
                (on.firings, on.ops),
                "{what}: counts differ"
            );
            // The pipeline executor across stage budgets.
            for threads in [1usize, 2] {
                let (reference, probed) = both(RunSpec {
                    threads: Some(threads),
                    ..base.clone()
                });
                let what = format!("{} t{threads}", mode.label());
                assert_identical(bench.name(), label, &what, mode, &reference, &probed);
            }
        }
    }
}

#[test]
fn fir_probe_is_invisible() {
    check(&streamlin::benchmarks::fir(64), 512);
}

#[test]
fn rate_convert_probe_is_invisible() {
    check(&streamlin::benchmarks::rate_convert(), 256);
}

#[test]
fn target_detect_probe_is_invisible() {
    check(&streamlin::benchmarks::target_detect(), 256);
}

#[test]
fn fm_radio_probe_is_invisible() {
    check(&streamlin::benchmarks::fm_radio(), 128);
}

#[test]
fn radar_probe_is_invisible() {
    check(&streamlin::benchmarks::radar(8, 2), 64);
}

#[test]
fn filter_bank_probe_is_invisible() {
    check(&streamlin::benchmarks::filter_bank(), 128);
}

#[test]
fn vocoder_probe_is_invisible() {
    check(&streamlin::benchmarks::vocoder(), 64);
}

#[test]
fn oversampler_probe_is_invisible() {
    check(&streamlin::benchmarks::oversampler(), 512);
}

#[test]
fn dtoa_probe_is_invisible() {
    check(&streamlin::benchmarks::dtoa(), 256);
}

/// Reads long enough to run whole steady cycles (`runtime::plan`'s cycle
/// order; the counts above stay inside one cycle of most programs): the
/// probe is as invisible there, every ring is sampled under the capacity
/// both orders need, and the notes say which order ran how often.
#[test]
fn whole_cycles_are_recorded_and_invisible() {
    let bench = streamlin::benchmarks::rate_convert();
    for config in [Config::Baseline, Config::AutoSel] {
        let opt = configured(&bench, config);
        let spec = RunSpec {
            mode: ExecMode::Measured,
            ..RunSpec::default()
        };
        let reference = spec.run(&opt, 4000).unwrap();
        let mut rec = Recorder::new();
        let probed = spec.run_recorded(&opt, 4000, &mut rec).unwrap();
        let what = "whole cycles";
        let (name, label) = (bench.name(), config.label());
        assert_identical(name, label, what, spec.mode, &reference, &probed);

        let note = |key: &str| {
            let found = rec.notes.iter().find(|(k, _)| *k == key);
            found.map(|(_, text)| text.as_str()).unwrap_or_default()
        };
        let schedule = note("schedule");
        assert!(
            schedule.contains(" steps, ") && schedule.ends_with(" per pass"),
            "{schedule}"
        );
        let (whole, rest) = note("cycles")
            .split_once(" whole in ")
            .expect("a cycles note");
        assert!(whole.parse::<u64>().unwrap() >= 4, "{label}: {whole} whole");
        let (passes, rest) = rest.split_once(" passes, ").expect("a pass count");
        assert!(
            passes.parse::<u64>().unwrap() >= 1,
            "{label}: {passes} passes"
        );
        assert_eq!(rest, "1 stepped", "{label}: the cycle that holds the stop");
        assert!(rec.rings.len() >= 3, "{label}: every ring is sampled");
        for (chan, ring) in &rec.rings {
            assert!(
                ring.samples > 0 && ring.high_water <= ring.cap,
                "{chan}: {ring:?}"
            );
        }
    }
}

/// The pair no other suite runs: a recorder *and* a fault plan. The
/// recorded drill degrades like the unrecorded one, prints its bits (which
/// are the clean run's), and the recorder tells the story: the armed plan,
/// the supervisor's verdict, the fallback engine's lane.
#[test]
fn a_recorded_drill_degrades_to_identical_bits_and_says_why() {
    let bench = streamlin::benchmarks::fir(64);
    let opt = configured(&bench, Config::AutoSel);
    let clean = RunSpec {
        threads: Some(2),
        ..RunSpec::default()
    };
    let drilled = RunSpec {
        fault: Some(InjectFaults::parse("7:panic@s1").unwrap()),
        ..clean.clone()
    };
    let reference = clean.run(&opt, 256).expect("clean run");
    let unrecorded = drilled.run(&opt, 256).expect("drilled run");
    let mut rec = Recorder::new();
    let recorded = drilled
        .run_recorded(&opt, 256, &mut rec)
        .expect("recorded drilled run");

    assert_eq!(reference.degraded, None);
    for prof in [&unrecorded, &recorded] {
        let why = prof.degraded.as_deref().expect("the drill must degrade");
        assert!(why.contains("injected fault"), "{why}");
        assert_eq!(prof.threads, 1);
        assert_eq!(prof.outputs.len(), reference.outputs.len());
        for (i, (a, b)) in reference.outputs.iter().zip(&prof.outputs).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "output {i} differs");
        }
    }
    let note = |key: &str, prefix: &str| {
        rec.notes
            .iter()
            .any(|(k, text)| *k == key && text.starts_with(prefix))
    };
    assert!(note("fault", "seed=7 spec=panic@s1"), "{:?}", rec.notes);
    assert!(note("supervisor", "degraded:"), "{:?}", rec.notes);
    assert_eq!(rec.lane_names[&1], "engine (fallback)");
}

// ---- trace shape ------------------------------------------------------------

#[test]
fn recorded_trace_has_viewer_shape_and_consistent_totals() {
    let bench = streamlin::benchmarks::fir(64);
    let opt = configured(&bench, Config::AutoSel);
    let mut rec = Recorder::new();
    let prof = RunSpec {
        mode: ExecMode::Fast,
        threads: Some(2),
        ..RunSpec::default()
    }
    .run_recorded(&opt, 512, &mut rec)
    .expect("instrumented pipeline run");

    let trace = rec.chrome_trace();
    let shape = validate_trace(&trace).expect("exported trace must satisfy viewer invariants");
    assert!(shape.spans > 0, "a run must record firing spans");
    assert!(
        shape.lanes >= prof.threads,
        "every worker gets a span lane: {} lanes for {} stages",
        shape.lanes,
        prof.threads
    );
    assert!(
        shape.named_lanes > prof.threads,
        "coordinator + every stage get thread_name metadata"
    );
    assert!(shape.counters > 0, "ring occupancy must be sampled");

    // The recorder's firing total is the profile's firing total: the
    // probe saw every firing the engines performed.
    let recorded: u64 = rec.lanes.values().map(|l| l.firings).sum();
    assert_eq!(
        recorded, prof.firings,
        "recorded firings == performed firings"
    );

    // Phase spans cover the lowering pipeline.
    let compile_ns = rec.compile_ns();
    assert!(compile_ns > 0, "compile phases were timed");
}

#[test]
fn single_threaded_trace_validates_too() {
    let bench = streamlin::benchmarks::rate_convert();
    let opt = configured(&bench, Config::Baseline);
    let mut rec = Recorder::new();
    RunSpec::default()
        .run_recorded(&opt, 256, &mut rec)
        .expect("instrumented classic run");
    let shape = validate_trace(&rec.chrome_trace()).expect("valid trace");
    assert!(shape.spans > 0);
    assert!(shape.named_lanes >= 1, "the engine lane is named");
}

// ---- compile phases ---------------------------------------------------------

fn phases(rec: &Recorder) -> Vec<&'static str> {
    rec.events
        .iter()
        .filter_map(|e| match e {
            Event::Phase { name, .. } => Some(*name),
            _ => None,
        })
        .collect()
}

/// One function compiles for every caller, so every caller's recorder
/// holds the same phase list, in order: `parse, elaborate, analyze,
/// select, flatten, plan`, then `partition` when the run has a stage
/// budget.
#[test]
fn compile_phases_are_the_pinned_list() {
    let bench = streamlin::benchmarks::fir(64);
    let front = ["parse", "elaborate", "analyze", "select"];
    for (spec, back) in [
        (RunSpec::default(), vec!["flatten", "plan"]),
        (
            RunSpec {
                threads: Some(2),
                ..RunSpec::default()
            },
            vec!["flatten", "plan", "partition"],
        ),
    ] {
        let mut rec = Recorder::new();
        streamlin::runtime::compile_source(bench.source(), &spec.plan(), Some(&mut rec)).unwrap();
        let want: Vec<&str> = front.iter().copied().chain(back.iter().copied()).collect();
        assert_eq!(phases(&rec), want, "{spec:?}");

        // A one-shot run of an already-built stream records the back half.
        let mut rec = Recorder::new();
        spec.run_recorded(&configured(&bench, spec.config), 64, &mut rec)
            .unwrap();
        assert_eq!(phases(&rec), back, "{spec:?}");
    }
}

/// An instrumented daemon stream's close report carries the compile
/// phases of its cache-miss `open`; a cache-hit stream compiled nothing.
#[test]
fn daemon_streams_report_the_compile_phases_of_their_cache_miss() {
    use streamlin::service::{Service, ServiceOpts};
    use streamlin::support::json::{self, Json};

    let dir = std::env::temp_dir().join(format!("streamlin-phases-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let svc = Service::new(ServiceOpts {
        trace_dir: Some(dir.to_str().unwrap().to_string()),
        ..ServiceOpts::default()
    });
    let program = Json::Str(streamlin::benchmarks::fir(64).source().into()).dump();
    let mut phase_names = Vec::new();
    for id in ["miss", "hit"] {
        let open = svc.handle(&format!(
            r#"{{"op":"open","id":"{id}","program":{program}}}"#
        ));
        assert!(open.contains(r#""ok":true"#), "{open}");
        svc.handle(&format!(r#"{{"op":"read","id":"{id}","n":16}}"#));
        let close = json::parse(&svc.handle(&format!(r#"{{"op":"close","id":"{id}"}}"#))).unwrap();
        let path = close
            .get("trace")
            .and_then(Json::as_str)
            .expect("trace path");
        let trace = std::fs::read_to_string(path).unwrap();
        validate_trace(&trace).expect("valid trace");
        let names: Vec<&str> = ["parse", "elaborate", "analyze", "select", "flatten", "plan"]
            .into_iter()
            .filter(|name| trace.contains(&format!("\"name\":\"{name}\"")))
            .collect();
        phase_names.push(names);
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        phase_names[0],
        ["parse", "elaborate", "analyze", "select", "flatten", "plan"]
    );
    assert!(phase_names[1].is_empty(), "{:?}", phase_names[1]);
}
