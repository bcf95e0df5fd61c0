//! The service determinism contract: a program driven through the
//! `streamlind` daemon — in any interleaving with other streams, any
//! read batching, and across plan-cache hits — produces output
//! **bit-identical** to the one-shot profiler `streamlinc` runs.
//!
//! Values cross the wire as JSON numbers in Rust's shortest-round-trip
//! formatting, which parses back bit-exactly for finite `f64` (pinned by
//! `support::json`'s unit tests), so comparing wire values against
//! in-process profiles by `to_bits` is exact, not approximate.
//!
//! Also covered, per the PR 9 acceptance criteria: the plan-cache-hit
//! rerun (counters prove elaborate/lower/analyze/plan were skipped), the
//! per-stream fault drill (one stream's worker dies; only that stream
//! degrades, neighbors stay healthy and bit-identical), admission
//! saturation as a structured refusal (never a hang), the bounded plan
//! cache under the benchmark's churn pattern (hot plans stay hits), and a
//! subprocess lifecycle smoke of the actual binary over stdio.

use std::io::{BufRead, BufReader, Write};

use proptest::test_runner::TestRng;
use streamlin::runtime::{front_end, ExecMode, Profile, RunSpec};
use streamlin::service::proto::{parse_request, Request};
use streamlin::service::{Service, ServiceOpts};
use streamlin::support::json::{self, Json};

/// A service with a roomy admission budget (tests that exercise
/// saturation build their own tight one).
fn roomy() -> Service {
    Service::new(ServiceOpts {
        workers: 16,
        ..ServiceOpts::default()
    })
}

fn open_line(id: &str, program: &str, extra: &[(&str, Json)]) -> String {
    let mut pairs = vec![
        ("op", Json::Str("open".into())),
        ("id", Json::Str(id.into())),
        ("program", Json::Str(program.into())),
    ];
    pairs.extend(extra.iter().cloned());
    Json::obj(pairs).dump()
}

fn request_ok(svc: &Service, line: &str) -> Json {
    let resp = json::parse(&svc.handle(line)).expect("response parses");
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(true)),
        "request failed: {line} -> {resp:?}"
    );
    resp
}

/// Reads `n` values from a stream and appends them to `into`.
fn read_into(svc: &Service, id: &str, n: usize, into: &mut Vec<f64>) -> Json {
    let resp = request_ok(
        svc,
        &format!("{{\"op\":\"read\",\"id\":\"{id}\",\"n\":{n}}}"),
    );
    let values = resp.get("values").and_then(Json::as_arr).expect("values");
    assert_eq!(values.len(), n, "read returned a short batch");
    into.extend(values.iter().map(|v| v.as_num().expect("numeric value")));
    resp
}

fn assert_bits_equal(name: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{name}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{name}: value {i} differs ({g} vs {w})"
        );
    }
}

/// What one-shot `streamlinc` does with `spec`: front end, then
/// `RunSpec::run` — compile, open, read `n`, close.
fn one_shot(src: &str, spec: &RunSpec, n: usize) -> Profile {
    let front = front_end(src, &spec.plan(), None).expect("front end");
    let prof = spec.run(&front.opt, n).expect("one-shot run");
    assert_eq!(prof.outputs.len(), n, "short reference");
    prof
}

/// One-shot reference with the same knobs the daemon resolves.
fn reference(
    bench: &streamlin::benchmarks::Benchmark,
    n: usize,
    mode: ExecMode,
    threads: Option<usize>,
) -> Vec<f64> {
    let spec = RunSpec {
        mode,
        threads,
        ..RunSpec::default()
    };
    one_shot(bench.source(), &spec, n).outputs
}

/// Non-finite samples must survive the wire. JSON has no spelling for
/// `inf`/`-inf`/`nan` — the writer degrades them to `null` — so the
/// protocol carries them as string sentinels (`proto::write_sample`).
/// This pins the full round trip: a program whose arithmetic produces
/// every non-finite class, driven through the daemon, decodes back to
/// the one-shot profile (bit-identical for everything representable;
/// NaN compared by class, since the sentinel does not preserve payload
/// bits).
#[test]
fn non_finite_samples_survive_the_wire() {
    let program = "void->void pipeline Main { add S(); add K(); } \
         void->float filter S { int n; work push 1 { \
             float zero = 0; \
             if (n == 0) { push(1.0 / zero); } \
             if (n == 1) { push((0 - 1.0) / zero); } \
             if (n == 2) { push(sqrt(0 - 1.0)); } \
             if (n == 3) { push(2.5); } \
             n = (n + 1) % 4; } } \
         float->void filter K { work pop 1 { println(pop()); } }";
    let n = 8;

    // One-shot reference through the same selection the daemon runs.
    let fast = RunSpec {
        mode: ExecMode::Fast,
        ..RunSpec::default()
    };
    let want = one_shot(program, &fast, n).outputs;
    assert!(
        want.iter().any(|v| v.is_infinite()) && want.iter().any(|v| v.is_nan()),
        "the program must actually produce non-finite samples: {want:?}"
    );

    let svc = roomy();
    request_ok(
        &svc,
        &open_line("nf", program, &[("mode", Json::Str("fast".into()))]),
    );
    let resp = request_ok(
        &svc,
        &format!("{{\"op\":\"read\",\"id\":\"nf\",\"n\":{n}}}"),
    );
    let values = resp.get("values").and_then(Json::as_arr).expect("values");
    assert_eq!(values.len(), n);
    let got: Vec<f64> = values
        .iter()
        .map(|v| streamlin::service::proto::decode_sample(v).expect("decodable sample"))
        .collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if w.is_nan() {
            assert!(g.is_nan(), "value {i}: expected NaN, got {g}");
        } else {
            assert_eq!(g.to_bits(), w.to_bits(), "value {i} differs ({g} vs {w})");
        }
    }
}

/// All nine paper benchmarks, single stream each, read in uneven batches
/// — bit-identical to the one-shot profiler — then reopened to pin the
/// plan-cache-hit rerun on every program (including DToA's feedback
/// loop, which runs on the plan its enqueued item schedules).
#[test]
fn nine_benchmarks_single_stream_bit_identical_and_cache_hits() {
    let svc = roomy();
    for bench in streamlin::benchmarks::all_default() {
        let n = bench.default_outputs().min(200);
        let want = reference(&bench, n, ExecMode::Fast, None);
        let open = request_ok(
            &svc,
            &open_line(
                bench.name(),
                bench.source(),
                &[("mode", Json::Str("fast".into()))],
            ),
        );
        assert_eq!(
            open.get("cached"),
            Some(&Json::Bool(false)),
            "{}: first open must be a cold compile",
            bench.name()
        );
        let mut got = Vec::new();
        // Uneven batching: the value sequence must not depend on it.
        let mut remaining = n;
        for batch in [1usize, 7, 64].iter().cycle() {
            let batch = (*batch).min(remaining);
            if batch == 0 {
                break;
            }
            read_into(&svc, bench.name(), batch, &mut got);
            remaining -= batch;
        }
        assert_bits_equal(bench.name(), &got, &want);
        request_ok(
            &svc,
            &format!("{{\"op\":\"close\",\"id\":\"{}\"}}", bench.name()),
        );

        // Cache-hit rerun: same program and knobs, fresh stream state.
        let rerun_id = format!("{}-rerun", bench.name());
        let open = request_ok(
            &svc,
            &open_line(
                &rerun_id,
                bench.source(),
                &[("mode", Json::Str("fast".into()))],
            ),
        );
        assert_eq!(
            open.get("cached"),
            Some(&Json::Bool(true)),
            "{}: rerun must hit the plan cache",
            bench.name()
        );
        let m = 32.min(n);
        let mut again = Vec::new();
        read_into(&svc, &rerun_id, m, &mut again);
        assert_bits_equal(&format!("{} rerun", bench.name()), &again, &want[..m]);
        request_ok(&svc, &format!("{{\"op\":\"close\",\"id\":\"{rerun_id}\"}}"));
    }
    // Nine cold compiles, nine hits — the counters are the proof that
    // the reruns skipped the front end entirely.
    let stats = request_ok(&svc, "{\"op\":\"stats\"}");
    let cache = stats.get("cache").expect("cache stats");
    assert_eq!(cache.get("misses").and_then(Json::as_num), Some(9.0));
    assert_eq!(cache.get("hits").and_then(Json::as_num), Some(9.0));
}

/// Concurrent named streams — a 2-stage pipeline, a measured
/// single-threaded stream, and a second session of the *same* cached
/// pipeline program — interleaved request by request. Every stream's
/// output must equal its one-shot reference, invariant under the
/// interleaving.
#[test]
fn interleaved_streams_stay_bit_identical() {
    let svc = roomy();
    let fir = streamlin::benchmarks::fir(256);
    let radio = streamlin::benchmarks::fm_radio();
    let n = 120;
    let want_fir = reference(&fir, n, ExecMode::Fast, Some(2));
    let want_radio = reference(&radio, n, ExecMode::Measured, None);

    request_ok(
        &svc,
        &open_line(
            "a",
            fir.source(),
            &[
                ("mode", Json::Str("fast".into())),
                ("threads", Json::Num(2.0)),
            ],
        ),
    );
    request_ok(&svc, &open_line("b", radio.source(), &[]));
    let open_c = request_ok(
        &svc,
        &open_line(
            "c",
            fir.source(),
            &[
                ("mode", Json::Str("fast".into())),
                ("threads", Json::Num(2.0)),
            ],
        ),
    );
    assert_eq!(
        open_c.get("cached"),
        Some(&Json::Bool(true)),
        "same program and knobs share one artifact"
    );

    let mut got_a = Vec::new();
    let mut got_b = Vec::new();
    let mut got_c = Vec::new();
    // Deliberately unequal batches so the three streams are always at
    // different positions in their runs.
    while got_a.len() < n || got_b.len() < n || got_c.len() < n {
        if got_a.len() < n {
            read_into(&svc, "a", 8.min(n - got_a.len()), &mut got_a);
        }
        if got_b.len() < n {
            read_into(&svc, "b", 5.min(n - got_b.len()), &mut got_b);
        }
        if got_c.len() < n {
            read_into(&svc, "c", 13.min(n - got_c.len()), &mut got_c);
        }
    }
    assert_bits_equal("fir via pipeline stream a", &got_a, &want_fir);
    assert_bits_equal("fm_radio measured stream b", &got_b, &want_radio);
    assert_bits_equal("fir second session c", &got_c, &want_fir);
    for id in ["a", "b", "c"] {
        request_ok(&svc, &format!("{{\"op\":\"close\",\"id\":\"{id}\"}}"));
    }
    // All claims returned.
    let stats = request_ok(&svc, "{\"op\":\"stats\"}");
    let workers = stats.get("workers").expect("workers");
    assert_eq!(workers.get("in_use").and_then(Json::as_num), Some(0.0));
}

/// A resident stream retains only the overshoot of its last read, however
/// much it has delivered: across 1 000 reads on each engine family (static
/// plan, with and without a feedback loop, and two-stage pipeline) the
/// buffer of undelivered values never grows, and what is delivered stays
/// bit-identical to one-shot.
#[test]
fn resident_streams_do_not_retain_delivered_output() {
    const READS: usize = 1000;
    const N: usize = 64;
    let cases = [
        ("static plan", streamlin::benchmarks::fir(64), None),
        ("feedback loop", streamlin::benchmarks::dtoa(), None),
        ("pipeline", streamlin::benchmarks::fir(64), Some(2)),
    ];
    for (family, bench, threads) in cases {
        let spec = RunSpec {
            mode: ExecMode::Fast,
            threads,
            ..RunSpec::default()
        };
        let art = streamlin::runtime::compile_source(bench.source(), &spec.plan(), None)
            .unwrap_or_else(|e| panic!("{family}: {e}"));
        let mut session = streamlin::runtime::open(art, &spec.exec(), None)
            .unwrap_or_else(|e| panic!("{family}: {e}"));
        let mut got = Vec::with_capacity(READS * N);
        let mut early = 0;
        for read in 0..READS {
            got.extend(session.read(N).unwrap_or_else(|e| panic!("{family}: {e}")));
            if read < READS / 10 {
                early = early.max(session.buffered());
            } else {
                assert!(
                    session.buffered() <= early,
                    "{family}: {} values buffered after {} reads (at most {early} in the first {})",
                    session.buffered(),
                    read + 1,
                    READS / 10
                );
            }
        }
        assert_eq!(session.delivered(), READS * N, "{family}");
        assert!(early < 16 * N, "{family}: {early} values buffered early on");
        let want = reference(&bench, READS * N, ExecMode::Fast, threads);
        assert_bits_equal(family, &got, &want);
        session.close();
    }
}

/// The per-stream fault drill: a seeded `die@s0` kills one stream's
/// stage-0 worker mid-run. That stream degrades onto the
/// single-threaded plan — same values, bit for bit — while its neighbor
/// pipeline stream never notices, and the dead stream's surplus worker
/// claim returns to the admission budget.
#[test]
fn fault_injected_stream_degrades_alone() {
    let svc = roomy();
    let fir = streamlin::benchmarks::fir(64);
    let n = 150;
    let want = reference(&fir, n, ExecMode::Fast, Some(2));

    let victim_knobs = [
        ("mode", Json::Str("fast".into())),
        ("threads", Json::Num(2.0)),
        ("fault", Json::Str("7:die@s0".into())),
        ("watchdog_ms", Json::Num(1500.0)),
    ];
    request_ok(&svc, &open_line("victim", fir.source(), &victim_knobs));
    request_ok(
        &svc,
        &open_line(
            "bystander",
            fir.source(),
            &[
                ("mode", Json::Str("fast".into())),
                ("threads", Json::Num(2.0)),
            ],
        ),
    );

    let mut got_victim = Vec::new();
    let mut got_bystander = Vec::new();
    while got_victim.len() < n || got_bystander.len() < n {
        if got_victim.len() < n {
            read_into(
                &svc,
                "victim",
                25.min(n - got_victim.len()),
                &mut got_victim,
            );
        }
        if got_bystander.len() < n {
            read_into(
                &svc,
                "bystander",
                25.min(n - got_bystander.len()),
                &mut got_bystander,
            );
        }
    }
    assert_bits_equal("victim (degraded)", &got_victim, &want);
    assert_bits_equal("bystander", &got_bystander, &want);

    let close_victim = request_ok(&svc, "{\"op\":\"close\",\"id\":\"victim\"}");
    assert!(
        close_victim.get("degraded").is_some(),
        "the faulted stream must report its degradation: {close_victim:?}"
    );
    let close_bystander = request_ok(&svc, "{\"op\":\"close\",\"id\":\"bystander\"}");
    assert!(
        close_bystander.get("degraded").is_none(),
        "the neighbor must not degrade: {close_bystander:?}"
    );
}

/// Admission control: a saturated worker budget refuses new pipeline
/// streams with a structured error (fields and all), a bounded wait
/// times out to the same refusal, and closing a neighbor admits the
/// retry. Single-threaded streams still fit in the leftover budget.
#[test]
fn saturation_is_a_structured_refusal_never_a_hang() {
    let svc = Service::new(ServiceOpts {
        workers: 3,
        ..ServiceOpts::default()
    });
    let fir = streamlin::benchmarks::fir(64);
    let knobs = [
        ("mode", Json::Str("fast".into())),
        ("threads", Json::Num(2.0)),
    ];
    let open = request_ok(&svc, &open_line("first", fir.source(), &knobs));
    assert_eq!(open.get("workers").and_then(Json::as_num), Some(2.0));

    let resp = json::parse(&svc.handle(&open_line("second", fir.source(), &knobs))).unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(resp.get("error").and_then(Json::as_str), Some("saturated"));
    assert_eq!(resp.get("need").and_then(Json::as_num), Some(2.0));
    assert_eq!(resp.get("in_use").and_then(Json::as_num), Some(2.0));
    assert_eq!(resp.get("budget").and_then(Json::as_num), Some(3.0));

    // A bounded wait still refuses (nothing releases) instead of hanging.
    let mut wait_knobs = knobs.to_vec();
    wait_knobs.push(("wait_ms", Json::Num(50.0)));
    let resp = json::parse(&svc.handle(&open_line("second", fir.source(), &wait_knobs))).unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some("saturated"));

    // The leftover budget still admits a single-threaded stream.
    request_ok(
        &svc,
        &open_line("small", fir.source(), &[("mode", Json::Str("fast".into()))]),
    );

    // Freeing the neighbor admits the retry.
    request_ok(&svc, "{\"op\":\"close\",\"id\":\"first\"}");
    request_ok(&svc, &open_line("second", fir.source(), &knobs));
    for id in ["second", "small"] {
        request_ok(&svc, &format!("{{\"op\":\"close\",\"id\":\"{id}\"}}"));
    }
}

/// A stream that needs more workers than the whole budget can never be
/// admitted: it is refused `too_large` with its need and the budget, not
/// the retryable `saturated`, and at once even when the `open` would wait.
#[test]
fn a_stream_that_can_never_fit_is_too_large() {
    let svc = Service::new(ServiceOpts {
        workers: 2,
        ..ServiceOpts::default()
    });
    let fir = include_str!("../assets/fir.str");
    for wait in [None, Some(600_000.0)] {
        let mut knobs = vec![("threads", Json::Num(4.0))];
        knobs.extend(wait.map(|ms| ("wait_ms", Json::Num(ms))));
        let t0 = std::time::Instant::now();
        let resp = json::parse(&svc.handle(&open_line("big", fir, &knobs))).unwrap();
        assert!(t0.elapsed().as_secs() < 60, "waited {:?}", t0.elapsed());
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(resp.get("error").and_then(Json::as_str), Some("too_large"));
        assert_eq!(resp.get("need").and_then(Json::as_num), Some(3.0));
        assert_eq!(resp.get("budget").and_then(Json::as_num), Some(2.0));
    }
    // Nothing was claimed: a stream that fits is admitted.
    request_ok(&svc, &open_line("small", fir, &[]));
    request_ok(&svc, "{\"op\":\"close\",\"id\":\"small\"}");
}

/// Protocol robustness: malformed lines, unknown streams, duplicate
/// opens and compile errors are structured failures — the dispatcher
/// answers every line and never falls over.
#[test]
fn protocol_failures_are_structured() {
    let svc = roomy();
    let err = |line: &str| -> String {
        let resp = json::parse(&svc.handle(line)).expect("response parses");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{line}");
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    assert_eq!(err("not json at all"), "bad_request");
    assert_eq!(
        err("{\"op\":\"read\",\"id\":\"ghost\",\"n\":1}"),
        "unknown_stream"
    );
    assert_eq!(err("{\"op\":\"close\",\"id\":\"ghost\"}"), "unknown_stream");
    assert_eq!(
        err(&open_line("bad", "void->void pipeline Main {", &[])),
        "compile_error"
    );
    // A feedback loop that enqueues nothing has no schedule: refused when
    // it compiles, not searched for a deadlock on a worker.
    let unseeded = "void->void pipeline Main { add S(); add FB(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->void filter K { work pop 1 { println(pop()); } }
         float->float feedbackloop FB {
             join roundrobin(1, 1);
             body A();
             loop I();
             split roundrobin(1, 1);
         }
         float->float filter A { work pop 2 push 2 { push(pop() + peek(0)); push(pop()); } }
         float->float filter I { work pop 1 push 1 { push(pop()); } }";
    assert_eq!(err(&open_line("loop", unseeded, &[])), "compile_error");
    let fir = streamlin::benchmarks::fir(16);
    request_ok(&svc, &open_line("dup", fir.source(), &[]));
    assert_eq!(
        err(&open_line("dup", fir.source(), &[])),
        "duplicate_stream"
    );
    request_ok(&svc, "{\"op\":\"close\",\"id\":\"dup\"}");
}

/// An `open` naming a member that is neither a knob nor one of its own
/// fields is refused by name, as `streamlinc` refuses an unknown flag: a
/// misspelt or retired knob never runs silently on its default.
#[test]
fn open_refuses_members_it_does_not_know() {
    let svc = roomy();
    let fir = streamlin::benchmarks::fir(16);
    for member in ["fission", "bogus", "thread"] {
        let line = open_line("s", fir.source(), &[(member, Json::Num(2.0))]);
        let resp = json::parse(&svc.handle(&line)).expect("response parses");
        assert_eq!(
            resp.get("error").and_then(Json::as_str),
            Some("bad_request"),
            "{member}: {resp:?}"
        );
        let detail = resp.get("detail").and_then(Json::as_str).unwrap_or("");
        assert!(
            detail.contains(&format!("`{member}`")),
            "{member}: {detail}"
        );
    }
    // Nothing was opened: the id is still free.
    request_ok(&svc, &open_line("s", fir.source(), &[]));
    request_ok(&svc, "{\"op\":\"close\",\"id\":\"s\"}");
}

/// Stream ids name filesystem artifacts under `--trace-out`, so they are
/// confined to a single path component — an id that could traverse out
/// of the trace directory is refused before anything is compiled or run.
#[test]
fn traversal_stream_ids_are_refused() {
    let svc = roomy();
    let fir = streamlin::benchmarks::fir(16);
    for id in [
        "../../home/user/.bashrc",
        "a/b",
        "a\\b",
        "..",
        ".",
        "",
        "a b",
        "nul\u{0}byte",
    ] {
        let resp = json::parse(&svc.handle(&open_line(id, fir.source(), &[]))).unwrap();
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(false)),
            "id {id:?} must be refused"
        );
        assert_eq!(
            resp.get("error").and_then(Json::as_str),
            Some("bad_request"),
            "id {id:?} must be a bad_request"
        );
    }
    // The allowed punctuation still passes.
    request_ok(&svc, &open_line("ok-id_1.v2", fir.source(), &[]));
    request_ok(&svc, "{\"op\":\"close\",\"id\":\"ok-id_1.v2\"}");
}

/// Racing opens of one id (as concurrent TCP connections can issue):
/// exactly one wins, every loser backs out its ledger claim, and the
/// budget is fully restored once the winner closes — the TOCTOU
/// regression overwrote the winner's entry and leaked its claim,
/// shrinking the admission budget forever.
#[test]
fn racing_opens_of_one_id_admit_exactly_one_stream() {
    let svc = Service::new(ServiceOpts {
        workers: 8,
        ..ServiceOpts::default()
    });
    let fir = streamlin::benchmarks::fir(64);
    let knobs = [
        ("mode", Json::Str("fast".into())),
        ("threads", Json::Num(2.0)),
    ];
    for round in 0..4 {
        let id = format!("contended-{round}");
        let line = open_line(&id, fir.source(), &knobs);
        let wins = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let resp = json::parse(&svc.handle(&line)).expect("response parses");
                        resp.get("ok") == Some(&Json::Bool(true))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("opener thread"))
                .filter(|&won| won)
                .count()
        });
        assert_eq!(wins, 1, "exactly one open of `{id}` may win");
        request_ok(&svc, &format!("{{\"op\":\"close\",\"id\":\"{id}\"}}"));
        let stats = request_ok(&svc, "{\"op\":\"stats\"}");
        let workers = stats.get("workers").expect("workers");
        assert_eq!(
            workers.get("in_use").and_then(Json::as_num),
            Some(0.0),
            "round {round}: losing opens leaked ledger claims"
        );
        assert_eq!(
            stats.get("streams").and_then(Json::as_num),
            Some(0.0),
            "round {round}: stream table not empty"
        );
    }
}

/// Reads execute under per-stream locks, not the global table lock:
/// many client threads hammering their own streams concurrently (as TCP
/// connections do) stay deadlock-free and every stream remains
/// bit-identical to the one-shot reference.
#[test]
fn concurrent_reads_on_distinct_streams_stay_bit_identical() {
    let svc = roomy();
    let fir = streamlin::benchmarks::fir(64);
    let n = 96;
    let want = reference(&fir, n, ExecMode::Fast, None);
    // `Benchmark` holds `Rc`s, so threads share the source text only.
    let src = fir.source();
    std::thread::scope(|s| {
        for t in 0..4 {
            let (svc, want) = (&svc, &want);
            s.spawn(move || {
                let id = format!("par-{t}");
                request_ok(
                    svc,
                    &open_line(&id, src, &[("mode", Json::Str("fast".into()))]),
                );
                let mut got = Vec::new();
                while got.len() < n {
                    read_into(svc, &id, 7.min(n - got.len()), &mut got);
                }
                assert_bits_equal(&id, &got, want);
                request_ok(svc, &format!("{{\"op\":\"close\",\"id\":\"{id}\"}}"));
            });
        }
    });
    let stats = request_ok(&svc, "{\"op\":\"stats\"}");
    assert_eq!(stats.get("streams").and_then(Json::as_num), Some(0.0));
    let workers = stats.get("workers").expect("workers");
    assert_eq!(workers.get("in_use").and_then(Json::as_num), Some(0.0));
}

/// The plan-cache key excludes the execution mode (it only selects the
/// engine's tally; its one compile-time effect is the default matmul
/// strategy, which the resolved `matmul` field already captures): a
/// Measured open of a program compiled Fast with the same strategy hits
/// the cache instead of duplicating the artifact.
#[test]
fn fast_and_measured_share_one_cached_artifact() {
    let svc = roomy();
    let fir = streamlin::benchmarks::fir(64);
    request_ok(
        &svc,
        &open_line(
            "fast",
            fir.source(),
            &[
                ("mode", Json::Str("fast".into())),
                ("matmul", Json::Str("simd".into())),
            ],
        ),
    );
    let open = request_ok(
        &svc,
        &open_line(
            "measured",
            fir.source(),
            &[
                ("mode", Json::Str("measured".into())),
                ("matmul", Json::Str("simd".into())),
            ],
        ),
    );
    assert_eq!(
        open.get("cached"),
        Some(&Json::Bool(true)),
        "Fast and Measured with one matmul strategy must share the artifact"
    );
    for id in ["fast", "measured"] {
        request_ok(&svc, &format!("{{\"op\":\"close\",\"id\":\"{id}\"}}"));
    }
}

/// The daemon and the CLI parse one knob table into one `RunSpec` and
/// compile it with one function, so knob combinations cannot take
/// different paths in the two: a pipeline, a pipeline with its own pacing
/// quantum, a kernel chosen beside the mode, and the defaults. Each case
/// is compared — reported workers, value bits, firings, cache entries —
/// against a one-shot run of the very `RunSpec` the daemon parsed.
#[test]
fn knob_combinations_agree_with_one_shot_of_the_same_spec() {
    let svc = roomy();
    let fir = streamlin::benchmarks::fir(64);
    let n = 96;
    let cases: [&[(&str, Json)]; 4] = [
        &[("threads", Json::Num(2.0))],
        &[("threads", Json::Num(2.0)), ("quantum", Json::Num(8.0))],
        &[
            ("mode", Json::Str("fast".into())),
            ("matmul", Json::Str("blocked".into())),
        ],
        &[],
    ];
    for (i, members) in cases.iter().enumerate() {
        let id = format!("case-{i}");
        let line = open_line(&id, fir.source(), members);
        let Request::Open(req) = parse_request(&line).expect("open parses") else {
            panic!("not an open");
        };
        let want = one_shot(fir.source(), &req.spec, n);
        let open = request_ok(&svc, &line);
        assert_eq!(
            open.get("workers").and_then(Json::as_num),
            Some(want.threads as f64),
            "{members:?}: the daemon and the one-shot run staged differently"
        );
        let mut got = Vec::new();
        read_into(&svc, &id, n, &mut got);
        assert_bits_equal(&id, &got, &want.outputs);
        let close = request_ok(&svc, &format!("{{\"op\":\"close\",\"id\":\"{id}\"}}"));
        assert_eq!(
            close.get("firings").and_then(Json::as_num),
            Some(want.firings as f64),
            "{members:?}"
        );
        let stats = request_ok(&svc, "{\"op\":\"stats\"}");
        assert_eq!(
            stats
                .get("cache")
                .and_then(|c| c.get("entries"))
                .and_then(Json::as_num),
            Some((i + 1) as f64),
            "{members:?}: each distinct plan spec is exactly one entry"
        );
    }
    let staged = RunSpec {
        threads: Some(2),
        ..RunSpec::default()
    };
    assert_eq!(
        one_shot(fir.source(), &staged, 8).threads,
        2,
        "the pipeline cases really run two stages"
    );
}

/// Two requests that normalise to the same `PlanSpec` are one cache entry
/// and the second is a hit: the defaults imply the `measured` mode and
/// its `unrolled` kernel, and `fast` mode implies the `simd` kernel.
#[test]
fn requests_that_normalise_alike_share_one_cache_entry() {
    let svc = roomy();
    let fir = streamlin::benchmarks::fir(64);
    let pairs: [[&[(&str, Json)]; 2]; 2] = [
        [
            &[],
            &[
                ("mode", Json::Str("measured".into())),
                ("matmul", Json::Str("unrolled".into())),
            ],
        ],
        [
            &[("mode", Json::Str("fast".into()))],
            &[
                ("mode", Json::Str("fast".into())),
                ("matmul", Json::Str("simd".into())),
            ],
        ],
    ];
    for (i, [short, spelled]) in pairs.iter().enumerate() {
        let first = request_ok(&svc, &open_line("short", fir.source(), short));
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)), "{short:?}");
        let second = request_ok(&svc, &open_line("spelled", fir.source(), spelled));
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)), "{spelled:?}");
        let stats = request_ok(&svc, "{\"op\":\"stats\"}");
        assert_eq!(
            stats
                .get("cache")
                .and_then(|c| c.get("entries"))
                .and_then(Json::as_num),
            Some((i + 1) as f64)
        );
        for id in ["short", "spelled"] {
            request_ok(&svc, &format!("{{\"op\":\"close\",\"id\":\"{id}\"}}"));
        }
    }
}

/// A degraded one-shot run and a degraded daemon stream of the same spec
/// report the same reason, values, tallies and firing count. (A step-keyed
/// `panic` fault: what a `die`d thread is caught doing depends on timing.)
#[test]
fn degraded_stream_and_degraded_one_shot_report_alike() {
    let svc = roomy();
    let fir = streamlin::benchmarks::fir(64);
    let n = 150;
    let line = open_line(
        "victim",
        fir.source(),
        &[
            ("threads", Json::Num(2.0)),
            ("fault", Json::Str("7:panic@s1".into())),
            ("watchdog_ms", Json::Num(1500.0)),
        ],
    );
    let Request::Open(req) = parse_request(&line).expect("open parses") else {
        panic!("not an open");
    };
    let want = one_shot(fir.source(), &req.spec, n);
    let reason = want.degraded.as_deref().expect("the one-shot run degrades");
    request_ok(&svc, &line);
    let mut got = Vec::new();
    read_into(&svc, "victim", n, &mut got);
    assert_bits_equal("degraded stream", &got, &want.outputs);
    let close = request_ok(&svc, "{\"op\":\"close\",\"id\":\"victim\"}");
    assert_eq!(close.get("degraded").and_then(Json::as_str), Some(reason));
    assert_eq!(
        close.get("firings").and_then(Json::as_num),
        Some(want.firings as f64)
    );
    assert_eq!(
        close.get("flops").and_then(Json::as_num),
        Some(want.ops.flops() as f64)
    );
    assert_eq!(
        close.get("mults").and_then(Json::as_num),
        Some(want.ops.mults() as f64)
    );
}

/// A two-filter program that prints `0, k, 2k, …`: one plan-cache key per
/// `k`.
fn scaled_counter(k: u32) -> String {
    format!(
        "void->void pipeline Main {{ add S(); add K(); }} \
         void->float filter S {{ float x; work push 1 {{ push(x++); }} }} \
         float->void filter K {{ work pop 1 {{ println({k} * pop()); }} }}"
    )
}

/// The benchmark's churn pattern under a bounded plan cache. Each round,
/// in a seeded order, every program opens once with a comment no earlier
/// open carried (a miss) and once as its plain text, which must hit.
/// Between two plain opens of one program, the other eight plain texts and
/// at most 17 nonce'd texts are looked up: 25 distinct keys. So a least
/// recently used cache of 26 plans keeps every plain text however a round
/// is shuffled, while the nonce'd texts are evicted.
#[test]
fn churn_keeps_hot_plans_cached_within_the_bound() {
    const PROGRAMS: u32 = 9;
    const ROUNDS: u32 = 8;
    const CAPACITY: usize = 26;
    let svc = Service::new(ServiceOpts {
        max_streams: CAPACITY,
        ..ServiceOpts::default()
    });
    let cache_field = |name: &str| {
        let stats = request_ok(&svc, "{\"op\":\"stats\"}");
        stats
            .get("cache")
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
            .expect("cache counter")
    };
    // Open, read, close; whether the open hit the cache.
    let cycle = |text: &str, k: u32| -> bool {
        let open = request_ok(&svc, &open_line("churn", text, &[]));
        let mut got = Vec::new();
        read_into(&svc, "churn", 4, &mut got);
        let want = [0.0, 1.0, 2.0, 3.0].map(|i| i * f64::from(k));
        assert_bits_equal(&format!("program {k}"), &got, &want);
        request_ok(&svc, "{\"op\":\"close\",\"id\":\"churn\"}");
        open.get("cached") == Some(&Json::Bool(true))
    };

    for k in 1..=PROGRAMS {
        assert!(!cycle(&scaled_counter(k), k), "program {k}: first open");
    }
    let mut rng = TestRng::new(26);
    let mut order: Vec<u32> = (1..=PROGRAMS).collect();
    let mut nonce = 0;
    for round in 0..ROUNDS {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.usize_below(i + 1));
        }
        for &k in &order {
            nonce += 1;
            let cold = format!("{}\n// nonce {nonce}\n", scaled_counter(k));
            assert!(!cycle(&cold, k), "round {round}: nonce'd open of {k} hit");
            assert!(
                cycle(&scaled_counter(k), k),
                "round {round}: plain re-open of program {k} missed the cache"
            );
            assert!(cache_field("entries") <= CAPACITY as f64);
        }
    }
    let misses = f64::from(PROGRAMS * (ROUNDS + 1));
    assert_eq!(cache_field("misses"), misses);
    assert_eq!(cache_field("hits"), f64::from(PROGRAMS * ROUNDS));
    assert_eq!(cache_field("evictions"), misses - CAPACITY as f64);
    assert_eq!(cache_field("entries"), CAPACITY as f64);
    assert_eq!(cache_field("capacity"), CAPACITY as f64);
}

/// Lifecycle smoke of the actual binary over stdio: open → batched reads
/// → stats → close → shutdown, every response a parseable ok line, and
/// the values bit-identical to the in-process reference.
#[test]
fn daemon_binary_stdio_lifecycle() {
    let fir = streamlin::benchmarks::fir(64);
    let n = 48;
    let want = reference(&fir, n, ExecMode::Fast, None);

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_streamlind"))
        .args(["--workers", "4"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn streamlind");
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut roundtrip = |req: &str| -> Json {
        writeln!(stdin, "{req}").expect("write request");
        let line = lines.next().expect("daemon answered").expect("read line");
        json::parse(&line).expect("response parses")
    };

    let pong = roundtrip("{\"op\":\"ping\"}");
    assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
    let open = roundtrip(&open_line(
        "s",
        fir.source(),
        &[("mode", Json::Str("fast".into()))],
    ));
    assert_eq!(open.get("ok"), Some(&Json::Bool(true)), "{open:?}");
    let mut got = Vec::new();
    for batch in [1, 16, 31] {
        let resp = roundtrip(&format!("{{\"op\":\"read\",\"id\":\"s\",\"n\":{batch}}}"));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        got.extend(
            resp.get("values")
                .and_then(Json::as_arr)
                .expect("values")
                .iter()
                .map(|v| v.as_num().unwrap()),
        );
    }
    assert_bits_equal("daemon stdio", &got, &want);
    let stats = roundtrip("{\"op\":\"stats\"}");
    assert_eq!(stats.get("streams").and_then(Json::as_num), Some(1.0));
    let close = roundtrip("{\"op\":\"close\",\"id\":\"s\"}");
    assert_eq!(
        close.get("delivered").and_then(Json::as_num),
        Some(n as f64)
    );
    let bye = roundtrip("{\"op\":\"shutdown\"}");
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    drop(stdin);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status: {status:?}");
}

/// The daemon's flags are its deployment settings; a per-stream knob such
/// as `quantum` is an `open` member, not a daemon flag. Such a flag, a bad
/// value and an unknown flag are each a usage error (exit 2).
#[test]
fn daemon_binary_refuses_unknown_flags() {
    for args in [&["--quantum", "4"][..], &["--workers", "0"], &["--bogus"]] {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_streamlind"))
            .args(args)
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run streamlind");
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}

/// One `open` of a 10 000-filter chain over TCP, whose connection thread
/// has the default stack: it gets a structured answer, and the daemon
/// still answers a `ping` on a second connection. (Planning once pulled
/// demand down the chain recursively, one stack frame per filter, and the
/// overflow took the whole process down.)
#[test]
fn a_ten_thousand_filter_chain_opens_over_tcp() {
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Duration;

    let chain = "void->void pipeline Main { add S(); add Chain(10000); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float pipeline Chain(int n) { for (int i = 0; i < n; i++) add Id(); }
         float->float filter Id { work pop 1 push 1 { push(pop() + 1); } }
         float->void filter K { work pop 1 { println(pop()); } }";
    let svc = Arc::new(Service::new(ServiceOpts::default()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server =
        std::thread::spawn(move || streamlin::service::server::serve_listener(svc, listener));
    let roundtrip = |conn: &mut TcpStream, req: &str| -> Json {
        conn.set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        writeln!(conn, "{req}").unwrap();
        let mut line = String::new();
        BufReader::new(conn.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        json::parse(&line).unwrap_or_else(|e| panic!("{e:?}: {line}"))
    };
    let mut first = TcpStream::connect(addr).unwrap();
    let open = roundtrip(
        &mut first,
        &open_line("chain", chain, &[("config", Json::Str("baseline".into()))]),
    );
    assert_eq!(open.get("ok"), Some(&Json::Bool(true)), "{open:?}");
    let read = roundtrip(&mut first, "{\"op\":\"read\",\"id\":\"chain\",\"n\":2}");
    let values = read.get("values").and_then(Json::as_arr).expect("values");
    assert_eq!(values, &[Json::Num(10000.0), Json::Num(10001.0)]);
    let mut second = TcpStream::connect(addr).unwrap();
    let pong = roundtrip(&mut second, "{\"op\":\"ping\"}");
    assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
    let bye = roundtrip(&mut second, "{\"op\":\"shutdown\"}");
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)), "{bye:?}");
    drop((first, second));
    server.join().expect("server thread").unwrap();
}
