//! A soak of the daemon core: 2 000 open/read/close cycles, each of a
//! program text the plan cache has not seen, through `Service::handle` in
//! process. Afterwards no stream, ledger claim or pool thread has leaked,
//! and the plan cache holds exactly its bound — in entries, and in the
//! table bytes `stats` reports, which stay flat across rotations and fall
//! again once a larger program's entry is evicted.
//!
//! This file holds a single `#[test]` on purpose: the pool's spawn counter
//! is process-global, and a sibling test running pipelines concurrently
//! would legitimately grow it (as in `tests/pool_reuse.rs`).

use streamlin::service::{Service, ServiceOpts};
use streamlin::support::json::{self, Json};

const CYCLES: usize = 2000;

fn request_ok(svc: &Service, line: &str) -> Json {
    let resp = json::parse(&svc.handle(line)).expect("response parses");
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(true)),
        "request failed: {line} -> {resp:?}"
    );
    resp
}

fn num(v: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("no number at {path:?} in {v:?}"))
}

#[test]
fn soak_of_distinct_programs_leaks_nothing_and_stays_at_the_cache_bound() {
    let svc = Service::new(ServiceOpts {
        workers: 4,
        ..ServiceOpts::default()
    });
    let capacity = ServiceOpts::default().max_streams as f64;
    let mut spawned = None;
    let mut entry_bytes = None;
    for cycle in 0..CYCLES {
        let k = cycle % 9 + 1;
        // Every fourth stream is a two-stage pipeline, so the soak also
        // takes pool workers and parks them again.
        let threaded = cycle % 4 == 0;
        let mut members = vec![
            ("op", Json::Str("open".into())),
            ("id", Json::Str("soak".into())),
            ("program", Json::Str(program(k, cycle))),
        ];
        if threaded {
            members.push(("threads", Json::Num(2.0)));
        }
        let open = request_ok(&svc, &Json::obj(members).dump());
        assert_eq!(
            open.get("cached"),
            Some(&Json::Bool(false)),
            "cycle {cycle}"
        );
        assert_eq!(num(&open, &["workers"]), if threaded { 2.0 } else { 1.0 });

        let read = request_ok(&svc, "{\"op\":\"read\",\"id\":\"soak\",\"n\":8}");
        let values: Vec<f64> = read
            .get("values")
            .and_then(Json::as_arr)
            .expect("values")
            .iter()
            .map(|v| v.as_num().expect("numeric value"))
            .collect();
        let want: Vec<f64> = (0..8).map(|i| (i * k) as f64).collect();
        assert_eq!(values, want, "cycle {cycle}");
        request_ok(&svc, "{\"op\":\"close\",\"id\":\"soak\"}");

        let stats = request_ok(&svc, "{\"op\":\"stats\"}");
        if cycle == 0 {
            spawned = Some(num(&stats, &["pool", "spawned"]));
            entry_bytes = Some(num(&stats, &["cache", "bytes"]));
        }
        // Every entry is the same shape, so the cache holds the same
        // table bytes per entry, however many entries rotated through.
        let per_entry = entry_bytes.expect("set on cycle 0");
        assert!(per_entry > 0.0, "a plan's step lists are tables");
        assert_eq!(
            num(&stats, &["cache", "bytes"]),
            num(&stats, &["cache", "entries"]) * per_entry,
            "cycle {cycle}"
        );
    }

    let stats = request_ok(&svc, "{\"op\":\"stats\"}");
    assert_eq!(num(&stats, &["streams"]), 0.0);
    assert_eq!(num(&stats, &["workers", "in_use"]), 0.0);
    assert_eq!(num(&stats, &["cache", "entries"]), capacity);
    assert_eq!(num(&stats, &["cache", "capacity"]), capacity);
    assert_eq!(
        num(&stats, &["cache", "evictions"]),
        CYCLES as f64 - capacity
    );
    assert_eq!(
        Some(num(&stats, &["pool", "spawned"])),
        spawned,
        "later pipeline streams must reuse the pool's parked workers"
    );

    // A program with a 64-tap linear filter holds more table bytes than
    // the rotating ones; once `capacity` further misses have evicted it,
    // the cache is back at its rotating level.
    let full = num(&stats, &["cache", "bytes"]);
    let fir = "void->void pipeline Main { add S(); add F(); add K(); } \
         void->float filter S { float x; work push 1 { push(x++); } } \
         float->float filter F { work peek 64 pop 1 push 1 { \
             float s = 0; for (int i = 0; i < 64; i++) s += (i + 1) * peek(i); \
             push(s); pop(); } } \
         float->void filter K { work pop 1 { println(pop()); } }";
    let open = Json::obj(vec![
        ("op", Json::Str("open".into())),
        ("id", Json::Str("fir".into())),
        ("program", Json::Str(fir.into())),
    ]);
    request_ok(&svc, &open.dump());
    request_ok(&svc, "{\"op\":\"close\",\"id\":\"fir\"}");
    let with_fir = num(&request_ok(&svc, "{\"op\":\"stats\"}"), &["cache", "bytes"]);
    assert!(with_fir > full + 64.0 * 8.0, "{with_fir} vs {full}");
    for cycle in CYCLES..CYCLES + capacity as usize {
        let open = Json::obj(vec![
            ("op", Json::Str("open".into())),
            ("id", Json::Str("soak".into())),
            ("program", Json::Str(program(1, cycle))),
        ]);
        request_ok(&svc, &open.dump());
        request_ok(&svc, "{\"op\":\"close\",\"id\":\"soak\"}");
    }
    let stats = request_ok(&svc, "{\"op\":\"stats\"}");
    assert_eq!(
        num(&stats, &["cache", "bytes"]),
        full,
        "the FIR entry was evicted"
    );
}

/// The soak's `k`-th rotating program, made distinct by `nonce`.
fn program(k: usize, nonce: usize) -> String {
    format!(
        "void->void pipeline Main {{ add S(); add K(); }} \
         void->float filter S {{ float x; work push 1 {{ push(x++); }} }} \
         float->void filter K {{ work pop 1 {{ println({k} * pop()); }} }} \
         // nonce {nonce}"
    )
}
