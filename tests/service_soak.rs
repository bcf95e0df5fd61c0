//! A soak of the daemon core: 2 000 open/read/close cycles, each of a
//! program text the plan cache has not seen, through `Service::handle` in
//! process. Afterwards no stream, ledger claim or pool thread has leaked,
//! and the plan cache holds exactly its bound.
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
    for cycle in 0..CYCLES {
        let k = cycle % 9 + 1;
        let program = format!(
            "void->void pipeline Main {{ add S(); add K(); }} \
             void->float filter S {{ float x; work push 1 {{ push(x++); }} }} \
             float->void filter K {{ work pop 1 {{ println({k} * pop()); }} }} \
             // nonce {cycle}"
        );
        // Every fourth stream is a two-stage pipeline, so the soak also
        // takes pool workers and parks them again.
        let threaded = cycle % 4 == 0;
        let mut members = vec![
            ("op", Json::Str("open".into())),
            ("id", Json::Str("soak".into())),
            ("program", Json::Str(program)),
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

        if cycle == 0 {
            let stats = request_ok(&svc, "{\"op\":\"stats\"}");
            spawned = Some(num(&stats, &["pool", "spawned"]));
        }
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
}
