//! `streamlin-service` — the persistent streaming daemon behind
//! `streamlind`.
//!
//! One-shot `streamlinc` is the wrong shape for heavy traffic: every
//! invocation re-parses, re-elaborates, re-analyzes, re-plans and
//! re-partitions before firing a single item, and tears the worker pool
//! back down afterwards. This crate keeps everything resident:
//!
//! * a **plan cache** ([`cache`]) keyed by program content-hash × the
//!   request's normalised `PlanSpec`, holding the fully compiled artifact
//!   (`FilterFacts` intact) so compile cost is paid once per distinct
//!   program while its plan is among the `max_streams` most recently
//!   used (the least recently used entry is evicted);
//! * **named streams**: each holds a resident
//!   [`streamlin_runtime::Session`] — the same session a one-shot
//!   `streamlinc` run opens, reads once and closes — whose engine state
//!   persists across requests;
//! * a **line-delimited JSON protocol** ([`proto`]) over stdio or TCP,
//!   built on `streamlin_support::json` (no serialization dependency);
//! * **admission control** ([`admission`]): streams multiplex onto the
//!   process-wide worker pool under a worker budget — saturation yields
//!   a structured refusal (or a bounded wait), never a hang, and a
//!   degradable failure degrades *that stream only* onto the
//!   single-threaded static plan.
//!
//! Determinism contract: the same program driven through the service, in
//! any interleaving with other streams and any read batching, produces
//! **bit-identical** output to one-shot `streamlinc` — pinned by
//! `tests/service_equivalence.rs` across all nine paper benchmarks.
//!
//! [`Service::handle`] is the transport-free core (one request line in,
//! one response line out); [`server`] wraps it in the stdio/TCP loops
//! the `streamlind` binary runs. Tests and benchmarks drive
//! [`Service::handle`] in process — same dispatcher, no pipes.

pub mod admission;
pub mod cache;
pub mod proto;
pub mod server;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use streamlin_runtime::{pool, RunSpec, Session};
use streamlin_support::json::Json;
use streamlin_support::Recorder;

use admission::Ledger;
use cache::PlanCache;
use proto::{err_response, ok_response, OpenReq, Request};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceOpts {
    /// Admission budget: worker threads all live streams may claim in
    /// total (a pipeline stream claims its partition's stage count, a
    /// single-threaded stream claims 1).
    pub workers: usize,
    /// Maximum concurrently open streams, and the plan cache's capacity
    /// (floored at 1).
    pub max_streams: usize,
    /// Print each closed stream's telemetry summary to stderr.
    pub metrics: bool,
    /// Directory for per-stream Chrome traces (`<dir>/<id>.trace.json`).
    pub trace_dir: Option<String>,
    /// Default stall watchdog for pipeline streams whose `open` doesn't
    /// set `watchdog_ms`. `None` leaves unsupervised streams unarmed
    /// (matching one-shot `streamlinc`); daemons that must never wedge a
    /// stream on a ring stall should set it (`--watchdog <ms>`).
    pub watchdog_ms: Option<u64>,
}

/// The most values one `read` may ask for; a larger `n` is refused as
/// `too_large` before the stream is touched. A reply is built whole in
/// memory (about 20 bytes a value), so this bounds what one request line
/// can make the daemon compute and hold.
pub const MAX_READ_N: usize = 1 << 20;

/// The longest request line (newline excluded) the transports accept and
/// the most of one they hold; a longer one is one `too_large`, and the line
/// after it is served. An `open` carries its program inline: this bounds it.
pub const MAX_LINE_BYTES: usize = 1 << 20;

impl Default for ServiceOpts {
    fn default() -> Self {
        ServiceOpts {
            workers: std::thread::available_parallelism().map_or(8, |n| n.get()),
            max_streams: 64,
            metrics: false,
            trace_dir: None,
            watchdog_ms: None,
        }
    }
}

struct StreamEntry {
    /// The resident engine; `None` once the stream has been torn down
    /// (whoever takes the engine out owns releasing the ledger claim and
    /// closing it, so teardown happens exactly once).
    exec: Option<Box<dyn Session>>,
    /// Current ledger claim (drops to 1 when the stream degrades).
    workers: usize,
}

/// A stream slot: its own mutex, so executing one stream never blocks
/// the global table. Lock order is strict — the table lock is always
/// released before an entry lock is taken.
type StreamSlot = Arc<Mutex<StreamEntry>>;

/// Locks `mutex`, taking the guard over if a thread panicked while it held
/// it. For the daemon's shared state — the stream table, the plan cache,
/// the admission ledger — every critical section leaves the state
/// consistent at each point a panic could unwind from, so one request's
/// bug does not turn every later request into a panic.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The daemon core: plan cache, stream table, admission ledger, and the
/// request dispatcher. Transport-free — [`server`] owns the I/O loops.
pub struct Service {
    opts: ServiceOpts,
    /// What every `open` is parsed over: the built-in defaults overlaid
    /// with the daemon's own.
    base: RunSpec,
    cache: PlanCache,
    ledger: Ledger,
    /// The stream table. Guards only membership: entries carry their own
    /// locks, so a slow `read` on one stream never stalls lookups,
    /// opens, or reads of its neighbors.
    streams: Mutex<HashMap<String, StreamSlot>>,
    shutdown: AtomicBool,
}

/// Stream ids name filesystem artifacts (`<trace_dir>/<id>.trace.json`),
/// so they are confined to a single path component: 1–128 characters
/// from `[A-Za-z0-9._-]`, excluding the special names `.` and `..`. A
/// client-controlled id must never traverse out of the trace directory.
fn valid_stream_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 128
        && id != "."
        && id != ".."
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

impl Service {
    pub fn new(opts: ServiceOpts) -> Self {
        let ledger = Ledger::new(opts.workers);
        let cache = PlanCache::new(opts.max_streams);
        let base = RunSpec {
            watchdog: opts.watchdog_ms.map(Duration::from_millis),
            ..RunSpec::default()
        };
        Service {
            opts,
            base,
            cache,
            ledger,
            streams: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Whether a `shutdown` request has been dispatched (the server
    /// loops poll this to exit).
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Dispatches one request line to one response line. Never panics on
    /// malformed input; failures are structured `{"ok":false,...}`
    /// responses.
    pub fn handle(&self, line: &str) -> String {
        match proto::parse_request_over(line, &self.base) {
            Err(detail) => err_response("bad_request", &detail, vec![]),
            Ok(Request::Ping) => ok_response("pong", vec![]),
            Ok(Request::Stats) => self.handle_stats(),
            Ok(Request::Shutdown) => {
                self.shutdown.store(true, Ordering::SeqCst);
                self.close_all();
                ok_response("shutdown", vec![])
            }
            Ok(Request::Open(req)) => self.handle_open(&req),
            Ok(Request::Read { id, n }) => self.handle_read(&id, n),
            Ok(Request::Close { id }) => self.handle_close(&id),
        }
    }

    fn handle_open(&self, req: &OpenReq) -> String {
        if !valid_stream_id(&req.id) {
            return err_response(
                "bad_request",
                "stream id must be 1-128 characters from [A-Za-z0-9._-] (not `.` or `..`)",
                vec![],
            );
        }
        // Fast-path refusal before paying compile cost. Advisory only:
        // the authoritative duplicate/limit check re-runs under the lock
        // acquisition that inserts, so concurrent opens cannot race past
        // it.
        {
            let streams = lock(&self.streams);
            if let Some(resp) = Self::refuse_open(&streams, &req.id, self.opts.max_streams) {
                return resp;
            }
        }
        // Each stream has its own recorder when something reads it
        // (`metrics`, `trace_dir`). A cache miss compiles on it, so the
        // stream's close report carries its compile phases.
        let instrument = self.opts.metrics || self.opts.trace_dir.is_some();
        let mut rec = instrument.then(Recorder::new);
        let plan = req.spec.plan();
        let (artifact, cached) = match self.cache.get_or_compile(&req.program, plan, rec.as_mut()) {
            Ok(pair) => pair,
            Err(detail) => return err_response("compile_error", &detail, vec![]),
        };
        let compiled = &artifact.compiled;
        // Admission: claim the stream's worker complement before any
        // pool thread is taken; saturation is a structured refusal (or a
        // bounded wait), never a hang.
        let need = compiled.workers_needed();
        let wait = req.wait_ms.map(Duration::from_millis);
        if let Err(e) = self.ledger.claim(need, wait) {
            let (code, pairs) = match &e {
                admission::AdmitError::Saturated {
                    need,
                    in_use,
                    budget,
                } => (
                    "saturated",
                    vec![
                        ("need".to_string(), Json::Num(*need as f64)),
                        ("in_use".to_string(), Json::Num(*in_use as f64)),
                        ("budget".to_string(), Json::Num(*budget as f64)),
                    ],
                ),
                admission::AdmitError::TooLarge { need, budget } => (
                    "too_large",
                    vec![
                        ("need".to_string(), Json::Num(*need as f64)),
                        ("budget".to_string(), Json::Num(*budget as f64)),
                    ],
                ),
            };
            return err_response(code, &e.to_string(), pairs);
        }
        let exec = match streamlin_runtime::open(compiled.clone(), &req.spec.exec(), rec) {
            Ok(exec) => exec,
            Err(e) => {
                self.ledger.release(need);
                return err_response("run_error", &e.to_string(), vec![]);
            }
        };
        let degraded = exec.degraded().map(str::to_string);
        let mut workers = need;
        if degraded.is_some() && need > 1 {
            // Setup-time degradation: the stream runs single-threaded,
            // so its surplus claim goes straight back to the budget.
            self.ledger.release(need - 1);
            workers = 1;
        }
        {
            // Authoritative admission to the table: re-check duplicate
            // and limit under the same lock acquisition that inserts. A
            // concurrent open of the same id may have won while we were
            // compiling; the loser backs out its ledger claim.
            let mut streams = lock(&self.streams);
            if let Some(resp) = Self::refuse_open(&streams, &req.id, self.opts.max_streams) {
                drop(streams);
                self.ledger.release(workers);
                let _ = exec.close();
                return resp;
            }
            streams.insert(
                req.id.clone(),
                Arc::new(Mutex::new(StreamEntry {
                    exec: Some(exec),
                    workers,
                })),
            );
        }
        let mut pairs = vec![
            ("id".to_string(), Json::Str(req.id.clone())),
            ("cached".to_string(), Json::Bool(cached)),
            ("compile_ms".to_string(), Json::Num(artifact.compile_ms)),
            ("workers".to_string(), Json::Num(workers as f64)),
        ];
        if let Some(d) = degraded {
            pairs.push(("degraded".to_string(), Json::Str(d)));
        }
        ok_response("open", pairs)
    }

    /// The duplicate/limit refusal, shared by `handle_open`'s advisory
    /// pre-check and the authoritative check under the insert lock.
    fn refuse_open(
        streams: &HashMap<String, StreamSlot>,
        id: &str,
        max_streams: usize,
    ) -> Option<String> {
        if streams.contains_key(id) {
            return Some(err_response(
                "duplicate_stream",
                &format!("stream `{id}` is already open"),
                vec![],
            ));
        }
        if streams.len() >= max_streams {
            return Some(err_response(
                "too_many_streams",
                &format!("{} stream(s) open, limit {}", streams.len(), max_streams),
                vec![],
            ));
        }
        None
    }

    fn handle_read(&self, id: &str, n: usize) -> String {
        // Refused before the stream is looked up, locked or fired, and
        // before anything is sized from `n`: an absurd `n` must cost the
        // daemon nothing.
        if n > MAX_READ_N {
            return err_response(
                "too_large",
                &format!("read of {n} values exceeds the limit of {MAX_READ_N}"),
                vec![
                    ("n".to_string(), Json::Num(n as f64)),
                    ("limit".to_string(), Json::Num(MAX_READ_N as f64)),
                ],
            );
        }
        // Table lock only for the lookup; the (possibly long) execution
        // runs under the stream's own lock, so neighbors, `stats`, opens
        // and closes proceed while this stream computes.
        let Some(slot) = lock(&self.streams).get(id).map(Arc::clone) else {
            return err_response("unknown_stream", &format!("no stream `{id}`"), vec![]);
        };
        let mut entry = match slot.lock() {
            Ok(entry) => entry,
            // A read of this stream panicked mid-firing: its engine state
            // is unknown, so the stream is torn down like a failed read.
            Err(poisoned) => {
                let entry = poisoned.into_inner();
                return self.tear_down(id, &slot, entry, "an earlier read of this stream panicked");
            }
        };
        let Some(exec) = entry.exec.as_mut() else {
            // Torn down by a concurrent failed read or close.
            return err_response("unknown_stream", &format!("no stream `{id}`"), vec![]);
        };
        match exec.read(n) {
            Ok(values) => {
                let degraded = exec.degraded();
                let response = proto::read_response(id, &values, exec.delivered(), degraded);
                if degraded.is_some() && entry.workers > 1 {
                    // This stream fell back to the single-threaded plan;
                    // its surplus workers return to the budget. Neighbor
                    // streams are untouched.
                    self.ledger.release(entry.workers - 1);
                    entry.workers = 1;
                }
                response
            }
            // Non-degradable failure: the program itself is broken (it
            // would fail identically on any executor).
            Err(e) => self.tear_down(id, &slot, entry, &e.to_string()),
        }
    }

    /// Removes a stream whose read failed — the table slot (if it is still
    /// this one), its ledger claim and its engine — and answers
    /// `run_error` with `detail`.
    fn tear_down(
        &self,
        id: &str,
        slot: &StreamSlot,
        mut entry: MutexGuard<'_, StreamEntry>,
        detail: &str,
    ) -> String {
        let exec = entry.exec.take();
        let workers = entry.workers;
        drop(entry);
        {
            // Drop the table slot too — but only if it is still ours (a
            // concurrent close may already have removed it, and the id
            // may even have been reopened).
            let mut streams = lock(&self.streams);
            if streams.get(id).is_some_and(|s| Arc::ptr_eq(s, slot)) {
                streams.remove(id);
            }
        }
        if let Some(exec) = exec {
            self.ledger.release(workers);
            let _ = exec.close();
        }
        err_response(
            "run_error",
            detail,
            vec![("id".to_string(), Json::Str(id.into()))],
        )
    }

    fn handle_close(&self, id: &str) -> String {
        let Some(slot) = lock(&self.streams).remove(id) else {
            return err_response("unknown_stream", &format!("no stream `{id}`"), vec![]);
        };
        // Waits for an in-flight read on this stream to finish; the
        // table lock is already released, so neighbors are unaffected. A
        // read that panicked left the engine to be closed, nothing more.
        let mut entry = lock(&slot);
        let Some(exec) = entry.exec.take() else {
            // A concurrently failing read already tore the stream down
            // (and released its claim).
            return err_response("unknown_stream", &format!("no stream `{id}`"), vec![]);
        };
        let workers = entry.workers;
        drop(entry);
        self.ledger.release(workers);
        let report = exec.close();
        let mut pairs = vec![
            ("id".to_string(), Json::Str(id.into())),
            ("delivered".to_string(), Json::Num(report.delivered as f64)),
            ("flops".to_string(), Json::Num(report.ops.flops() as f64)),
            ("mults".to_string(), Json::Num(report.ops.mults() as f64)),
            ("firings".to_string(), Json::Num(report.firings as f64)),
        ];
        if let Some(d) = &report.degraded {
            pairs.push(("degraded".to_string(), Json::Str(d.clone())));
        }
        if let Some(rec) = &report.probe {
            if self.opts.metrics {
                eprintln!("--- stream {id} ---\n{}", rec.summary());
            }
            if let Some(dir) = &self.opts.trace_dir {
                let path = format!("{dir}/{id}.trace.json");
                match std::fs::write(&path, rec.chrome_trace()) {
                    Ok(()) => pairs.push(("trace".to_string(), Json::Str(path))),
                    Err(e) => eprintln!("streamlind: cannot write {path}: {e}"),
                }
            }
        }
        ok_response("close", pairs)
    }

    fn handle_stats(&self) -> String {
        let c = self.cache.stats();
        let open = lock(&self.streams).len();
        ok_response(
            "stats",
            vec![
                (
                    "cache".to_string(),
                    Json::obj(vec![
                        ("hits", Json::Num(c.hits as f64)),
                        ("misses", Json::Num(c.misses as f64)),
                        ("evictions", Json::Num(c.evictions as f64)),
                        ("entries", Json::Num(c.entries as f64)),
                        ("capacity", Json::Num(c.capacity as f64)),
                        ("bytes", Json::Num(c.bytes as f64)),
                    ]),
                ),
                ("streams".to_string(), Json::Num(open as f64)),
                (
                    "workers".to_string(),
                    Json::obj(vec![
                        ("in_use", Json::Num(self.ledger.in_use() as f64)),
                        ("budget", Json::Num(self.ledger.budget() as f64)),
                    ]),
                ),
                (
                    "pool".to_string(),
                    Json::obj(vec![
                        ("spawned", Json::Num(pool::global_spawned() as f64)),
                        ("idle", Json::Num(pool::global_idle() as f64)),
                        ("retired", Json::Num(pool::global_retired() as f64)),
                    ]),
                ),
            ],
        )
    }

    /// Closes every stream (shutdown path), releasing claims and parking
    /// pipeline workers back on the pool. A slot whose lock is held by a
    /// still-running read is skipped rather than waited on — shutdown
    /// must not hang behind a stalled stream, and the process is exiting
    /// anyway.
    fn close_all(&self) {
        let slots: Vec<StreamSlot> = {
            let mut streams = lock(&self.streams);
            streams.drain().map(|(_, s)| s).collect()
        };
        for slot in slots {
            let Ok(mut entry) = slot.try_lock() else {
                continue;
            };
            let Some(exec) = entry.exec.take() else {
                continue;
            };
            let workers = entry.workers;
            drop(entry);
            self.ledger.release(workers);
            let _ = exec.close();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.close_all();
    }
}
