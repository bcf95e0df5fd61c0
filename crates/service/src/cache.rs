//! The plan cache: compile once per distinct (program, plan spec) while
//! its plan is among the `max_streams` most recently used.
//!
//! One-shot `streamlinc` pays the whole compiler — parse, elaborate,
//! linear analysis, replacement selection, lowering, schedule
//! compilation, partitioning — on every invocation. The daemon
//! pays it once per plan it keeps: [`PlanCache::get_or_compile`] keys on
//! the program text plus the request's normalised [`PlanSpec`] (a
//! [`PlanKey`], hashed a word at a time and compared by its text), and
//! stores what [`streamlin_runtime::compile_source`] built — the lowered
//! graph (each filter's `FilterFacts` intact, per the facts-not-AST
//! convention), the static plan and the partition — behind an
//! [`Arc`]. Opening a stream for a cached key clones the artifact and
//! opens a session on the clone; the compiler never runs again while the
//! key stays cached. The clone shares every immutable table of the
//! artifact (kernel coefficients, spectra, twiddles, redundancy tuples,
//! periodic values, plan step lists) and copies only what the session
//! mutates — wiring, interpreted filters' globals, empty kernel scratch —
//! so a hit `open` costs the session's state, not the program's tables.
//! `stats` reports the tables the cache holds as `cache.bytes`.
//!
//! A key is compiled at most once at a time, outside the cache lock: the
//! open that misses marks the key as compiling and compiles it; opens of
//! that key wait for the outcome, and opens of every other key go ahead.
//!
//! The cache holds at most `capacity` plans (the daemon passes
//! `ServiceOpts::max_streams`: it keeps as many plans as it may have
//! streams open). A compile that finishes with the cache full evicts the
//! least recently used entry. Eviction is safe by construction: a session
//! owns a clone of the compiled artifact, and an open that still holds the
//! [`Arc`] keeps an evicted artifact alive until it returns.
//!
//! Hits, misses and evictions are counted; the `stats` protocol op exposes
//! them, and `tests/service_equivalence.rs` pins that a re-opened program
//! is a hit (the equivalence suite's proof that elaborate/lower/analyze/plan
//! were skipped) and that the cache stays at its bound under churn.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use streamlin_runtime::{compile_source, Compiled, PlanSpec};
use streamlin_support::Recorder;

use crate::lock;

/// The hash of a program text in its [`PlanKey`], taken 8 bytes at a
/// time. The text's 16-byte blocks (the last one zero-padded) feed two
/// lanes a little-endian word each, so the two multiply chains overlap;
/// a word is folded into its lane by a rotate, an xor and a multiply. The
/// lanes start from the length and are folded together at the end. Not
/// cryptographic, and it need not be: keys compare their texts, so two
/// texts with one hash cost a comparison, never a wrong artifact.
fn text_hash(text: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |h: u64, word: &[u8]| {
        let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        (h.rotate_left(23) ^ word).wrapping_mul(K)
    };
    let mut blocks = text.chunks_exact(16);
    let len = text.len() as u64;
    let (mut a, mut b) = (len.wrapping_mul(K), !len);
    for block in &mut blocks {
        (a, b) = (fold(a, &block[..8]), fold(b, &block[8..]));
    }
    let mut last = [0; 16];
    last[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
    (a, b) = (fold(a, &last[..8]), fold(b, &last[8..]));
    let h = fold(a, &b.to_le_bytes());
    h ^ (h >> 32)
}

/// What selects a distinct compiled artifact: the program text and the
/// [`PlanSpec`] — which is, by type, everything the compiler can see, so
/// a knob cannot be left out of the key. The execution mode is not in it:
/// it only selects a session's `Tally`, and its one compile-time effect
/// (the default matmul kernel) is already resolved into the spec, so Fast
/// and Measured streams of one program share one artifact.
///
/// Keys are equal when their hashes, specs and texts are; the hash is
/// only what the map spreads them by. Texts made to collide in
/// `text_hash` share a bucket of the map, which holds at most
/// `capacity` compiled plans and the compiles in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    hash: u64,
    spec: PlanSpec,
    text: String,
}

impl PlanKey {
    /// The key of program `text` compiled under `spec`. It owns the text:
    /// an `open` moves its program in, so a hit copies nothing.
    pub fn of(text: impl Into<String>, spec: PlanSpec) -> Self {
        let text = text.into();
        PlanKey {
            hash: text_hash(text.as_bytes()),
            spec,
            text,
        }
    }
}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The text is in the key's hash: equal texts have equal hashes.
        self.hash.hash(state);
        self.spec.hash(state);
    }
}

/// A cache entry.
#[derive(Debug)]
pub struct CachedArtifact {
    pub compiled: Compiled,
    /// Wall-clock cost of the compile (parse through partition), in
    /// milliseconds — the price a cache hit avoids.
    pub compile_ms: f64,
}

/// Cache statistics, exposed by the `stats` protocol op.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Opens that found their key compiled, or compiling and then
    /// compiled.
    pub hits: u64,
    /// Opens that compiled their key, failed compiles included.
    pub misses: u64,
    pub evictions: u64,
    /// Compiled plans held (compiles in flight are not entries).
    pub entries: usize,
    pub capacity: usize,
    /// Table bytes of the cached artifacts
    /// ([`Compiled::table_bytes`]), added when an entry is inserted and
    /// subtracted when it is evicted.
    pub bytes: usize,
    /// Compiles in flight.
    pub compiling: usize,
}

/// The cache proper: a bounded keyed map of [`Arc`]'d artifacts and
/// compiles in flight, plus counters.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<PlanKey, Slot>,
    /// The recency clock, bumped by every lookup.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// The sum of the ready entries' `bytes`.
    bytes: usize,
    /// How many slots of `map` are [`Slot::Compiling`].
    compiling: usize,
}

enum Slot {
    Ready {
        artifact: Arc<CachedArtifact>,
        /// The `tick` of the last lookup that found this entry, or of its
        /// publication.
        used: u64,
        /// The artifact's table bytes.
        bytes: usize,
    },
    /// The key is being compiled; opens of it wait on the flight.
    Compiling(Arc<Flight>),
}

type Outcome = Result<Arc<CachedArtifact>, String>;

/// One compile in flight, settled once with its outcome.
#[derive(Default)]
struct Flight {
    outcome: Mutex<Option<Outcome>>,
    settled: Condvar,
}

impl Flight {
    fn wait(&self) -> Outcome {
        let outcome = self
            .settled
            .wait_while(lock(&self.outcome), |o| o.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        outcome.clone().expect("settled")
    }
}

/// The open compiling a key. Dropping it settles the key's flight:
/// with `outcome` when the compile returned, or with an error when it
/// unwound, so no waiter waits forever.
struct Leader<'a> {
    cache: &'a PlanCache,
    key: PlanKey,
    flight: Arc<Flight>,
    outcome: Option<Outcome>,
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        let outcome = self
            .outcome
            .take()
            .unwrap_or_else(|| Err("the compile of this program panicked".to_string()));
        let mut guard = lock(&self.cache.inner);
        let g = &mut *guard;
        let mut evicted = None;
        match &outcome {
            Ok(artifact) => {
                if g.map.len() - g.compiling >= self.cache.capacity {
                    let lru = g.map.iter().filter_map(|(k, slot)| match slot {
                        Slot::Ready { used, .. } => Some((k, *used)),
                        Slot::Compiling(_) => None,
                    });
                    let lru = lru.min_by_key(|&(_, used)| used).map(|(k, _)| k.clone());
                    evicted = lru.and_then(|k| g.map.remove(&k));
                }
                if let Some(Slot::Ready { bytes, .. }) = &evicted {
                    g.evictions += 1;
                    g.bytes -= bytes;
                }
                // The slot this leader marked: only the leader removes it.
                if let Some(slot) = g.map.get_mut(&self.key) {
                    let bytes = artifact.compiled.table_bytes();
                    g.bytes += bytes;
                    *slot = Slot::Ready {
                        artifact: Arc::clone(artifact),
                        used: g.tick,
                        bytes,
                    };
                }
            }
            Err(_) => {
                g.map.remove(&self.key);
            }
        }
        g.compiling -= 1;
        drop(guard);
        *lock(&self.flight.outcome) = Some(outcome);
        self.flight.settled.notify_all();
        drop(evicted);
    }
}

impl PlanCache {
    /// A cache of at most `capacity` plans (floored at 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::default(),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let g = lock(&self.inner);
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            entries: g.map.len() - g.compiling,
            capacity: self.capacity,
            bytes: g.bytes,
            compiling: g.compiling,
        }
    }

    /// Looks up the artifact for `key`, compiling on a miss with every
    /// phase recorded on `probe`. Returns the artifact and whether this
    /// open found it compiled or compiling (a hit) rather than compiled it
    /// (a miss).
    ///
    /// The compile runs outside the cache lock, once per key: a miss
    /// marks the key as compiling and releases the lock, so opens of other
    /// keys — hits and compiles alike — go ahead meanwhile. Opens of the
    /// same key wait for the outcome and share it: the artifact, counted
    /// as hits, or the error. If the compile panics, the waiters get an
    /// error and the key is unmarked.
    ///
    /// A compile that finds the cache full evicts the least recently used
    /// entry (a scan of `capacity` ticks, beside a compile); the evicted
    /// artifact is dropped after the lock is released, so freeing it never
    /// blocks another open.
    ///
    /// A thread that panicked while holding the lock leaves it poisoned;
    /// the next lookup takes the guard over. The map is still consistent:
    /// no critical section can panic halfway through an update.
    ///
    /// # Errors
    ///
    /// Any compile failure (parse, elaborate, plan, …) as a displayable
    /// message; errors are neither cached nor evict anything.
    pub fn get_or_compile(
        &self,
        key: PlanKey,
        probe: Option<&mut Recorder>,
    ) -> Result<(Arc<CachedArtifact>, bool), String> {
        let mut leader = match self.lookup(key)? {
            Lookup::Found(artifact) => return Ok((artifact, true)),
            Lookup::Lead(leader) => leader,
        };
        let t0 = Instant::now();
        let outcome = compile_source(&leader.key.text, &leader.key.spec, probe).map(|compiled| {
            Arc::new(CachedArtifact {
                compiled,
                compile_ms: t0.elapsed().as_secs_f64() * 1e3,
            })
        });
        leader.outcome = Some(outcome.clone());
        drop(leader);
        outcome.map(|artifact| (artifact, false))
    }

    /// The artifact of `key` if it is compiled, or once its compile in
    /// flight settles; otherwise marks `key` compiling and hands the
    /// caller the lead.
    fn lookup(&self, key: PlanKey) -> Result<Lookup<'_>, String> {
        let mut guard = lock(&self.inner);
        let g = &mut *guard;
        g.tick += 1;
        match g.map.get_mut(&key) {
            Some(Slot::Ready { artifact, used, .. }) => {
                *used = g.tick;
                g.hits += 1;
                return Ok(Lookup::Found(Arc::clone(artifact)));
            }
            Some(Slot::Compiling(flight)) => {
                let flight = Arc::clone(flight);
                drop(guard);
                let artifact = flight.wait()?;
                lock(&self.inner).hits += 1;
                return Ok(Lookup::Found(artifact));
            }
            None => {}
        }
        let flight = Arc::new(Flight::default());
        g.map
            .insert(key.clone(), Slot::Compiling(Arc::clone(&flight)));
        g.misses += 1;
        g.compiling += 1;
        Ok(Lookup::Lead(Leader {
            cache: self,
            key,
            flight,
            outcome: None,
        }))
    }
}

/// What [`PlanCache::lookup`] found: the artifact, or the lead of a new
/// compile.
enum Lookup<'a> {
    Found(Arc<CachedArtifact>),
    Lead(Leader<'a>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use streamlin_runtime::RunSpec;
    use streamlin_support::json::{self, Json};

    /// `text_hash(PROGRAM)`.
    const PINNED: u64 = 0x850c_3d74_d8fe_b75b;

    const PROGRAM: &str = "void->void pipeline Main { add S(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->void filter K { work pop 1 { println(2 * pop()); } }";

    fn spec(threads: Option<usize>) -> PlanSpec {
        RunSpec {
            threads,
            ..RunSpec::default()
        }
        .plan()
    }

    /// `PROGRAM` with its sink's factor replaced by `k`: one distinct key
    /// per `k`.
    fn program(k: u32) -> String {
        PROGRAM.replace("2 * pop()", &format!("{k} * pop()"))
    }

    fn lookup(cache: &PlanCache, k: u32) -> bool {
        cache
            .get_or_compile(PlanKey::of(program(k), spec(None)), None)
            .unwrap()
            .1
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_artifact() {
        let cache = PlanCache::new(64);
        let (a, hit) = cache
            .get_or_compile(PlanKey::of(PROGRAM, spec(None)), None)
            .unwrap();
        assert!(!hit);
        let (b, hit) = cache
            .get_or_compile(PlanKey::of(PROGRAM, spec(None)), None)
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_knobs_are_distinct_entries() {
        let cache = PlanCache::new(64);
        cache
            .get_or_compile(PlanKey::of(PROGRAM, spec(None)), None)
            .unwrap();
        let (a, hit) = cache
            .get_or_compile(PlanKey::of(PROGRAM, spec(Some(2))), None)
            .unwrap();
        assert!(!hit);
        assert!(
            a.compiled.part.is_some(),
            "pipeline key carries a partition"
        );
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = PlanCache::new(64);
        assert!(cache
            .get_or_compile(PlanKey::of("not a program", spec(None)), None)
            .is_err());
        let s = cache.stats();
        assert_eq!((s.misses, s.entries, s.compiling), (1, 0, 0));
    }

    #[test]
    fn a_hit_refreshes_recency_and_the_least_recently_used_is_evicted() {
        let cache = PlanCache::new(2);
        assert!(!lookup(&cache, 1));
        assert!(!lookup(&cache, 2));
        // 1 is now more recent than 2, so 3 evicts 2.
        assert!(lookup(&cache, 1));
        assert!(!lookup(&cache, 3));
        assert_eq!(cache.stats().evictions, 1);
        assert!(lookup(&cache, 1), "the refreshed entry survived");
        assert!(lookup(&cache, 3));
        assert!(!lookup(&cache, 2), "the stale entry was evicted");
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 2));
    }

    #[test]
    fn an_artifact_taken_before_eviction_still_runs() {
        let cache = PlanCache::new(1);
        let (held, _) = cache
            .get_or_compile(PlanKey::of(program(3), spec(None)), None)
            .unwrap();
        assert!(!lookup(&cache, 4));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(Arc::strong_count(&held), 1, "the cache let go of it");
        let mut session =
            streamlin_runtime::open(held.compiled.clone(), &RunSpec::default().exec(), None)
                .unwrap();
        assert_eq!(session.read(3).unwrap(), vec![0.0, 3.0, 6.0]);
        session.close();
    }

    #[test]
    fn a_compile_error_neither_inserts_nor_evicts() {
        let cache = PlanCache::new(1);
        assert!(!lookup(&cache, 1));
        assert!(cache
            .get_or_compile(PlanKey::of("not a program", spec(None)), None)
            .is_err());
        let s = cache.stats();
        assert_eq!((s.misses, s.entries, s.evictions), (2, 1, 0));
        assert!(lookup(&cache, 1), "the resident entry is untouched");
    }

    #[test]
    fn zero_max_streams_gives_capacity_one() {
        let svc = crate::Service::new(crate::ServiceOpts {
            max_streams: 0,
            ..crate::ServiceOpts::default()
        });
        let cache = &svc.cache;
        assert_eq!(cache.stats().capacity, 1);
        assert!(!lookup(cache, 1));
        assert!(lookup(cache, 1));
        assert!(!lookup(cache, 2));
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (1, 1));
    }

    #[test]
    fn a_full_cache_evicts_once_per_further_miss() {
        let capacity = 3;
        let cache = PlanCache::new(capacity);
        for k in 1..=8 {
            assert!(!lookup(&cache, k));
            let s = cache.stats();
            assert_eq!(s.entries, (k as usize).min(capacity));
            assert_eq!(s.evictions, s.misses.saturating_sub(capacity as u64));
        }
    }

    #[test]
    fn bytes_count_the_cached_tables_and_fall_on_eviction() {
        let cache = PlanCache::new(1);
        assert_eq!(cache.stats().bytes, 0);
        let fir = "void->void pipeline Main { add S(); add F(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter F { work peek 64 pop 1 push 1 {
                 float s = 0; for (int i = 0; i < 64; i++) s += (i + 1) * peek(i);
                 push(s); pop(); } }
             float->void filter K { work pop 1 { println(pop()); } }";
        let (big, _) = cache
            .get_or_compile(PlanKey::of(fir, spec(None)), None)
            .unwrap();
        let held = cache.stats().bytes;
        assert_eq!(held, big.compiled.table_bytes());
        assert!(held >= 64 * 8, "the 64 coefficients are tables: {held}");
        assert!(!lookup(&cache, 1));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes < held, "{} after evicting {held}", s.bytes);
    }

    #[test]
    fn a_panic_under_the_cache_lock_leaves_the_cache_answering() {
        let cache = Arc::new(PlanCache::new(4));
        assert!(!lookup(&cache, 1));
        let holder = Arc::clone(&cache);
        let died = std::thread::spawn(move || {
            let _guard = holder.inner.lock().unwrap();
            panic!("a bug while the plan cache lock is held");
        })
        .join();
        assert!(died.is_err());
        assert!(cache.inner.is_poisoned());
        assert!(lookup(&cache, 1), "the entry survived");
        assert!(!lookup(&cache, 2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
    }

    #[test]
    fn text_hash_is_pinned_and_tells_the_benchmarks_and_their_edits_apart() {
        assert_eq!(text_hash(PROGRAM.as_bytes()), PINNED);
        let mut seen = std::collections::HashSet::new();
        let benchmarks = streamlin_benchmarks::all_default();
        for bench in &benchmarks {
            let text = bench.source().as_bytes();
            assert!(seen.insert(text_hash(text)), "{}", bench.name());
            // One byte changed at the start, in the middle and at the end.
            for at in [0, text.len() / 2, text.len() - 1] {
                let mut edited = text.to_vec();
                edited[at] ^= 0x20;
                assert!(seen.insert(text_hash(&edited)), "{} at {at}", bench.name());
            }
        }
        assert_eq!(seen.len(), 4 * benchmarks.len());
    }

    #[test]
    fn keys_with_one_hash_and_two_texts_are_two_entries() {
        let key = |k| PlanKey {
            hash: 7,
            ..PlanKey::of(program(k), spec(None))
        };
        assert_ne!(key(2), key(3));
        let cache = PlanCache::new(4);
        let (two, hit) = cache.get_or_compile(key(2), None).unwrap();
        assert!(!hit);
        let (three, hit) = cache.get_or_compile(key(3), None).unwrap();
        assert!(
            !hit,
            "the second text shares the first's hash, not its artifact"
        );
        let (again, hit) = cache.get_or_compile(key(2), None).unwrap();
        assert!(hit && Arc::ptr_eq(&two, &again));
        for (artifact, k) in [(two, 2.0), (three, 3.0)] {
            let exec = RunSpec::default().exec();
            let mut session =
                streamlin_runtime::open(artifact.compiled.clone(), &exec, None).unwrap();
            assert_eq!(session.read(3).unwrap(), vec![0.0, k, 2.0 * k]);
            session.close();
        }
        assert_eq!(cache.stats().entries, 2);
    }

    /// `assets/fir.str` with its low-pass filter replaced by a chain of
    /// `k` 256-tap ones, as in `tests/compile_scaling.rs`.
    fn chain(k: usize) -> String {
        let fir = include_str!("../../../assets/fir.str");
        let single = "add LowPassFilter(1, pi/3, 64);";
        assert!(fir.contains(single));
        let chain = "float->float pipeline Chain(int k) {
             for (int i = 0; i < k; i++) add LowPassFilter(1, pi/3, 256);
         }";
        format!(
            "{}\n{chain}",
            fir.replace(single, &format!("add Chain({k});"))
        )
    }

    /// A chain whose compile takes about a second in the test profile
    /// (about half that in release), selection being most of it.
    const LONG: usize = 160;

    /// `chain(k)` followed by a feedback loop that enqueues nothing: the
    /// planner refuses it, after selection has priced the chain.
    fn unschedulable_chain(k: usize) -> String {
        let head = format!("add Chain({k});");
        let chain = chain(k).replace(&head, &format!("{head} add FB();"));
        format!(
            "{chain}
             float->float feedbackloop FB {{
                 join roundrobin(1, 1);
                 body A();
                 loop I();
                 split roundrobin(1, 1);
             }}
             float->float filter A {{ work pop 2 push 2 {{ push(pop() + peek(0)); push(pop()); }} }}
             float->float filter I {{ work pop 1 push 1 {{ push(pop()); }} }}"
        )
    }

    fn open_line(id: &str, program: &str) -> String {
        Json::obj([
            ("op", Json::from("open")),
            ("id", Json::from(id)),
            ("program", Json::from(program)),
        ])
        .dump()
    }

    /// The flight of the one compile in flight.
    fn in_flight(cache: &PlanCache) -> Arc<Flight> {
        let g = lock(&cache.inner);
        let flights = g.map.values().filter_map(|slot| match slot {
            Slot::Compiling(flight) => Some(Arc::clone(flight)),
            Slot::Ready { .. } => None,
        });
        flights.last().expect("a compile in flight")
    }

    /// Sleeps in 1 ms steps until `ready`, failing if `gone` first.
    fn wait_until(ready: impl Fn() -> bool, gone: impl Fn() -> bool) {
        while !ready() {
            assert!(!gone(), "finished before it was seen in flight");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn in_flight_compile_never_blocks_a_hit_open() {
        let svc = Arc::new(crate::Service::new(crate::ServiceOpts {
            workers: 8,
            ..crate::ServiceOpts::default()
        }));
        let answer = |line: &str| json::parse(&svc.handle(line)).unwrap();
        let warm = answer(&open_line("warm", PROGRAM));
        assert_eq!(warm.get("cached"), Some(&Json::Bool(false)), "{warm:?}");
        let cold = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.handle(&open_line("long", &chain(LONG))))
        };
        wait_until(|| svc.cache.stats().compiling == 1, || cold.is_finished());
        let t0 = Instant::now();
        let hit = answer(&open_line("hit", PROGRAM));
        let took = t0.elapsed();
        assert!(
            !cold.is_finished(),
            "the chain compiled before the hit returned"
        );
        assert_eq!(hit.get("cached"), Some(&Json::Bool(true)), "{hit:?}");
        assert!(took < Duration::from_millis(50), "a hit open took {took:?}");
        let cold = json::parse(&cold.join().unwrap()).unwrap();
        assert_eq!(cold.get("cached"), Some(&Json::Bool(false)), "{cold:?}");
        let s = svc.cache.stats();
        assert_eq!((s.misses, s.hits, s.entries, s.compiling), (2, 1, 2, 0));
    }

    #[test]
    fn in_flight_opens_of_one_key_compile_it_once() {
        let cache = PlanCache::new(64);
        let text = chain(LONG / 4);
        let barrier = std::sync::Barrier::new(8);
        let got: Vec<_> = std::thread::scope(|s| {
            let opens: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.get_or_compile(PlanKey::of(&text[..], spec(None)), None)
                    })
                })
                .collect();
            opens
                .into_iter()
                .map(|t| t.join().unwrap().unwrap())
                .collect()
        });
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries, s.compiling), (1, 7, 1, 0));
        assert_eq!(got.iter().filter(|(_, hit)| !hit).count(), 1);
        assert!(got.iter().all(|(a, _)| Arc::ptr_eq(a, &got[0].0)));
    }

    #[test]
    fn in_flight_compile_errors_reach_every_waiter_and_are_not_cached() {
        let cache = PlanCache::new(64);
        let text = unschedulable_chain(LONG);
        let open = || cache.get_or_compile(PlanKey::of(&text[..], spec(None)), None);
        let errors: Vec<String> = std::thread::scope(|s| {
            let leader = s.spawn(open);
            wait_until(|| cache.stats().compiling == 1, || leader.is_finished());
            let flight = in_flight(&cache);
            let waiters: Vec<_> = (0..4).map(|_| s.spawn(open)).collect();
            // The map, the leader, this test and the four waiters.
            wait_until(|| Arc::strong_count(&flight) == 7, || leader.is_finished());
            drop(flight);
            let opens = std::iter::once(leader).chain(waiters);
            opens.map(|t| t.join().unwrap().unwrap_err()).collect()
        });
        assert!(errors[0].contains("feedback loop"), "{}", errors[0]);
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries, s.compiling), (1, 0, 0, 0));
        assert!(open().is_err());
        assert_eq!(cache.stats().misses, 2, "the next open compiles again");
    }

    #[test]
    fn in_flight_compile_that_panics_releases_its_waiters() {
        let cache = PlanCache::new(4);
        let key = PlanKey::of(PROGRAM, spec(None));
        let Ok(Lookup::Lead(leader)) = cache.lookup(key.clone()) else {
            panic!("a miss leads");
        };
        let flight = Arc::clone(&leader.flight);
        let waited = std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.get_or_compile(key.clone(), None));
            // The map, the leader, this test and now the waiter.
            wait_until(|| Arc::strong_count(&flight) == 4, || waiter.is_finished());
            let died = s.spawn(move || {
                let _leader = leader;
                panic!("a bug in the compiler");
            });
            assert!(died.join().is_err());
            waiter.join().unwrap()
        });
        assert_eq!(waited.unwrap_err(), "the compile of this program panicked");
        let s = cache.stats();
        assert_eq!((s.misses, s.entries, s.compiling), (1, 0, 0));
        assert!(!lookup(&cache, 2), "the key compiles again");
    }
}
