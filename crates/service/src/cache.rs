//! The plan cache: compile once per distinct (program, plan spec) while
//! its plan is among the `max_streams` most recently used.
//!
//! One-shot `streamlinc` pays the whole compiler — parse, elaborate,
//! linear analysis, replacement selection, lowering, schedule
//! compilation, fission, partitioning — on every invocation. The daemon
//! pays it once per plan it keeps: [`PlanCache::get_or_compile`] keys on
//! the program's content hash (FNV-1a 64 over the source text) plus the
//! request's normalised [`PlanSpec`], and stores what
//! [`streamlin_runtime::compile_source`] built — the lowered graph (each
//! filter's `FilterFacts` intact, per the facts-not-AST convention), the
//! static plan, the fission rewrite and the partition — behind an
//! [`Arc`]. Opening a stream for a cached key clones the artifact and
//! opens a session on the clone; the compiler never runs again while the
//! key stays cached. The clone shares every immutable table of the
//! artifact (kernel coefficients, spectra, twiddles, redundancy tuples,
//! periodic values, plan step lists) and copies only what the session
//! mutates — wiring, interpreted filters' globals, empty kernel scratch —
//! so a hit `open` costs the session's state, not the program's tables.
//! `stats` reports the tables the cache holds as `cache.bytes`.
//!
//! The cache holds at most `capacity` plans (the daemon passes
//! `ServiceOpts::max_streams`: it keeps as many plans as it may have
//! streams open). A miss that finds it full evicts the least recently used
//! entry. Eviction is safe by construction: a session owns a clone of the
//! compiled artifact, and an open that still holds the [`Arc`] keeps an
//! evicted artifact alive until it returns.
//!
//! Hits, misses and evictions are counted; the `stats` protocol op exposes
//! them, and `tests/service_equivalence.rs` pins that a re-opened program
//! is a hit (the equivalence suite's proof that elaborate/lower/analyze/plan
//! were skipped) and that the cache stays at its bound under churn.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use streamlin_runtime::{compile_source, Compiled, PlanSpec};
use streamlin_support::Recorder;

use crate::lock;

/// FNV-1a 64-bit content hash — the program identity in cache keys. Not
/// cryptographic; collision risk is irrelevant at plan-cache scale.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What selects a distinct compiled artifact: the source hash and the
/// [`PlanSpec`] — which is, by type, everything the compiler can see, so
/// a knob cannot be left out of the key. The execution mode is not in it:
/// it only selects a session's `Tally`, and its one compile-time effect
/// (the default matmul kernel) is already resolved into the spec, so Fast
/// and Measured streams of one program share one artifact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey(pub u64, pub PlanSpec);

impl PlanKey {
    pub fn of(src: &str, spec: PlanSpec) -> Self {
        PlanKey(fnv1a64(src.as_bytes()), spec)
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
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
    pub capacity: usize,
    /// Table bytes of the cached artifacts
    /// ([`Compiled::table_bytes`]), added when an entry is inserted and
    /// subtracted when it is evicted.
    pub bytes: usize,
}

/// The cache proper: a bounded keyed map of [`Arc`]'d artifacts plus
/// counters.
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
    /// The sum of the entries' `bytes`.
    bytes: usize,
}

struct Slot {
    artifact: Arc<CachedArtifact>,
    /// The `tick` of the last lookup that found or inserted this entry.
    used: u64,
    /// The artifact's table bytes.
    bytes: usize,
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
            entries: g.map.len(),
            capacity: self.capacity,
            bytes: g.bytes,
        }
    }

    /// Looks up the artifact for (`src`, `spec`), compiling on a miss with
    /// every phase recorded on `probe`. Returns the artifact and whether
    /// this was a hit. Compilation runs outside the cache lock would be
    /// nicer for concurrent opens of *different* programs, but
    /// correctness first: the lock also deduplicates concurrent compiles
    /// of the *same* program, which is the case the daemon actually sees.
    ///
    /// A miss that finds the cache full evicts the least recently used
    /// entry (a scan of `capacity` ticks, beside a compile); the evicted
    /// artifact is dropped after the lock is released, so freeing it never
    /// blocks another open.
    ///
    /// A thread that panicked while holding the lock leaves it poisoned;
    /// the next lookup takes the guard over. The map is still consistent,
    /// because a compile runs under the lock but inserts only after it
    /// returns.
    ///
    /// # Errors
    ///
    /// Any compile failure (parse, elaborate, plan, …) as a displayable
    /// message; errors are neither cached nor evict anything.
    pub fn get_or_compile(
        &self,
        src: &str,
        spec: PlanSpec,
        probe: Option<&mut Recorder>,
    ) -> Result<(Arc<CachedArtifact>, bool), String> {
        let key = PlanKey::of(src, spec);
        let mut guard = lock(&self.inner);
        let g = &mut *guard;
        g.tick += 1;
        if let Some(slot) = g.map.get_mut(&key) {
            slot.used = g.tick;
            g.hits += 1;
            return Ok((Arc::clone(&slot.artifact), true));
        }
        let t0 = Instant::now();
        let compiled = compile_source(src, &key.1, probe)?;
        let artifact = Arc::new(CachedArtifact {
            compiled,
            compile_ms: t0.elapsed().as_secs_f64() * 1e3,
        });
        g.misses += 1;
        let evicted = if g.map.len() >= self.capacity {
            let lru = g.map.iter().min_by_key(|(_, s)| s.used);
            let lru = lru.map(|(k, _)| k.clone());
            lru.and_then(|k| g.map.remove(&k))
        } else {
            None
        };
        if let Some(slot) = &evicted {
            g.evictions += 1;
            g.bytes -= slot.bytes;
        }
        let bytes = artifact.compiled.table_bytes();
        g.bytes += bytes;
        g.map.insert(
            key,
            Slot {
                artifact: Arc::clone(&artifact),
                used: g.tick,
                bytes,
            },
        );
        drop(guard);
        drop(evicted);
        Ok((artifact, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlin_runtime::RunSpec;

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
            .get_or_compile(&program(k), spec(None), None)
            .unwrap()
            .1
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_artifact() {
        let cache = PlanCache::new(64);
        let (a, hit) = cache.get_or_compile(PROGRAM, spec(None), None).unwrap();
        assert!(!hit);
        let (b, hit) = cache.get_or_compile(PROGRAM, spec(None), None).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_knobs_are_distinct_entries() {
        let cache = PlanCache::new(64);
        cache.get_or_compile(PROGRAM, spec(None), None).unwrap();
        let (a, hit) = cache.get_or_compile(PROGRAM, spec(Some(2)), None).unwrap();
        assert!(!hit);
        assert!(
            a.compiled.part.is_some(),
            "pipeline key carries a partition"
        );
        assert!(
            a.compiled.canonical.is_some(),
            "pipeline key retains the canonical pair"
        );
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = PlanCache::new(64);
        assert!(cache
            .get_or_compile("not a program", spec(None), None)
            .is_err());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 0);
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
        let (held, _) = cache.get_or_compile(&program(3), spec(None), None).unwrap();
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
            .get_or_compile("not a program", spec(None), None)
            .is_err());
        let s = cache.stats();
        assert_eq!((s.misses, s.entries, s.evictions), (1, 1, 0));
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
        let (big, _) = cache.get_or_compile(fir, spec(None), None).unwrap();
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
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
