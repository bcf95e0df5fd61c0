//! The plan cache: compile once per distinct (program, plan spec).
//!
//! One-shot `streamlinc` pays the whole compiler — parse, elaborate,
//! linear analysis, replacement selection, lowering, schedule
//! compilation, fission, partitioning — on every invocation. The daemon
//! pays it once: [`PlanCache::get_or_compile`] keys on the program's
//! content hash (FNV-1a 64 over the source text) plus the request's
//! normalised [`PlanSpec`], and stores what
//! [`streamlin_runtime::compile_source`] built — the lowered graph (each
//! filter's `FilterFacts` intact, per the facts-not-AST convention), the
//! static plan, the fission rewrite and the partition — behind an
//! [`Arc`]. Opening a stream for a cached key clones the artifact (cheap
//! relative to compilation) and opens a session on it; the compiler never
//! runs again.
//!
//! Hits and misses are counted; the `stats` protocol op exposes them, and
//! `tests/service_equivalence.rs` pins that a re-opened program is a hit
//! (the equivalence suite's proof that elaborate/lower/analyze/plan were
//! skipped).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use streamlin_runtime::{compile_source, Compiled, PlanSpec};
use streamlin_support::Recorder;

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
    pub entries: usize,
}

/// The cache proper: a keyed map of [`Arc`]'d artifacts plus counters.
#[derive(Default)]
pub struct PlanCache {
    inner: Mutex<CacheInner>,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<PlanKey, Arc<CachedArtifact>>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock().unwrap();
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            entries: g.map.len(),
        }
    }

    /// Looks up the artifact for (`src`, `spec`), compiling on a miss with
    /// every phase recorded on `probe`. Returns the artifact and whether
    /// this was a hit. Compilation runs outside the cache lock would be
    /// nicer for concurrent opens of *different* programs, but
    /// correctness first: the lock also deduplicates concurrent compiles
    /// of the *same* program, which is the case the daemon actually sees.
    ///
    /// # Errors
    ///
    /// Any compile failure (parse, elaborate, plan, …) as a displayable
    /// message; errors are not cached.
    pub fn get_or_compile(
        &self,
        src: &str,
        spec: PlanSpec,
        probe: Option<&mut Recorder>,
    ) -> Result<(Arc<CachedArtifact>, bool), String> {
        let key = PlanKey::of(src, spec);
        let mut g = self.inner.lock().unwrap();
        if let Some(a) = g.map.get(&key).map(Arc::clone) {
            g.hits += 1;
            return Ok((a, true));
        }
        let t0 = Instant::now();
        let compiled = compile_source(src, &key.1, probe)?;
        let artifact = Arc::new(CachedArtifact {
            compiled,
            compile_ms: t0.elapsed().as_secs_f64() * 1e3,
        });
        g.misses += 1;
        g.map.insert(key, Arc::clone(&artifact));
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

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_artifact() {
        let cache = PlanCache::new();
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
        let cache = PlanCache::new();
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
        let cache = PlanCache::new();
        assert!(cache
            .get_or_compile("not a program", spec(None), None)
            .is_err());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
