//! Fixed-capacity ring buffers over one contiguous slab.
//!
//! The static scheduler ([`crate::plan`]) knows every channel's maximum
//! occupancy at compile time, so channels need no growth path: all of them
//! live side by side in a single `Vec<f64>` allocated once per program
//! ([`RingSet`]). Peeked windows are served as contiguous slices — directly
//! from the slab in the common case, via a copy into the set's wrap buffer
//! in the rare case where a window wraps around its ring's end.
//! This replaces the dynamic engine's per-channel `VecDeque`s (and its
//! per-firing window allocation) on the hot path.
//!
//! The pipeline-parallel executor ([`crate::parallel`]) adds a second
//! flavor: [`SharedRings`], single-producer/single-consumer rings over one
//! shared slab with atomic head/tail counters, carrying items across stage
//! boundaries between worker threads without locks.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-channel ring metadata; the items live in the shared slab.
#[derive(Debug, Clone, Copy)]
struct Chan {
    /// First slab index of this ring.
    off: usize,
    /// Ring capacity in items.
    cap: usize,
    /// Index of the oldest item, relative to `off`.
    head: usize,
    /// Current occupancy.
    len: usize,
}

/// All channels of a program: one slab, and one wrap buffer that any
/// channel's wrapped window is assembled in.
///
/// The wrap buffer's capacity is the largest channel's, reserved with the
/// slab, so no window — the first to wrap included — allocates during a
/// run, and an `open` pays for no zeroing of it. One buffer serves every
/// channel because a window borrows the whole set: the borrow checker
/// already forbids two live windows of one set.
#[derive(Debug)]
pub struct RingSet {
    slab: Vec<f64>,
    chans: Vec<Chan>,
    wrap: Vec<f64>,
}

// `window`, `consume` and `produce` are `#[inline]`: every arm of
// `plan::exec_batch` calls them, and left to the size heuristic they stop
// being inlined there, which costs each single-firing step three calls.
impl RingSet {
    /// Allocates rings with the given exact capacities and preloads the
    /// initial items (feedback `enqueue`s).
    ///
    /// # Panics
    ///
    /// Panics if initial items exceed their channel's capacity.
    pub fn new(caps: &[usize], initial: &[(usize, Vec<f64>)]) -> Self {
        let mut chans = Vec::with_capacity(caps.len());
        let mut off = 0;
        for &cap in caps {
            chans.push(Chan {
                off,
                cap,
                head: 0,
                len: 0,
            });
            off += cap;
        }
        let mut set = RingSet {
            slab: vec![0.0; off],
            chans,
            wrap: Vec::with_capacity(caps.iter().copied().max().unwrap_or(0)),
        };
        for (chan, items) in initial {
            set.produce(*chan, items);
        }
        set
    }

    /// Current occupancy of a channel.
    pub fn len(&self, chan: usize) -> usize {
        self.chans[chan].len
    }

    /// True when the channel holds no items.
    pub fn is_empty(&self, chan: usize) -> bool {
        self.chans[chan].len == 0
    }

    /// The oldest `n` items of a channel as one contiguous slice (borrowed
    /// from the slab, or assembled in the wrap buffer on wrap). The items are *not* consumed; follow with
    /// [`RingSet::consume`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` items are buffered.
    #[inline]
    pub fn window(&mut self, chan: usize, n: usize) -> &[f64] {
        let c = self.chans[chan];
        assert!(n <= c.len, "window({n}) exceeds occupancy {}", c.len);
        if c.head + n <= c.cap {
            &self.slab[c.off + c.head..c.off + c.head + n]
        } else {
            let first = c.cap - c.head;
            // Within the reserved capacity: `n <= c.len <= c.cap`.
            self.wrap.clear();
            self.wrap
                .extend_from_slice(&self.slab[c.off + c.head..c.off + c.cap]);
            self.wrap
                .extend_from_slice(&self.slab[c.off..c.off + n - first]);
            &self.wrap
        }
    }

    /// Drops the oldest `n` items.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` items are buffered.
    #[inline]
    pub fn consume(&mut self, chan: usize, n: usize) {
        let c = &mut self.chans[chan];
        assert!(n <= c.len, "consume({n}) exceeds occupancy {}", c.len);
        c.head += n;
        if c.head >= c.cap {
            c.head -= c.cap;
        }
        c.len -= n;
    }

    /// Appends items.
    ///
    /// # Panics
    ///
    /// Panics if the items would exceed the channel's capacity (the plan
    /// sizes rings exactly, so this indicates a scheduling bug).
    #[inline]
    pub fn produce(&mut self, chan: usize, items: &[f64]) {
        let c = self.chans[chan];
        assert!(
            c.len + items.len() <= c.cap,
            "produce({}) overflows ring of capacity {} at occupancy {}",
            items.len(),
            c.cap,
            c.len
        );
        let mut tail = c.head + c.len;
        if tail >= c.cap {
            tail -= c.cap;
        }
        let first = items.len().min(c.cap - tail);
        self.slab[c.off + tail..c.off + tail + first].copy_from_slice(&items[..first]);
        self.slab[c.off..c.off + items.len() - first].copy_from_slice(&items[first..]);
        self.chans[chan].len += items.len();
    }
}

/// Head/tail counter on its own cache line so the producer's tail stores
/// and the consumer's head stores never false-share.
#[derive(Debug, Default)]
#[repr(align(128))]
struct PaddedCounter(AtomicUsize);

/// Endpoints of one SPSC channel. `head`/`tail` are monotonically
/// increasing item counts (never wrapped); the slab index is `count %
/// cap`. Occupancy is `tail - head`.
#[derive(Debug)]
struct SharedChan {
    off: usize,
    cap: usize,
    /// Items consumed so far (written only by the consumer thread).
    head: PaddedCounter,
    /// Items produced so far (written only by the producer thread).
    tail: PaddedCounter,
}

/// Lock-free single-producer/single-consumer rings over one shared slab —
/// the stage-boundary channels of the pipeline-parallel executor.
///
/// Same design as [`RingSet`] (all channels side by side in one slab,
/// exact capacities known up front) with the head/tail bookkeeping made
/// atomic: for every channel, exactly one thread produces and exactly one
/// thread consumes, so a release store on the producer's tail and an
/// acquire load on the consumer's side (and vice versa for backpressure)
/// are the only synchronization items ever need. Capacities are sized by
/// the partitioner so workers synchronize once per steady-iteration
/// batch, not per firing.
///
/// Channels with capacity 0 are placeholders (non-boundary channels keep
/// their global id); producing to or consuming from them is a bug.
#[derive(Debug)]
pub struct SharedRings {
    /// Per-element `UnsafeCell`s (same in-memory representation as `f64`)
    /// so item reads and writes go through interior-mutability raw
    /// pointers — no `&mut` over the slab is ever formed, which keeps
    /// concurrent producer writes and consumer reads of *disjoint*
    /// regions within Rust's aliasing rules.
    slab: Box<[UnsafeCell<f64>]>,
    chans: Vec<SharedChan>,
}

// SAFETY: the slab is only accessed through `produce` (writes the
// [tail, head+cap) region, called by the channel's single producer) and
// `consume` (reads the [head, tail) region, called by the single
// consumer). The two regions are disjoint, all access is through
// `UnsafeCell` raw pointers (no references to the items are retained
// across the handoff), and the acquire/release pairs on head/tail order
// the data accesses against the index handoff.
unsafe impl Sync for SharedRings {}
unsafe impl Send for SharedRings {}

impl SharedRings {
    /// Allocates rings with the given capacities (0 = unused placeholder).
    pub fn new(caps: &[usize]) -> Self {
        let mut chans = Vec::with_capacity(caps.len());
        let mut off = 0;
        for &cap in caps {
            chans.push(SharedChan {
                off,
                cap,
                head: PaddedCounter::default(),
                tail: PaddedCounter::default(),
            });
            off += cap;
        }
        SharedRings {
            slab: (0..off).map(|_| UnsafeCell::new(0.0)).collect(),
            chans,
        }
    }

    /// Capacity of one channel.
    pub fn capacity(&self, chan: usize) -> usize {
        self.chans[chan].cap
    }

    /// Items currently in flight on one channel (telemetry sampling).
    ///
    /// The head/tail counters are monotonic, so `tail - head` is exact at
    /// some instant between the two loads; either endpoint may race one
    /// produce/consume, which is fine for occupancy *sampling* (high-water
    /// marks, trace counters) and must not be used for flow control —
    /// `produce`/`consume` re-read their own counters with the proper
    /// ordering.
    pub fn occupancy(&self, chan: usize) -> usize {
        let c = &self.chans[chan];
        let head = c.head.0.load(Ordering::Acquire);
        let tail = c.tail.0.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// Raw base pointer of one channel's ring. `UnsafeCell<f64>` has the
    /// same in-memory representation as `f64`, so element pointers may be
    /// used as `*mut f64`/`*const f64` directly.
    fn ring_ptr(&self, c: &SharedChan) -> *mut f64 {
        self.slab[c.off..].as_ptr() as *mut f64
    }

    /// Appends as many of `items` as the ring currently has space for and
    /// returns how many were written (0 when full — the producer spins or
    /// yields and retries with the rest). Producer side only.
    pub fn produce(&self, chan: usize, items: &[f64]) -> usize {
        let c = &self.chans[chan];
        debug_assert!(c.cap > 0, "produce on a zero-capacity shared ring");
        // Acquire pairs with the consumer's release store of `head`: once
        // we observe the space, the consumer's reads of it are complete.
        let head = c.head.0.load(Ordering::Acquire);
        let tail = c.tail.0.load(Ordering::Relaxed);
        let n = items.len().min(c.cap - (tail - head));
        if n == 0 {
            return 0;
        }
        let start = tail % c.cap;
        let first = n.min(c.cap - start);
        // SAFETY: [tail, tail + n) is unoccupied (checked against head
        // above), this thread is the channel's only producer, and the
        // writes go through `UnsafeCell` pointers (no `&mut` is formed).
        unsafe {
            let ring = self.ring_ptr(c);
            std::ptr::copy_nonoverlapping(items.as_ptr(), ring.add(start), first);
            std::ptr::copy_nonoverlapping(items.as_ptr().add(first), ring, n - first);
        }
        // Release publishes the item writes to the consumer's acquire.
        c.tail.0.store(tail + n, Ordering::Release);
        n
    }

    /// Hands up to `max` buffered items to `f` (as up to two slices, in
    /// FIFO order — the second is the wrapped tail), then marks them
    /// consumed. Returns how many items were passed (0 when empty — the
    /// consumer spins or yields and retries). Consumer side only.
    pub fn consume(&self, chan: usize, max: usize, f: impl FnOnce(&[f64], &[f64])) -> usize {
        let c = &self.chans[chan];
        debug_assert!(c.cap > 0, "consume on a zero-capacity shared ring");
        // Acquire pairs with the producer's release store of `tail`.
        let tail = c.tail.0.load(Ordering::Acquire);
        let head = c.head.0.load(Ordering::Relaxed);
        let n = max.min(tail - head);
        if n == 0 {
            return 0;
        }
        let start = head % c.cap;
        let first = n.min(c.cap - start);
        // SAFETY: [head, head + n) is occupied (checked against tail
        // above), this thread is the channel's only consumer, and the
        // producer never writes an occupied region — the shared slices
        // below alias only cells the producer will not touch until the
        // `head` release-store after `f` returns.
        unsafe {
            let ring = self.ring_ptr(c) as *const f64;
            f(
                std::slice::from_raw_parts(ring.add(start), first),
                std::slice::from_raw_parts(ring, n - first),
            );
        }
        // Release publishes the freed space to the producer's acquire.
        c.head.0.store(head + n, Ordering::Release);
        n
    }
}

/// Bounded exponential backoff for blocked boundary-ring operations.
///
/// The pipeline executor's original wait loop span pure spin with an
/// occasional `yield_now`, which on an oversubscribed or wedged host
/// burns a core for as long as the peer stays silent (BENCH_pr6 measured
/// a median 61% of worker time in ring spin-waits on degraded rows).
/// This ramp keeps the low-latency spin for short waits but caps the
/// damage of long ones: spin briefly (skipped entirely when the host has
/// a single core, where spinning can only delay the peer), then yield,
/// then sleep with exponentially growing bounded naps. The cap keeps a
/// torn-down worker responsive to the supervisor's poison flag.
#[derive(Debug)]
pub struct Backoff {
    /// Single-core host: spinning cannot help, go straight to yields.
    solo: bool,
    step: u32,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 96;
    const YIELD_LIMIT: u32 = 16;
    /// Longest single nap, in microseconds (2^8); short enough that a
    /// poisoned worker notices teardown promptly.
    const SLEEP_CAP_EXP: u32 = 8;

    /// A fresh ramp. `solo` marks a single-core host.
    pub fn new(solo: bool) -> Self {
        Backoff { solo, step: 0 }
    }

    /// Wait once, escalating on each successive call: spin → yield →
    /// bounded exponential sleep.
    pub fn wait(&mut self) {
        let step = self.step;
        self.step = step.saturating_add(1);
        let spin_limit = if self.solo { 0 } else { Self::SPIN_LIMIT };
        if step < spin_limit {
            std::hint::spin_loop();
            return;
        }
        let past = step - spin_limit;
        if past < Self::YIELD_LIMIT {
            std::thread::yield_now();
            return;
        }
        let exp = (past - Self::YIELD_LIMIT).min(Self::SLEEP_CAP_EXP);
        std::thread::sleep(std::time::Duration::from_micros(1 << exp));
    }

    /// Restart the ramp after progress.
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_round_trips() {
        let mut r = RingSet::new(&[4], &[]);
        r.produce(0, &[1.0, 2.0, 3.0]);
        assert_eq!(r.window(0, 2), &[1.0, 2.0]);
        r.consume(0, 2);
        r.produce(0, &[4.0, 5.0, 6.0]);
        assert_eq!(r.len(0), 4);
        assert_eq!(r.window(0, 4), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn wrapped_windows_are_assembled_in_the_wrap_buffer() {
        let mut r = RingSet::new(&[4], &[]);
        r.produce(0, &[1.0, 2.0, 3.0, 4.0]);
        r.consume(0, 3);
        r.produce(0, &[5.0, 6.0, 7.0]); // wraps: slab now [5,6,7,4], head=3
        assert_eq!(r.window(0, 4), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn initial_items_are_preloaded() {
        let mut r = RingSet::new(&[2, 3], &[(1, vec![9.0, 8.0])]);
        assert!(r.is_empty(0));
        assert_eq!(r.window(1, 2), &[9.0, 8.0]);
        r.consume(1, 2);
        assert!(r.is_empty(1));
    }

    #[test]
    #[should_panic(expected = "overflows ring")]
    fn overflow_is_a_bug_not_a_growth_path() {
        let mut r = RingSet::new(&[2], &[]);
        r.produce(0, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn many_channels_share_the_slab() {
        let mut r = RingSet::new(&[1, 2, 3], &[]);
        r.produce(0, &[1.0]);
        r.produce(1, &[2.0, 3.0]);
        r.produce(2, &[4.0, 5.0, 6.0]);
        assert_eq!(r.window(0, 1), &[1.0]);
        r.consume(0, 1);
        assert!(r.is_empty(0));
        assert_eq!(r.window(1, 2), &[2.0, 3.0]);
        assert_eq!(r.window(2, 3), &[4.0, 5.0, 6.0]);
    }

    fn drain(s: &SharedRings, chan: usize, max: usize) -> Vec<f64> {
        let mut out = Vec::new();
        s.consume(chan, max, |a, b| {
            out.extend_from_slice(a);
            out.extend_from_slice(b);
        });
        out
    }

    #[test]
    fn spsc_ring_round_trips_in_fifo_order() {
        let s = SharedRings::new(&[4]);
        assert_eq!(s.produce(0, &[1.0, 2.0, 3.0]), 3);
        assert_eq!(drain(&s, 0, 2), &[1.0, 2.0]);
        // Wraps: writes land at slab positions 3, 0.
        assert_eq!(s.produce(0, &[4.0, 5.0, 6.0]), 3);
        assert_eq!(s.produce(0, &[7.0]), 0, "ring is full");
        assert_eq!(drain(&s, 0, usize::MAX), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(drain(&s, 0, usize::MAX), Vec::<f64>::new());
    }

    #[test]
    fn spsc_partial_produce_reports_written_count() {
        let s = SharedRings::new(&[2, 3]);
        assert_eq!(s.produce(1, &[1.0, 2.0, 3.0, 4.0]), 3);
        assert_eq!(drain(&s, 1, 1), &[1.0]);
        assert_eq!(s.produce(1, &[4.0, 5.0]), 1);
        assert_eq!(drain(&s, 1, usize::MAX), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn spsc_cross_thread_stream_is_lossless() {
        const N: usize = 100_000;
        let s = SharedRings::new(&[7]);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut sent = 0usize;
                while sent < N {
                    let batch: Vec<f64> = (sent..(sent + 13).min(N)).map(|i| i as f64).collect();
                    let mut off = 0;
                    while off < batch.len() {
                        let n = s.produce(0, &batch[off..]);
                        off += n;
                        if n == 0 {
                            std::thread::yield_now();
                        }
                    }
                    sent += batch.len();
                }
            });
            let mut got = Vec::with_capacity(N);
            while got.len() < N {
                if s.consume(0, usize::MAX, |a, b| {
                    got.extend_from_slice(a);
                    got.extend_from_slice(b);
                }) == 0
                {
                    std::thread::yield_now();
                }
            }
            for (i, v) in got.iter().enumerate() {
                assert_eq!(*v, i as f64);
            }
        });
    }

    #[test]
    fn backoff_ramps_and_stays_bounded() {
        // The ramp must terminate in bounded naps (never longer than the
        // cap) and must reset cleanly; drive it far past every threshold.
        for solo in [false, true] {
            let mut b = Backoff::new(solo);
            let t0 = std::time::Instant::now();
            for _ in 0..(Backoff::SPIN_LIMIT + Backoff::YIELD_LIMIT + 24) {
                b.wait();
            }
            // 24 sleeps capped at 2^8 µs each ≈ 6 ms; allow generous slack.
            assert!(t0.elapsed() < std::time::Duration::from_secs(2));
            b.reset();
            assert_eq!(b.step, 0);
        }
    }
}
