//! Reusable per-thread scratch buffers for operator hot paths.
//!
//! Every iterative driver in this workspace (Lanczos, power iteration,
//! CG, the batch evolver) reduces to thousands of repeated
//! `LinearOp::apply` calls. The operators need small amounts of
//! scratch per application — the `z = x/deg` scale vector of
//! [`crate::WalkOp`], the projected input copy of
//! [`crate::DeflatedOp`] — and allocating that scratch per call puts a
//! `malloc`/`free` pair on the hottest path in the codebase.
//!
//! [`with_scratch`] instead checks buffers out of a per-thread pool:
//! the first applications on a thread allocate, every later one
//! reuses, so a whole Lanczos/power/probe run performs **zero heap
//! allocation per operator application** in steady state. Nested
//! checkouts (a [`crate::DeflatedOp`] whose inner operator also needs
//! scratch) receive distinct buffers because checked-out buffers leave
//! the pool.
//!
//! Buffers are keyed by power-of-two *size class*: a checkout only
//! reuses a buffer whose capacity matches its class, so alternating
//! large and small requests each get their own buffer instead of
//! resizing one back and forth, and a small request never grows to the
//! largest `n` the thread has ever seen. The pool keeps at most
//! [`MAX_POOLED`] buffers per thread (drops the returning buffer past
//! that), which bounds how much memory an idle persistent worker pins.
//!
//! Thread-local storage is what keeps the operators `Sync`: a shared
//! `&WalkOp` can be applied concurrently from many pool workers (the
//! probe does exactly that) and each worker transparently gets its own
//! scratch. Buffer contents are **unspecified on entry** — callers
//! must fully overwrite what they read, which also keeps results
//! independent of reuse history (the bit-for-bit serial-equivalence
//! contract).

use crate::kernel::Real;
use socmix_obs::{Counter, Gauge};
use std::cell::{Cell, RefCell, UnsafeCell};

thread_local! {
    static SCRATCH: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
    static ARENA: ScratchArena = const { ScratchArena::new() };
}

/// Checkouts served from a pooled buffer (the steady state).
static POOL_HITS: Counter = Counter::new("linalg.scratch.hits");
/// Checkouts that had to allocate (cold pool or new size class).
static POOL_MISSES: Counter = Counter::new("linalg.scratch.misses");
/// Bytes currently parked in scratch pools across all threads —
/// falls on checkout, rises on return, so the level is what an idle
/// process pins. Dropped returns (pool full) leave it untouched.
static POOL_BYTES_RETAINED: Gauge = Gauge::new("linalg.scratch.bytes_retained");

/// Most buffers retained per thread; a returning buffer is dropped
/// once the pool is full. Nested checkout depth in this codebase is
/// 2–3 (`DeflatedOp` over `SymmetricWalkOp`), so 8 leaves headroom.
pub const MAX_POOLED: usize = 8;

/// Smallest buffer class, so tiny requests don't fragment the pool
/// into many near-empty classes.
const MIN_CLASS: usize = 64;

fn size_class(n: usize) -> usize {
    n.next_power_of_two().max(MIN_CLASS)
}

/// Runs `f` with a scratch buffer of length `n` checked out of the
/// calling thread's buffer pool.
///
/// The buffer's contents are unspecified; `f` must write every entry
/// it later reads. The buffer returns to the pool when `f` returns
/// (on panic it is simply dropped).
pub fn with_scratch<R>(n: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let class = size_class(n);
    let mut buf = match SCRATCH.with(|s| {
        let mut pool = s.borrow_mut();
        pool.iter()
            .position(|b| b.capacity() >= class && b.capacity() < class * 2)
            .map(|i| pool.swap_remove(i))
    }) {
        Some(buf) => {
            POOL_HITS.incr();
            POOL_BYTES_RETAINED.add(-((buf.capacity() * 8) as i64));
            buf
        }
        None => {
            POOL_MISSES.incr();
            Vec::with_capacity(class)
        }
    };
    buf.resize(n, 0.0);
    let r = f(&mut buf);
    SCRATCH.with(|s| {
        let mut pool = s.borrow_mut();
        if pool.len() < MAX_POOLED {
            POOL_BYTES_RETAINED.add((buf.capacity() * 8) as i64);
            pool.push(buf);
        }
    });
    r
}

/// Allocations served by [`ScratchArena::alloc`] (bumps, not heap
/// calls — compare against `linalg.arena.slabs`).
static ARENA_ALLOCS: Counter = Counter::new("linalg.arena.allocs");
/// Slabs the arenas actually pulled from the global allocator.
static ARENA_SLABS: Counter = Counter::new("linalg.arena.slabs");
/// Bytes currently backing arena slabs across all threads.
static ARENA_BYTES_RETAINED: Gauge = Gauge::new("linalg.arena.bytes_retained");

/// Words (`u64`) in the first slab a thread's arena allocates; later
/// slabs double, so a working set of `W` bytes costs O(log W) heap
/// calls ever.
const MIN_SLAB_WORDS: usize = 1 << 12; // 32 KiB
/// Retained arena capacity per thread. When the outermost
/// [`with_arena`] scope exits with more than this backing a thread's
/// slabs, the arena is released entirely so an idle worker does not
/// pin a peak-sized working set.
const MAX_RETAINED_WORDS: usize = 1 << 23; // 64 MiB

/// A per-thread bump arena for block-sized walk buffers.
///
/// The buffer pool above is sized for the O(n) scratch vectors of the
/// serial operators; the batch evolver and the f32 operators need
/// *block*-shaped or single-precision buffers (`n × B` ping-pong
/// blocks, f32 scale vectors) whose sizes vary call to call, which
/// would defeat the pool's size-class reuse and put `malloc`/`free` back on the hot
/// path. An arena checkout is a cursor bump: allocations within one
/// [`with_arena`] scope are disjoint sub-slices of a few long-lived
/// slabs, and the whole scope is released by moving the cursor back.
///
/// Slabs are `Box<[u64]>`, so growing the slab list never moves
/// existing slabs — outstanding allocations stay valid while the arena
/// grows. Allocations are zero-filled on checkout, so results cannot
/// depend on reuse history (the same contract the buffer pool's
/// callers uphold by overwriting).
pub struct ScratchArena {
    slabs: UnsafeCell<Vec<Box<[u64]>>>,
    /// (slab index, word offset) of the next free word.
    cursor: Cell<(usize, usize)>,
    /// Live [`with_arena`] nesting depth on this thread.
    depth: Cell<usize>,
}

impl ScratchArena {
    const fn new() -> Self {
        ScratchArena {
            slabs: UnsafeCell::new(Vec::new()),
            cursor: Cell::new((0, 0)),
            depth: Cell::new(0),
        }
    }

    /// Bumps the cursor past `words` words, growing the slab list if
    /// no existing slab has room. Returns a pointer to storage that no
    /// other live allocation overlaps.
    fn alloc_words(&self, words: usize) -> *mut u64 {
        ARENA_ALLOCS.incr();
        // SAFETY: the arena is thread-local (never shared across
        // threads) and re-entrancy cannot observe a broken state: the
        // mutable borrow ends before this method returns, and growth
        // only pushes new slabs — existing `Box<[u64]>` slabs never
        // move, so pointers handed out earlier stay valid.
        let slabs = unsafe { &mut *self.slabs.get() };
        let (mut si, mut off) = self.cursor.get();
        loop {
            if si < slabs.len() && words <= slabs[si].len() - off {
                let p = slabs[si][off..].as_mut_ptr();
                self.cursor.set((si, off + words));
                return p;
            }
            if si + 1 < slabs.len() {
                si += 1;
                off = 0;
                continue;
            }
            let cap = slabs
                .last()
                .map(|s| s.len() * 2)
                .unwrap_or(MIN_SLAB_WORDS)
                .max(words)
                .max(MIN_SLAB_WORDS);
            slabs.push(vec![0u64; cap].into_boxed_slice());
            ARENA_SLABS.incr();
            ARENA_BYTES_RETAINED.add((cap * 8) as i64);
            si = slabs.len() - 1;
            off = 0;
        }
    }

    /// A zeroed slice of `n` values of precision `T`, valid for the
    /// enclosing [`with_arena`] scope.
    ///
    /// Returning `&mut` from `&self` is the point of a bump arena:
    /// each call hands out a *disjoint* sub-slice of the slabs, so the
    /// exclusive borrows never alias (clippy cannot see that through
    /// the `UnsafeCell`).
    #[allow(clippy::mut_from_ref)]
    pub fn alloc<T: Real>(&self, n: usize) -> &mut [T] {
        let words = (n * std::mem::size_of::<T>()).div_ceil(std::mem::size_of::<u64>());
        let p = self.alloc_words(words).cast::<T>();
        // SAFETY: `alloc_words` returned exclusive storage for `words`
        // words, which cover `n` values of `T`, that no other live
        // allocation overlaps (the cursor only moves forward until the
        // scope exits, and scope exit outlives the returned borrow).
        // `Real` is sealed to `f32` and `f64`, whose alignments divide
        // the `u64` slab words' and which have no invalid bit
        // patterns; the fill below initializes every value anyway.
        let s = unsafe { std::slice::from_raw_parts_mut(p, n) };
        s.fill(T::default());
        s
    }

    /// Releases all slabs (outermost scope exit past the retention
    /// cap, or consolidation of fragmented small slabs).
    fn reset_slabs(&self, keep_last_only: bool) {
        // SAFETY: called only at depth 0, when every `with_arena`
        // scope has exited, so no allocation borrows are live and
        // dropping slabs cannot invalidate anything.
        let slabs = unsafe { &mut *self.slabs.get() };
        let total: usize = slabs.iter().map(|s| s.len()).sum();
        if total > MAX_RETAINED_WORDS {
            ARENA_BYTES_RETAINED.add(-((total * 8) as i64));
            slabs.clear();
        } else if keep_last_only && slabs.len() > 1 {
            // consolidate: keep only the (largest, last) slab so the
            // next scope bump-allocates from one contiguous region
            let dropped: usize = slabs[..slabs.len() - 1].iter().map(|s| s.len()).sum();
            ARENA_BYTES_RETAINED.add(-((dropped * 8) as i64));
            slabs.drain(..slabs.len() - 1);
        }
    }
}

/// Restores the arena cursor (and trims slabs at the outermost scope)
/// even if the scope body panics.
struct ArenaScope<'a> {
    arena: &'a ScratchArena,
    saved: (usize, usize),
}

impl Drop for ArenaScope<'_> {
    fn drop(&mut self) {
        self.arena.cursor.set(self.saved);
        let depth = self.arena.depth.get() - 1;
        self.arena.depth.set(depth);
        if depth == 0 {
            self.arena.reset_slabs(true);
        }
    }
}

/// Runs `f` with the calling thread's bump arena; every allocation
/// made inside is released (cursor rewind, O(1)) when `f` returns.
///
/// Nested scopes stack: an inner scope's allocations are released at
/// the inner exit while the outer scope's stay live — the inner scope
/// can never hand back storage an outer allocation owns because the
/// cursor only rewinds to where the inner scope started.
pub fn with_arena<R>(f: impl FnOnce(&ScratchArena) -> R) -> R {
    ARENA.with(|a| {
        a.depth.set(a.depth.get() + 1);
        let scope = ArenaScope {
            arena: a,
            saved: a.cursor.get(),
        };
        let r = f(scope.arena);
        drop(scope);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_has_requested_length() {
        with_scratch(17, |b| assert_eq!(b.len(), 17));
        with_scratch(3, |b| assert_eq!(b.len(), 3));
        with_scratch(40, |b| assert_eq!(b.len(), 40));
    }

    #[test]
    fn nested_checkouts_are_distinct() {
        with_scratch(8, |outer| {
            outer.fill(1.0);
            with_scratch(8, |inner| {
                inner.fill(2.0);
            });
            assert!(outer.iter().all(|&v| v == 1.0), "inner must not alias");
        });
    }

    #[test]
    fn zero_length_scratch() {
        with_scratch(0, |b| assert!(b.is_empty()));
    }

    #[test]
    fn buffer_is_reused_not_reallocated() {
        // warm the pool, then confirm a same-size checkout reuses the
        // backing capacity (pointer-stable across checkouts)
        let p1 = with_scratch(64, |b| b.as_ptr() as usize);
        let p2 = with_scratch(64, |b| b.as_ptr() as usize);
        assert_eq!(p1, p2, "steady-state checkout must reuse the buffer");
    }

    #[test]
    fn alternating_sizes_keep_distinct_buffers() {
        // large and small checkouts land in different size classes, so
        // neither resizes the other's buffer back and forth
        let big = with_scratch(100_000, |b| b.as_ptr() as usize);
        let small = with_scratch(100, |b| b.as_ptr() as usize);
        assert_ne!(big, small);
        for _ in 0..4 {
            assert_eq!(with_scratch(100_000, |b| b.as_ptr() as usize), big);
            assert_eq!(with_scratch(100, |b| b.as_ptr() as usize), small);
        }
    }

    #[test]
    fn arena_allocations_are_disjoint_and_zeroed() {
        with_arena(|a| {
            let x = a.alloc::<f64>(100);
            assert!(x.iter().all(|&v| v == 0.0));
            x.fill(1.0);
            let y = a.alloc::<f64>(100);
            assert!(y.iter().all(|&v| v == 0.0), "must not alias x");
            y.fill(2.0);
            assert!(x.iter().all(|&v| v == 1.0));
            let z = a.alloc::<f32>(64);
            assert!(z.iter().all(|&v| v == 0.0));
            z.fill(3.0);
            assert!(x.iter().all(|&v| v == 1.0) && y.iter().all(|&v| v == 2.0));
        });
    }

    #[test]
    fn arena_scope_exit_reuses_storage() {
        // warm: first scope allocates the slab
        let p1 = with_arena(|a| a.alloc::<f64>(1000).as_ptr() as usize);
        // steady state: the next scope starts from the same cursor
        let p2 = with_arena(|a| a.alloc::<f64>(1000).as_ptr() as usize);
        assert_eq!(p1, p2, "scope exit must rewind the cursor");
    }

    #[test]
    fn arena_nested_scopes_stack() {
        with_arena(|outer| {
            let x = outer.alloc::<f64>(32);
            x.fill(7.0);
            let inner_ptr = with_arena(|inner| {
                let w = inner.alloc::<f64>(32);
                w.fill(9.0);
                w.as_ptr() as usize
            });
            // outer allocation survives the inner scope untouched
            assert!(x.iter().all(|&v| v == 7.0));
            // the inner scope's storage is free again for the outer
            let y = outer.alloc::<f64>(32);
            assert_eq!(y.as_ptr() as usize, inner_ptr);
            assert!(y.iter().all(|&v| v == 0.0), "reused storage re-zeroed");
        });
    }

    #[test]
    fn arena_grows_past_first_slab() {
        with_arena(|a| {
            // far more than MIN_SLAB_WORDS: forces slab growth while
            // earlier allocations stay valid
            let first = a.alloc::<f64>(100);
            first.fill(1.0);
            let big = a.alloc::<f64>(MIN_SLAB_WORDS * 4);
            assert_eq!(big.len(), MIN_SLAB_WORDS * 4);
            big[0] = 5.0;
            assert!(first.iter().all(|&v| v == 1.0));
        });
    }

    #[test]
    fn arena_releases_oversized_retention() {
        // a working set past the retention cap must be dropped at the
        // outermost exit, then a new scope starts from a fresh slab
        with_arena(|a| {
            let huge = a.alloc::<f64>(MAX_RETAINED_WORDS + 1024);
            huge[0] = 1.0;
        });
        with_arena(|a| {
            let small = a.alloc::<f64>(8);
            assert!(small.iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn pool_retention_is_bounded() {
        // deeper simultaneous nesting than MAX_POOLED must not grow
        // the retained pool past the cap (excess buffers drop)
        fn nest(depth: usize) {
            if depth > 0 {
                with_scratch(32, |_| nest(depth - 1));
            }
        }
        nest(MAX_POOLED + 4);
        let retained = SCRATCH.with(|s| s.borrow().len());
        assert!(retained <= MAX_POOLED, "retained {retained} buffers");
    }
}
