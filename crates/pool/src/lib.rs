//! # hdidx-pool
//!
//! A scoped, zero-dependency parallel map for the workspace: the
//! order-preserving [`Pool::par_map`], its panic-isolating twin
//! [`Pool::par_map_isolated`], and a process-wide thread-count
//! configuration with an `HDIDX_THREADS` environment override.
//!
//! Threads are kept only where a `BENCH_parallel.json` row shows they pay.
//! Two call sites use the pool:
//!
//! * `hdidx_datagen::workload::knn_radii` maps query ids to their k-NN
//!   radii by tree search (the query-radius set-up of every workload);
//! * `hdidx_serve::Server::run` executes the whole offered stream in one
//!   [`Pool::par_map_isolated`] call per run, whose per-query panic
//!   isolation serving depends on.
//!
//! Everything else — bulk loading, lower-tree builds, batch counting —
//! runs serially on the caller, and nothing calls the pool from inside a
//! pool worker.
//!
//! ## The determinism contract
//!
//! For a fixed input and a pure work function, the result is
//! byte-identical for any thread count, including 1. `par_map` partitions
//! the input into contiguous index ranges and concatenates the per-range
//! results *in input order*; the thread count only decides which OS thread
//! executes a range, never which range exists or where its output lands.
//! No call exposes completion order, thread ids, or any other scheduling
//! artifact to the work function.
//!
//! Work functions must hold up their end: they may not communicate through
//! shared mutable state whose final value depends on interleaving. For
//! *randomized* parallel work, derive one independent PRNG stream per work
//! item with [`derive_seed`] (SplitMix64 seed derivation, identical to
//! `hdidx_rand::derive_seed`) instead of sharing a sequential stream.
//! `tests/parallel_determinism.rs` pins the contract at 1, 2 and 8
//! threads.
//!
//! ## Thread-count resolution
//!
//! [`Pool::current`] sizes the pool from, in priority order:
//!
//! 1. an explicit [`set_threads`] call (the CLI's `--threads` flag),
//! 2. the `HDIDX_THREADS` environment variable (a positive integer),
//! 3. [`std::thread::available_parallelism`].
//!
//! A pool of 1 thread executes everything inline on the caller — the
//! serial path, with no thread spawned anywhere.
//!
//! ## Panics
//!
//! Panics in `par_map` work functions propagate to the caller (after all
//! sibling threads of the scope have finished), preserving the panic
//! payload — the same observable behavior as the serial path.
//! [`Pool::par_map_isolated`] instead catches the panic of each work item
//! and returns per-item `Result<R, WorkerPanic>`. Which items panic is a
//! property of the items, not of scheduling, so the `Ok`/`Err` pattern is
//! identical for any thread count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread-count override: 0 = unset (fall back to the
/// environment / hardware), otherwise the configured count.
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide thread count used by [`Pool::current`].
/// `n` is clamped to at least 1; 1 forces the serial path everywhere.
pub fn set_threads(n: usize) {
    CONFIGURED.store(n.max(1), Ordering::Relaxed);
}

/// Resolves the ambient thread count: [`set_threads`] override, else
/// `HDIDX_THREADS`, else [`std::thread::available_parallelism`] (1 if
/// unknown). An unparsable or zero `HDIDX_THREADS` is ignored.
#[must_use]
pub fn configured_threads() -> usize {
    let explicit = CONFIGURED.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("HDIDX_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The SplitMix64 increment (the golden-ratio Weyl constant).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Derives the `index`-th decorrelated sub-seed of `base` (SplitMix64
/// "mix13" output function over a Weyl-sequence offset).
///
/// This is the workspace's per-work-item PRNG stream-derivation scheme:
/// when parallel work needs randomness, item `i` seeds its own generator
/// with `derive_seed(base, i)` so the streams are a function of the item
/// index alone, never of scheduling. Bit-identical to
/// `hdidx_rand::derive_seed` (pinned by a cross-crate test) — duplicated
/// here so this crate stays dependency-free.
#[inline]
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let z = base ^ index.wrapping_mul(GOLDEN_GAMMA).wrapping_add(GOLDEN_GAMMA);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A scoped thread pool: just a thread count.
///
/// No threads are kept alive between operations — every call opens a
/// [`std::thread::scope`], so borrowed data flows into work functions
/// without `'static` bounds.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of exactly `threads` threads (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by the ambient configuration (see
    /// [`configured_threads`]).
    #[must_use]
    pub fn current() -> Pool {
        Pool::new(configured_threads())
    }

    /// The always-inline pool: every call runs serially.
    #[must_use]
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// Configured thread count (including the caller's thread).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, preserving order: `out[i] == f(&items[i])`.
    ///
    /// The slice is split into contiguous ranges, one per thread, up to
    /// `threads - 1` scoped workers plus the caller, which processes the
    /// first range itself. Per-range outputs are concatenated in input
    /// order. Panics in `f` propagate after the scope's sibling threads
    /// finish.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if n <= 1 || self.threads <= 1 {
            return items.iter().map(f).collect();
        }
        let chunk = n.div_ceil(self.threads.min(n));
        let mut parts: Vec<Vec<R>> = Vec::with_capacity(self.threads);
        std::thread::scope(|s| {
            let mut ranges = items.chunks(chunk);
            let own = ranges.next().expect("n >= 1");
            let handles: Vec<_> = ranges
                .map(|range| {
                    let f = &f;
                    s.spawn(move || range.iter().map(f).collect::<Vec<R>>())
                })
                .collect();
            parts.push(own.iter().map(&f).collect());
            for h in handles {
                match h.join() {
                    Ok(v) => parts.push(v),
                    Err(payload) => resume_unwind(payload),
                }
            }
        });
        parts.into_iter().flatten().collect()
    }

    /// Like [`Pool::par_map`], but a panicking work item yields a per-item
    /// `Err(WorkerPanic)` instead of tearing down the whole batch: the
    /// remaining items still run and return their results in order.
    pub fn par_map_isolated<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, WorkerPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map(items, |item| {
            catch_unwind(AssertUnwindSafe(|| f(item))).map_err(WorkerPanic::from_payload)
        })
    }
}

/// A worker panic caught by an isolated combinator, reduced to its
/// human-readable message (panic payloads are not `Send`-portable beyond
/// the common string forms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic message (`"<non-string panic payload>"` when the payload
    /// was neither `&str` nor `String`).
    pub message: String,
}

impl WorkerPanic {
    fn from_payload(payload: Box<dyn std::any::Any + Send>) -> WorkerPanic {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        WorkerPanic { message }
    }
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked: {}", self.message)
    }
}

impl std::error::Error for WorkerPanic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for t in [1, 2, 3, 8, 64] {
            let pool = Pool::new(t);
            assert_eq!(pool.par_map(&items, |x| x * x + 1), expect, "t={t}");
        }
    }

    #[test]
    fn par_map_panic_propagates() {
        let pool = Pool::new(4);
        let items: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            pool.par_map(&items, |&x| {
                assert!(x != 63, "boom at 63");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn isolated_map_survives_per_item_panics() {
        let items: Vec<u32> = (0..100).collect();
        let expect: Vec<Result<u32, WorkerPanic>> = items
            .iter()
            .map(|&x| {
                if x % 31 == 5 {
                    Err(WorkerPanic {
                        message: format!("boom at {x}"),
                    })
                } else {
                    Ok(x * 2)
                }
            })
            .collect();
        for t in [1, 2, 8] {
            let pool = Pool::new(t);
            let out = pool.par_map_isolated(&items, |&x| {
                assert!(x % 31 != 5, "boom at {x}");
                x * 2
            });
            assert_eq!(out, expect, "t={t}");
        }
    }

    #[test]
    fn worker_panic_formats_and_degrades_gracefully() {
        let p = WorkerPanic {
            message: "oops".into(),
        };
        assert_eq!(p.to_string(), "worker panicked: oops");
        let out = Pool::serial().par_map_isolated(&[1u32], |_| -> u32 {
            std::panic::panic_any(42u32) // a non-string payload
        });
        assert_eq!(
            out[0].as_ref().unwrap_err().message,
            "<non-string panic payload>"
        );
    }

    #[test]
    fn set_threads_overrides_environment() {
        // Relaxed global state: only assert the override wins once set.
        set_threads(3);
        assert_eq!(configured_threads(), 3);
        assert_eq!(Pool::current().threads(), 3);
        set_threads(1);
        assert_eq!(configured_threads(), 1);
    }

    #[test]
    fn derive_seed_decorrelates_indices() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert!(a != b && a != c && b != c);
        // Stable across calls (a pure function of its inputs).
        assert_eq!(derive_seed(42, 0), a);
    }
}
