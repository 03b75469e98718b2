//! Offline vendored subset of the `rayon` API.
//!
//! The build environment of this repository has no access to crates.io, so
//! this workspace-local crate provides the slice of the `rayon 1.x` surface
//! that `bench::runner::ExperimentPlan`, the one grid executor, calls:
//! [`ThreadPoolBuilder`]/[`ThreadPool::install`] and
//! `into_par_iter().map(..).collect()` via [`prelude`].
//!
//! Scheduling: upstream rayon runs a per-thread work-stealing deque; this
//! shim runs scoped worker threads pulling indices from one shared atomic
//! cursor (self-scheduling). For the coarse-grained cells this repository
//! parallelizes (whole seeded simulations, hundreds of milliseconds each)
//! the two are equivalent: every idle worker immediately claims the next
//! unclaimed cell, so load balance is identical and there is no measurable
//! contention on the single counter. Results are written to their input
//! index and reduced in index order, which is what makes the parallel
//! reduction order-deterministic regardless of completion order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`] for the
    /// duration of the installed closure (the "ambient pool").
    static INSTALLED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of threads the ambient pool would use: the installed pool's
/// width inside [`ThreadPool::install`], the machine's available
/// parallelism otherwise.
fn current_num_threads() -> usize {
    INSTALLED_THREADS
        .with(Cell::get)
        .unwrap_or_else(default_threads)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Error returned by [`ThreadPoolBuilder::build`]. The shim's build cannot
/// actually fail; the type exists for upstream signature compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`] (subset of upstream's).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default thread count (available
    /// parallelism).
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the number of worker threads; `0` means the default.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// A handle fixing the parallelism width for closures run via
/// [`ThreadPool::install`]. Workers are scoped threads spawned per
/// parallel call, not persistent (adequate for the coarse cells this
/// repository fans out; spawn cost is nanoseconds against cell runtimes of
/// milliseconds to seconds).
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool installed as the ambient pool: parallel
    /// iterators inside use this pool's thread count. Restores the previous
    /// ambient pool afterwards, also on panic.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_THREADS.with(|c| c.set(self.0));
            }
        }
        let _restore = INSTALLED_THREADS.with(|c| {
            let previous = c.get();
            c.set(Some(self.threads));
            Restore(previous)
        });
        op()
    }
}

/// Maps `items` through `f` on `threads` scoped workers pulling from a
/// shared index queue; the result vector is ordered by input index. With
/// one thread (or one item) this is exactly the serial in-order loop.
fn par_map_vec<T, R, F>(threads: usize, items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = queue[i]
                    .lock()
                    .expect("rayon-shim: queue slot poisoned")
                    .take()
                    .expect("rayon-shim: each index is claimed exactly once");
                let r = f(item);
                *results[i].lock().expect("rayon-shim: result slot poisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("rayon-shim: result slot poisoned")
                .expect("rayon-shim: worker completed every claimed index")
        })
        .collect()
}

pub mod iter {
    //! Parallel-iterator subset: `Vec<T>::into_par_iter().map(f).collect()`.

    use std::marker::PhantomData;

    /// Conversion into a parallel iterator (subset of upstream's trait).
    pub trait IntoParallelIterator {
        /// The produced item type.
        type Item: Send;
        /// The concrete parallel iterator.
        type Iter;
        /// Converts `self` into a parallel iterator.
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        type Iter = ParIter<T>;
        fn into_par_iter(self) -> ParIter<T> {
            ParIter { items: self }
        }
    }

    /// A parallel iterator over owned items.
    #[derive(Debug)]
    pub struct ParIter<T> {
        items: Vec<T>,
    }

    impl<T: Send> ParIter<T> {
        /// Maps every item through `f` (executed when collected).
        pub fn map<R, F>(self, f: F) -> ParMap<T, R, F>
        where
            R: Send,
            F: Fn(T) -> R + Sync,
        {
            ParMap {
                items: self.items,
                f,
                _result: PhantomData,
            }
        }
    }

    /// A mapped parallel iterator, executed on [`collect`](ParMap::collect).
    pub struct ParMap<T, R, F> {
        items: Vec<T>,
        f: F,
        _result: PhantomData<fn() -> R>,
    }

    impl<T, R, F> ParMap<T, R, F>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        /// Executes the map on the ambient pool and collects the results in
        /// input-index order.
        pub fn collect<C: FromParallelVec<R>>(self) -> C {
            C::from_parallel_vec(super::par_map_vec(
                super::current_num_threads(),
                self.items,
                &self.f,
            ))
        }
    }

    /// Collection target of [`ParMap::collect`] (stand-in for upstream's
    /// `FromParallelIterator`).
    pub trait FromParallelVec<R> {
        /// Builds the collection from the index-ordered result vector.
        fn from_parallel_vec(results: Vec<R>) -> Self;
    }

    impl<R> FromParallelVec<R> for Vec<R> {
        fn from_parallel_vec(results: Vec<R>) -> Self {
            results
        }
    }
}

pub mod prelude {
    //! The traits needed for `into_par_iter().map(..).collect()`.
    pub use crate::iter::{FromParallelVec, IntoParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_input_order() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let out: Vec<u64> = pool.install(|| {
            (0u64..100)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|x| x * x)
                .collect()
        });
        assert_eq!(out, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn one_thread_matches_many_threads() {
        let work = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let serial: Vec<u64> = (0..257).map(work).collect();
        for threads in [1usize, 2, 8, 32] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let parallel: Vec<u64> = pool.install(|| {
                (0..257)
                    .collect::<Vec<_>>()
                    .into_par_iter()
                    .map(work)
                    .collect()
            });
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn install_scopes_the_thread_count_and_restores_it() {
        let outer = current_num_threads();
        let pool = ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        pool.install(|| assert_eq!(current_num_threads(), 7));
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn zero_threads_means_default() {
        let pool = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert!(pool.install(current_num_threads) >= 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let empty: Vec<i32> =
            pool.install(|| Vec::<i32>::new().into_par_iter().map(|x| x).collect());
        assert!(empty.is_empty());
        let one: Vec<i32> = pool.install(|| vec![41].into_par_iter().map(|x| x + 1).collect());
        assert_eq!(one, vec![42]);
    }
}
