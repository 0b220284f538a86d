//! Offline stand-in for the `rayon` crate.
//!
//! The build environment cannot fetch crates.io dependencies, so this crate
//! provides the small slice of rayon's API the workspace uses —
//! `par_chunks_mut(..).enumerate().for_each(..)`, `par_iter` over slices,
//! `into_par_iter` over ranges, and [`current_num_threads`] — on one
//! process-wide pool of persistent worker threads, like rayon's global pool:
//!
//! * **Persistent pool.** The first parallel region starts
//!   `current_num_threads() - 1` workers that live as long as the process.
//!   Idle workers park on a condition variable and never spin, so an idle
//!   pool costs no CPU time.
//! * **Caller participation.** A region posts a job, wakes at most one
//!   worker per item beyond the first, and runs items on the calling thread
//!   too. Items are handed out through one atomic cursor, so uneven item
//!   costs balance across threads (rayon's work stealing, at item
//!   granularity). Once the cursor is exhausted the caller withdraws the job
//!   and waits only for workers that already joined it. The caller can
//!   always finish its own items alone, so regions nested inside an item,
//!   and regions posted from many threads at once, cannot deadlock.
//! * **Cached thread count.** [`current_num_threads`] reads the machine's
//!   available parallelism once and returns the pool size (workers plus
//!   the caller).
//! * **Panic propagation.** The first panicking item stops the region from
//!   handing out more items. Once every worker has left, the caller resumes
//!   that panic with its original payload, as rayon does. Workers catch
//!   item panics, so the pool survives them.
//!
//! Swapping the real crate back in requires only a `Cargo.toml` change.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock};

/// Everything a `use rayon::prelude::*` caller expects.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Number of threads a parallel operation may use: the pool's workers plus
/// the calling thread (the machine's available parallelism, read once).
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Locks `m`, recovering the guard from a poisoned lock. No lock in this
/// crate is held while user code runs, and every update under one leaves
/// its data valid at each step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One posted parallel region, as the pool's workers see it.
struct Job {
    /// The region's drain loop, with its borrow of the poster's stack
    /// erased to `'static`; [`Pool::run`] keeps it alive while it is called.
    body: *const (dyn Fn() + Sync + 'static),
    /// Workers currently inside `body`.
    entered: Mutex<usize>,
    /// Signalled when `entered` falls to zero.
    left: Condvar,
}

// SAFETY: `body` points to a `Sync` closure, so sharing and calling it from
// several threads is sound; `Pool::run` keeps the pointee alive for every
// call. `entered` and `left` are `Send + Sync` themselves.
unsafe impl Send for Job {}
// SAFETY: as for `Send` above.
unsafe impl Sync for Job {}

/// The process-wide worker pool.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a job is posted.
    posted: Condvar,
}

struct PoolState {
    /// Jobs still open to workers, each with how many more workers it wants.
    jobs: VecDeque<(Arc<Job>, usize)>,
    /// Workers parked on [`Pool::posted`].
    idle: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        jobs: VecDeque::new(),
        idle: 0,
    }),
    posted: Condvar::new(),
};

/// The pool, with its workers started on first use.
fn pool() -> &'static Pool {
    static START: Once = Once::new();
    START.call_once(|| {
        // The workers are never joined: like rayon's global pool they serve
        // until the process exits, and they catch every item panic.
        for i in 1..current_num_threads() {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(|| POOL.work())
                .expect("spawning a pool worker thread");
        }
    });
    &POOL
}

impl Pool {
    /// Runs `body` on the calling thread and on up to `helpers` pool
    /// workers at once, and returns once no worker is inside it. `body`
    /// must drain a shared work list, so that the caller's own call alone
    /// finishes the region and a late worker finds nothing left to do.
    fn run(&self, helpers: usize, body: &(dyn Fn() + Sync)) {
        let erased: *const (dyn Fn() + Sync + '_) = body;
        // SAFETY: only the trait object's lifetime bound changes; the fat
        // pointer's layout is the same. Workers call `body` only after
        // entering the job, which they do under `state` while the job is
        // listed. `_close` unlists it and then waits until every entered
        // worker has left, before this function returns or unwinds, so no
        // call outlives the borrow.
        let erased: *const (dyn Fn() + Sync + 'static) = unsafe { std::mem::transmute(erased) };
        let job = Arc::new(Job {
            body: erased,
            entered: Mutex::new(0),
            left: Condvar::new(),
        });
        {
            let mut state = lock(&self.state);
            state.jobs.push_back((Arc::clone(&job), helpers));
            for _ in 0..helpers.min(state.idle) {
                self.posted.notify_one();
            }
        }
        let _close = Close {
            pool: self,
            job: &job,
        };
        body();
    }

    /// A worker's life: take a place in the oldest open job, run its body,
    /// repeat; park while no job is open.
    fn work(&self) {
        let mut state = lock(&self.state);
        loop {
            let Some(front) = state.jobs.front_mut() else {
                state.idle += 1;
                state = self.posted.wait(state).unwrap_or_else(|e| e.into_inner());
                state.idle -= 1;
                continue;
            };
            front.1 -= 1;
            let job = if front.1 == 0 {
                state.jobs.pop_front().expect("the front job exists").0
            } else {
                Arc::clone(&front.0)
            };
            *lock(&job.entered) += 1;
            drop(state);
            let leave = Leave(&job);
            // SAFETY: this worker entered `job` under `state` while it was
            // listed, so its poster's `Close` waits for `leave` to drop
            // before the borrow behind `body` ends.
            unsafe { (*job.body)() };
            drop(leave);
            state = lock(&self.state);
        }
    }
}

/// Unlists a posted job and waits for the workers that entered it. Being a
/// drop guard, it runs even if the poster unwinds, so no worker ever calls
/// a body whose borrow has ended.
struct Close<'a> {
    pool: &'a Pool,
    job: &'a Arc<Job>,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        lock(&self.pool.state)
            .jobs
            .retain(|(job, _)| !Arc::ptr_eq(job, self.job));
        let mut entered = lock(&self.job.entered);
        while *entered > 0 {
            entered = self
                .job
                .left
                .wait(entered)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Marks a worker's exit from a job, even if the body unwinds.
struct Leave<'a>(&'a Job);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        let mut entered = lock(&self.0.entered);
        *entered -= 1;
        if *entered == 0 {
            self.0.left.notify_one();
        }
    }
}

/// Runs `items` through `f` on the calling thread and up to
/// `current_num_threads() - 1` pool workers. Items are handed out through a
/// shared cursor, so the assignment of items to threads is dynamic; `f`
/// must therefore be safe to call concurrently from several threads. If an
/// item panics, no further items start and the first panic is resumed here
/// once every worker has left the region.
fn run_parallel<T: Send, F: Fn(T) + Sync>(items: Vec<T>, f: F) {
    let helpers = (current_num_threads() - 1).min(items.len().saturating_sub(1));
    if helpers == 0 {
        items.into_iter().for_each(f);
        return;
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cursor = AtomicUsize::new(0);
    // A hint only: the payload itself is published through `first_panic`.
    let stop = AtomicBool::new(false);
    let first_panic = Mutex::new(None);
    let drain = || {
        while !stop.load(Ordering::Relaxed) {
            let Some(slot) = slots.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            let item = lock(slot).take().expect("each slot is taken exactly once");
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                stop.store(true, Ordering::Relaxed);
                lock(&first_panic).get_or_insert(payload);
            }
        }
    };
    pool().run(helpers, &drain);
    if let Some(payload) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic::resume_unwind(payload);
    }
}

/// A finite, already-materialized parallel iterator (all adaptors collect
/// into item lists before running — fine at the chunk/tile granularity this
/// workspace parallelizes at).
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

/// Operations on parallel iterators.
pub trait ParallelIterator: Sized {
    /// The element type.
    type Item: Send;

    /// Consumes the iterator into its item list.
    fn into_items(self) -> Vec<Self::Item>;

    /// Pairs every item with its index.
    fn enumerate(self) -> ParIter<(usize, Self::Item)> {
        ParIter {
            items: self.into_items().into_iter().enumerate().collect(),
        }
    }

    /// Applies `f` to every item on the worker pool.
    fn for_each<F: Fn(Self::Item) + Sync + Send>(self, f: F) {
        run_parallel(self.into_items(), f);
    }

    /// Maps every item on the worker pool, preserving order.
    fn map<U: Send, F: Fn(Self::Item) -> U + Sync + Send>(self, f: F) -> ParIter<U> {
        let items = self.into_items();
        let mut out: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
        {
            let tasks: Vec<(usize, Self::Item)> = items.into_iter().enumerate().collect();
            let out_cells: Vec<Mutex<&mut Option<U>>> = out.iter_mut().map(Mutex::new).collect();
            let out_cells = &out_cells;
            let f = &f;
            run_parallel(tasks, move |(i, item)| {
                **out_cells[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(f(item));
            });
        }
        ParIter {
            items: out.into_iter().map(|v| v.expect("mapped")).collect(),
        }
    }

    /// Collects the items (ordered).
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.into_items().into_iter().collect()
    }
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;
    fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// Types convertible into a parallel iterator (`into_par_iter`).
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// The resulting iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParIter<usize>;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// `par_chunks` / `par_iter` over shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `chunk`-sized pieces of the slice.
    fn par_chunks(&self, chunk: usize) -> ParIter<&[T]>;
    /// Parallel iterator over the elements.
    fn par_iter(&self) -> ParIter<&T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk: usize) -> ParIter<&[T]> {
        assert!(chunk > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk).collect(),
        }
    }
    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_chunks_mut` over mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over disjoint `chunk`-sized mutable pieces.
    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]> {
        assert!(chunk > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::current_num_threads;
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};
    use std::thread;

    #[test]
    fn chunks_mut_visits_every_chunk_once() {
        let mut data = vec![0u32; 1003];
        data.par_chunks_mut(100).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v += i as u32 + 1;
            }
        });
        // Chunk i gets value i+1; 11 chunks, last of size 3.
        assert_eq!(data[0], 1);
        assert_eq!(data[999], 10);
        assert_eq!(data[1000..], [11, 11, 11]);
    }

    #[test]
    fn for_each_runs_all_tasks() {
        let hits = AtomicUsize::new(0);
        (0..257usize).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..100usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panics_propagate() {
        (0..8usize).into_par_iter().for_each(|i| {
            if i == 5 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn pool_survives_a_panicking_region() {
        // With two items that wait for each other, one must run on a pool
        // worker; a lone caller would block on the barrier forever.
        let two_threads = || Barrier::new(2.min(current_num_threads()));
        let barrier = two_threads();
        let caught = std::panic::catch_unwind(|| {
            (0..2usize).into_par_iter().for_each(|i| {
                barrier.wait();
                if i == 1 {
                    panic!("first region");
                }
            });
        })
        .expect_err("the region's panic reaches the caller");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"first region"));

        let barrier = two_threads();
        let out: Vec<usize> = (0..2usize)
            .into_par_iter()
            .map(|i| {
                barrier.wait();
                i + 10
            })
            .collect();
        assert_eq!(out, [10, 11]);
    }

    #[test]
    fn workers_are_reused_across_regions() {
        let ids = Mutex::new(HashSet::new());
        for _ in 0..200 {
            (0..8usize).into_par_iter().for_each(|_| {
                ids.lock().unwrap().insert(thread::current().id());
            });
        }
        let distinct = ids.into_inner().unwrap().len();
        assert!(
            distinct <= current_num_threads(),
            "{distinct} threads ran items; the pool has {}",
            current_num_threads()
        );
    }

    #[test]
    fn nested_regions_complete() {
        let sums: Vec<usize> = (0..16usize)
            .into_par_iter()
            .map(|i| {
                let mut inner = vec![0usize; 100];
                inner.par_chunks_mut(10).enumerate().for_each(|(j, chunk)| {
                    chunk.fill(i * 100 + j);
                });
                inner.iter().sum()
            })
            .collect();
        // Chunk j of region i holds ten copies of i * 100 + j.
        let want: Vec<usize> = (0..16).map(|i| 10 * (10 * i * 100 + 45)).collect();
        assert_eq!(sums, want);
    }

    #[test]
    fn concurrent_posters_visit_every_item_once() {
        let visits = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let mut data = vec![0u32; 64];
                    for _ in 0..100 {
                        data.par_chunks_mut(4).for_each(|chunk| {
                            visits.fetch_add(1, Ordering::Relaxed);
                            chunk.iter_mut().for_each(|v| *v += 1);
                        });
                    }
                    assert!(data.iter().all(|&v| v == 100));
                });
            }
        });
        assert_eq!(visits.load(Ordering::Relaxed), 8 * 100 * 16);
    }
}
