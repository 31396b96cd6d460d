//! The workspace's parallelism budget: an order-preserving parallel
//! map on scoped std threads for independent items (sweep cells), and
//! the count of helper threads a long-running caller (the sharded
//! engine's shard workers) may run beside itself.
//!
//! Both read the host's available parallelism once per process. [`map`]
//! never uses more threads than items: items are split into one
//! contiguous chunk per thread, the calling thread runs the first, and
//! results are concatenated in chunk order; a worker's panic is resumed
//! on the caller. [`helpers`] grants the available parallelism less the
//! calling thread. One level runs in parallel at a time: a `map` call
//! with at most one item or from inside another `map` chunk runs
//! inline, and [`helpers`] grants none inside a chunk, so a sweep on N
//! cores whose cells run S shards uses N threads, not N×S.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

thread_local! {
    /// Whether this thread is running a `map` chunk.
    static IN_MAP: Cell<bool> = const { Cell::new(false) };
}

/// Marks this thread as inside a `map` chunk until dropped, unwinding
/// included.
struct InMap(bool);

impl Drop for InMap {
    fn drop(&mut self) {
        IN_MAP.with(|c| c.set(self.0));
    }
}

/// Worker threads a top-level [`map`] call may use: the host's
/// available parallelism, read once.
fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Apply `f` to every item in parallel and return the results in input
/// order.
pub fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = if IN_MAP.with(Cell::get) { 1 } else { threads() };
    map_on(threads, items, f)
}

/// Helper threads a caller may run beside itself for up to `wanted`
/// lanes of work: the host's available parallelism less the calling
/// thread, at most `wanted`, and none inside a [`map`] chunk.
pub fn helpers(wanted: usize) -> usize {
    if IN_MAP.with(Cell::get) {
        0
    } else {
        (threads() - 1).min(wanted)
    }
}

/// [`map`] on at most `threads` threads.
fn map_on<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    let per = items.len().div_ceil(threads);
    let mut rest = items.into_iter();
    let chunks: Vec<Vec<T>> = (0..threads)
        .map(|_| rest.by_ref().take(per).collect::<Vec<T>>())
        .take_while(|chunk| !chunk.is_empty())
        .collect();
    let run = |chunk: Vec<T>| -> Vec<R> {
        let _mark = InMap(IN_MAP.with(|c| c.replace(true)));
        chunk.into_iter().map(&f).collect()
    };
    let run = &run;
    std::thread::scope(|scope| {
        let mut chunks = chunks.into_iter();
        let first = chunks.next().unwrap_or_default();
        let handles: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || run(chunk)))
            .collect();
        let mut out = run(first);
        for h in handles {
            out.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn output_order_equals_input_order() {
        for n in [1usize, 2, 3, 7] {
            let want: Vec<usize> = (0..n).map(|i| i * 10).collect();
            assert_eq!(map((0..n).collect(), |i| i * 10), want);
            for threads in 1..=n + 1 {
                assert_eq!(map_on(threads, (0..n).collect(), |i| i * 10), want);
            }
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        for threads in [1, 2, 3, 7] {
            let seen: Vec<AtomicUsize> = (0..101).map(|_| AtomicUsize::new(0)).collect();
            map_on(threads, (0..101).collect(), |i: usize| {
                seen[i].fetch_add(1, Ordering::Relaxed)
            });
            assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn at_least_two_workers_run_on_a_multicore_host() {
        if threads() < 2 {
            return;
        }
        let ids = Mutex::new(HashSet::new());
        map((0..64).collect::<Vec<u32>>(), |_| {
            ids.lock()
                .expect("test mutex")
                .insert(std::thread::current().id())
        });
        assert!(ids.into_inner().expect("test mutex").len() >= 2);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            map_on(2, vec![0u32, 1], |i| assert_eq!(i, 0, "second chunk fails"))
        });
        let payload = caught.expect_err("the worker's panic must propagate");
        let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("second chunk fails"), "{msg}");
    }

    #[test]
    fn helpers_leave_the_caller_its_core_and_none_inside_a_chunk() {
        assert_eq!(helpers(usize::MAX), threads() - 1);
        assert_eq!(helpers(0), 0);
        assert_eq!(map_on(2, vec![0u32, 1], |_| helpers(usize::MAX)), vec![0, 0]);
    }

    #[test]
    fn a_nested_call_runs_on_the_calling_thread() {
        let inline = map_on(2, vec![0u32, 1], |_| {
            let me = std::thread::current().id();
            map((0..8).collect::<Vec<u32>>(), |_| {
                std::thread::current().id()
            })
            .into_iter()
            .all(|id| id == me)
        });
        assert_eq!(inline, vec![true, true]);
    }
}
