//! The work-claiming pool behind the crate's parallel experiment loops
//! (factorial collection and tuning validation).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `work(0..n)` on up to `threads` scoped workers and returns the
/// results in job order. Workers claim the next job index from one
/// atomic counter and write into that job's own slot, so the output is
/// independent of which worker ran a job and when it finished.
pub(crate) fn run_indexed<T: Send + Sync>(
    n: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                // The counter hands out each index once, so the slot is
                // always empty here.
                let _ = slot.set(work(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every claimed job fills its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_at_any_thread_count() {
        for threads in [0, 1, 3, 64] {
            let out = run_indexed(50, threads, |i| i * i);
            assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_indexed(0, 4, |i| i).is_empty());
    }
}
