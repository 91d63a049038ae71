//! The one cell scheduler: a work-claiming pool behind every parallel
//! experiment loop (factorial collection, tuning validation, and the
//! journaled sweep's cells).

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Runs `work(0..n)` on up to `threads` scoped workers and returns the
/// results in job order. Workers claim the next job index from one
/// atomic counter and write into that job's own slot, so the output is
/// independent of which worker ran a job and when it finished.
///
/// A job that panics stops further claims; once the in-flight jobs
/// return, the first caught panic is resumed on the calling thread
/// with its original payload, so a caller's `catch_unwind` sees the
/// job's own message rather than a generic scoped-thread failure.
pub fn run_indexed<T: Send + Sync>(
    n: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                match panic::catch_unwind(AssertUnwindSafe(|| work(i))) {
                    // The counter hands out each index once, so the slot
                    // is always empty here.
                    Ok(value) => {
                        let _ = slot.set(value);
                    }
                    Err(payload) => {
                        next.store(n, Ordering::Relaxed);
                        panicked
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get_or_insert(payload);
                        break;
                    }
                }
            });
        }
    });
    if let Some(payload) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
    // Without a panic every job ran, so every slot is filled.
    slots.into_iter().filter_map(OnceLock::into_inner).collect()
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

    #[test]
    fn a_panicking_job_resumes_with_its_own_message() {
        for threads in [1, 4] {
            let caught = panic::catch_unwind(|| {
                run_indexed(8, threads, |i| {
                    assert!(i != 5, "job {i} broke");
                    i
                })
            });
            let payload = caught.expect_err("the job panic must propagate");
            let text = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert_eq!(text, "job 5 broke");
        }
    }
}
