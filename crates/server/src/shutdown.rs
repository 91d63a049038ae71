//! SIGTERM / SIGINT plumbing shared by `treadmill-serve` (graceful
//! drain) and `treadmill-cli sweep` (seal the checkpoint, exit).
//!
//! The handler does the only async-signal-safe thing possible: it
//! flips a process-wide [`AtomicBool`]. Everything else — closing
//! queues, cancelling sweeps at checkpoint boundaries — happens on
//! ordinary threads that poll [`requested`] or share [`flag`] as a
//! [`treadmill_core::SweepControl::cancel`] hook.

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

/// Installs SIGINT + SIGTERM handlers that set the shutdown flag.
/// Idempotent; call once near the top of `main`.
pub fn install() {
    sys::install();
}

/// True once a shutdown signal has been observed.
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// The raw flag, for wiring into `SweepControl { cancel, .. }`.
pub fn flag() -> &'static AtomicBool {
    &REQUESTED
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use super::REQUESTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    // std already links libc on unix; declaring signal(2) directly
    // keeps the crate dependency-free. The previous-handler return
    // value is pointer-sized and ignored.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // The only async-signal-safe action: an atomic store.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        // SAFETY: signal(2) with a handler that performs a single
        // lock-free atomic store is async-signal-safe; registration
        // happens before worker threads spawn.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    pub(super) fn install() {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_is_what_requested_reads_and_handlers_install() {
        install();
        assert!(!requested() || flag().load(Ordering::SeqCst));
        flag().store(true, Ordering::SeqCst);
        assert!(requested());
        flag().store(false, Ordering::SeqCst);
    }
}
