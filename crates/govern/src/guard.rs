//! The one way the serving path takes a lock.
//!
//! The admission queue, the circuit breaker and the memory pool each take
//! their mutex through [`lock`]. It recovers from poisoning: a worker that
//! panicked mid-request must not take the structure down with it, and
//! every critical section leaves its state valid at each statement
//! boundary. Debug builds also count, per thread, the guards [`lock`]
//! handed out and that are still alive, so [`assert_no_lock_held`] can
//! check that no guard spans planning or execution. Release builds compile
//! the count out.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

#[cfg(debug_assertions)]
thread_local! {
    /// Guards taken through [`lock`] that this thread holds now.
    static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One live guard in this thread's count; dropping it uncounts it.
struct Counted;

impl Counted {
    fn new() -> Self {
        #[cfg(debug_assertions)]
        HELD.with(|n| n.set(n.get() + 1));
        Counted
    }
}

#[cfg(debug_assertions)]
impl Drop for Counted {
    fn drop(&mut self) {
        HELD.with(|n| n.set(n.get() - 1));
    }
}

/// A guard taken through [`lock`].
pub struct Held<'a, T> {
    guard: MutexGuard<'a, T>,
    _counted: Counted,
}

/// Lock `mutex`, recovering the data of a poisoned one.
pub fn lock<T>(mutex: &Mutex<T>) -> Held<'_, T> {
    let guard = mutex.lock().unwrap_or_else(PoisonError::into_inner);
    Held {
        guard,
        _counted: Counted::new(),
    }
}

impl<T> Held<'_, T> {
    /// Park on `cv`, releasing the mutex until woken.
    pub fn wait(self, cv: &Condvar) -> Self {
        let Held { guard, _counted } = self;
        let guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        Held { guard, _counted }
    }

    /// [`Held::wait`], for at most `timeout`.
    pub fn wait_timeout(self, cv: &Condvar, timeout: Duration) -> Self {
        let Held { guard, _counted } = self;
        let woken = cv.wait_timeout(guard, timeout);
        let guard = woken.unwrap_or_else(PoisonError::into_inner).0;
        Held { guard, _counted }
    }
}

impl<T> Deref for Held<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for Held<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Debug builds: panic if this thread holds a guard taken through
/// [`lock`]. The server calls it before planning and before execution,
/// which must never run under a lock. A no-op in release builds.
#[track_caller]
pub fn assert_no_lock_held(before: &str) {
    #[cfg(debug_assertions)]
    {
        let held = HELD.with(std::cell::Cell::get);
        assert!(held == 0, "{held} lock guard(s) held before {before}");
    }
    #[cfg(not(debug_assertions))]
    let _ = before;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_count_while_they_live() {
        let m = Mutex::new(0);
        assert_no_lock_held("the first lock");
        {
            let mut g = lock(&m);
            *g += 1;
            // A wait hands the same guard back: still held.
            let g = g.wait_timeout(&Condvar::new(), Duration::from_millis(1));
            assert_eq!(*g, 1);
            if cfg!(debug_assertions) {
                let caught = std::panic::catch_unwind(|| assert_no_lock_held("planning"));
                assert!(caught.is_err(), "a live guard must fail the assertion");
            }
        }
        assert_no_lock_held("the guard dropped");
    }

    #[test]
    fn a_poisoned_lock_recovers_and_unwinding_uncounts_its_guard() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = std::sync::Arc::clone(&m);
        let panicked = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison the lock");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(*lock(&m), 7);
        let caught = std::panic::catch_unwind(|| {
            let _g = lock(&m);
            panic!("unwind with a guard held");
        });
        assert!(caught.is_err());
        assert_no_lock_held("the unwound guard dropped");
    }
}
