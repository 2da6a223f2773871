//! The bounded admission queue.
//!
//! A minimal MPMC queue built from a mutex over a `VecDeque` plus
//! two condvars — the build environment has no crossbeam, and the server
//! needs exactly three behaviours from it: bounded capacity with an
//! *immediate* full signal (so admission control can shed), an optional
//! blocking push (backpressure), and a close that lets consumers drain
//! what was already admitted before they exit.
//!
//! The semantics of these operations are model-checked exhaustively by
//! `cse_conc::models::QueueModel`. Lock acquisitions and condvar waits
//! recover from poisoning: a panicking producer or consumer must not
//! wedge the whole server. Poison recovery is sound here because every
//! critical section leaves `Inner` consistent at every statement
//! boundary — a `VecDeque` push/pop either happens or does not.
//!
//! Test expectations on push/pop results use `expect` with context rather
//! than bare `unwrap()`: when a queue invariant breaks, the panic message
//! should say which behaviour died, not `Option::unwrap` on line N.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity (shed-mode pushes only).
    Full(T),
    /// The queue was closed; nothing is admitted any more.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

/// A bounded, closeable MPMC queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit `item` if there is room, else refuse immediately.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut g = self.lock();
        if g.closed {
            return Err(PushError::Closed(item));
        }
        if g.items.len() >= g.capacity {
            return Err(PushError::Full(item));
        }
        g.items.push_back(item);
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Admit `item`, blocking while the queue is full (backpressure).
    /// Returns the item back if the queue closes while waiting.
    pub fn push_blocking(&self, item: T) -> Result<(), PushError<T>> {
        let mut g = self.lock();
        loop {
            if g.closed {
                return Err(PushError::Closed(item));
            }
            if g.items.len() < g.capacity {
                g.items.push_back(item);
                drop(g);
                self.not_empty.notify_one();
                return Ok(());
            }
            g = self
                .not_full
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Take the next item, blocking while the queue is empty. Returns
    /// `None` once the queue is closed *and* drained — consumers exit
    /// only after finishing everything that was admitted.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self
                .not_empty
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue: refuse new admissions, wake every waiter.
    pub fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current depth (racy, for stats only).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shed_when_full_and_drain_after_close() {
        let q = BoundedQueue::new(2);
        q.try_push(1)
            .expect("queue with capacity 2 admits the first item");
        q.try_push(2)
            .expect("queue with capacity 2 admits the second item");
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        q.close();
        match q.try_push(4) {
            Err(PushError::Closed(4)) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        // Admitted items survive the close.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_push_applies_backpressure() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(10).expect("empty queue admits");
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(11).is_ok())
        };
        // The producer is blocked until we make room.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(q.pop(), Some(10));
        assert!(producer.join().expect("producer thread exits cleanly"));
        assert_eq!(q.pop(), Some(11));
    }

    #[test]
    fn pop_blocks_until_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(
            consumer.join().expect("consumer thread exits cleanly"),
            None
        );
    }

    #[test]
    fn poisoned_queue_lock_recovers() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1).expect("empty queue admits");
        let q2 = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _g = q2.lock();
            panic!("poison the queue mutex");
        })
        .join();
        // Every entry point recovers the poisoned lock and keeps serving.
        q.try_push(2).expect("poisoned queue still admits");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
    }
}
