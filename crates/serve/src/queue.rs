//! The bounded admission queue.
//!
//! A minimal MPMC queue built from a mutex over a `VecDeque` plus
//! two condvars — the build environment has no crossbeam, and the server
//! needs exactly three behaviours from it: bounded capacity with an
//! *immediate* full signal (so admission control can shed), an optional
//! blocking push (backpressure), and a close that lets consumers drain
//! what was already admitted before they exit.
//!
//! The mutex is taken through [`cse_govern::lock`], so lock acquisitions
//! and condvar waits recover from poisoning: a panicking producer or consumer must not
//! wedge the whole server. Poison recovery is sound here because every
//! critical section leaves `Inner` consistent at every statement
//! boundary — a `VecDeque` push/pop either happens or does not.
//!
//! Test expectations on push/pop results use `expect` with context rather
//! than bare `unwrap()`: when a queue invariant breaks, the panic message
//! should say which behaviour died, not `Option::unwrap` on line N.

use cse_govern::{lock, Held};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

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

    fn lock(&self) -> Held<'_, Inner<T>> {
        lock(&self.inner)
    }

    /// Admit `item` if there is room, else refuse immediately.
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushError<T>> {
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
    pub(crate) fn push_blocking(&self, item: T) -> Result<(), PushError<T>> {
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
            g = g.wait(&self.not_full);
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
            g = g.wait(&self.not_empty);
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

    /// Four producers (two shedding, two blocking) and three consumers on
    /// a small queue: every admitted item is delivered exactly once, and
    /// each consumer sees one producer's items in the order it pushed them.
    #[test]
    fn producers_and_consumers_deliver_each_admitted_item_once_in_order() {
        const ITEMS: usize = 400;
        let q = Arc::new(BoundedQueue::new(3));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut admitted = Vec::new();
                    for i in 0..ITEMS {
                        let pushed = if p % 2 == 0 {
                            q.try_push((p, i))
                        } else {
                            q.push_blocking((p, i))
                        };
                        match pushed {
                            Ok(()) => admitted.push((p, i)),
                            Err(PushError::Full(_)) => std::thread::yield_now(),
                            Err(PushError::Closed(_)) => panic!("closed while producing"),
                        }
                    }
                    admitted
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || std::iter::from_fn(|| q.pop()).collect::<Vec<_>>())
            })
            .collect();
        let mut admitted: Vec<(usize, usize)> = Vec::new();
        for p in producers {
            admitted.extend(p.join().expect("producer thread exits cleanly"));
        }
        q.close();
        let mut delivered = Vec::new();
        for c in consumers {
            let got = c.join().expect("consumer thread exits cleanly");
            for p in 0..4 {
                let mine: Vec<usize> = got.iter().filter(|(q, _)| *q == p).map(|x| x.1).collect();
                assert!(mine.is_sorted(), "producer {p} delivered out of order");
            }
            delivered.extend(got);
        }
        admitted.sort_unstable();
        delivered.sort_unstable();
        assert_eq!(delivered, admitted, "each admitted item exactly once");
        assert_eq!(
            admitted.iter().filter(|(p, _)| p % 2 == 1).count(),
            2 * ITEMS
        );
    }
}
