//! Bounded MPMC queue — the admission buffer behind each lane.
//!
//! Admission is **reject-on-full**, not block-on-full: a saturated lane
//! must answer "come back later" immediately (with a retry hint) rather
//! than stall the front-end, so the producer side is [`BoundedQueue::
//! try_push`] only. The consumer side (lane workers) blocks on
//! [`BoundedQueue::pop`] until work arrives or the queue is closed, and
//! takes one request at a time.
//!
//! `std::sync::mpsc` cannot play this role: its receiver is single-
//! consumer (a lane has several workers) and its bounded sender blocks
//! rather than failing fast. A `Mutex<VecDeque>` + condvar is exactly
//! enough — admission queues are short by design (that is the point),
//! so the critical sections are a push/pop each.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`BoundedQueue::try_push`] returned the item instead of queueing
/// it.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back. Callers turn
    /// this into an admission rejection with a retry hint.
    Full(T),
    /// The queue was closed; no further items will ever be accepted.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue with fail-fast push,
/// blocking pop, and close-to-drain shutdown.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` buffered items (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The admission bound this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item`, or hands it straight back when the queue is full
    /// (admission rejection) or closed (shutdown). Never blocks.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        rs_par::model::yield_point();
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        rs_par::model::yield_point();
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty and
    /// open. Returns `None` only when the queue is closed **and**
    /// drained — a consumer loop `while let Some(x) = q.pop()` therefore
    /// processes every admitted item before exiting.
    pub fn pop(&self) -> Option<T> {
        rs_par::model::yield_point();
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// and blocked consumers drain the remaining items then observe
    /// `None`. Idempotent.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }

    /// True once [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_rejects_with_the_item() {
        let q = BoundedQueue::new(2);
        q.try_push('a').unwrap();
        q.try_push('b').unwrap();
        assert_eq!(q.try_push('c'), Err(PushError::Full('c')), "item handed back");
        q.pop().unwrap();
        q.try_push('c').unwrap();
    }

    #[test]
    fn closed_queue_rejects_but_drains() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        assert_eq!(q.pop(), Some(1), "admitted items survive close");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "drained + closed");
        assert!(q.is_closed());
        q.close(); // idempotent
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q = BoundedQueue::new(2);
        let got = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while let Some(v) = q.pop() {
                    got.fetch_add(v, Ordering::SeqCst);
                }
            });
            s.spawn(|| {
                while let Some(v) = q.pop() {
                    got.fetch_add(v, Ordering::SeqCst);
                }
            });
            for _ in 0..50 {
                let mut v = 1;
                loop {
                    match q.try_push(v) {
                        Ok(()) => break,
                        Err(PushError::Full(back)) => {
                            v = back;
                            std::thread::yield_now();
                        }
                        Err(PushError::Closed(_)) => unreachable!(),
                    }
                }
            }
            q.close();
        });
        assert_eq!(got.load(Ordering::SeqCst), 50, "every admitted item consumed once");
    }

    #[test]
    fn capacity_clamped_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(PushError::Full(2)));
    }
}
