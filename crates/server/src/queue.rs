//! The bounded ingest queue, grown on demand.
//!
//! `std::sync::mpsc::sync_channel(n)` allocates all `n` slots when it is
//! created. With the default capacity of 8192 messages that is about 1 MiB
//! per server, held even when at most one event is ever queued, which is
//! the common case for a producer that flushes after every event. This
//! queue keeps the same contract (at most `cap` messages in flight, `send`
//! blocks while the queue is full, both ends see disconnection) on top of
//! the unbounded `mpsc::channel`, whose storage grows and shrinks with the
//! messages actually queued.
//!
//! The bound is a counter of taken slots. A sender takes a slot with one
//! compare-and-swap before it enqueues; the receiver gives it back after
//! each dequeue. Only a sender that finds the queue full touches the mutex,
//! and a receiver takes it only when some sender is waiting.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::mpsc::{self, RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Slot accounting shared by both ends.
struct Slots {
    cap: usize,
    taken: AtomicUsize,
    /// Senders blocked (or about to block) on a full queue.
    waiting: AtomicUsize,
    /// The receiver is gone: blocked senders must give up.
    closed: AtomicBool,
    lock: Mutex<()>,
    freed: Condvar,
}

impl Slots {
    fn try_take(&self) -> bool {
        self.taken
            .fetch_update(SeqCst, SeqCst, |t| (t < self.cap).then_some(t + 1))
            .is_ok()
    }

    /// Take a slot, blocking while the queue is full. `false` once the
    /// receiver is gone.
    fn take(&self) -> bool {
        if self.try_take() {
            return true;
        }
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.waiting.fetch_add(1, SeqCst);
        // `waiting` is raised before the re-check, so a receiver that frees a
        // slot after the re-check sees it and notifies under the lock, which
        // this thread holds until `wait` releases it: no wake-up is lost.
        let ok = loop {
            if self.closed.load(SeqCst) {
                break false;
            }
            if self.try_take() {
                break true;
            }
            guard = self.freed.wait(guard).unwrap_or_else(|e| e.into_inner());
        };
        self.waiting.fetch_sub(1, SeqCst);
        ok
    }

    fn give(&self) {
        self.taken.fetch_sub(1, SeqCst);
        if self.waiting.load(SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.freed.notify_one();
        }
    }

    fn close(&self) {
        self.closed.store(true, SeqCst);
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.freed.notify_all();
    }
}

/// A queue holding at most `cap` messages (at least one).
pub(crate) fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    let slots = Arc::new(Slots {
        cap: cap.max(1),
        taken: AtomicUsize::new(0),
        waiting: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        lock: Mutex::new(()),
        freed: Condvar::new(),
    });
    (
        Sender {
            tx,
            slots: slots.clone(),
        },
        Receiver { rx, slots },
    )
}

/// The producing end; clone it for more producers.
pub(crate) struct Sender<T> {
    tx: mpsc::Sender<T>,
    slots: Arc<Slots>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            tx: self.tx.clone(),
            slots: self.slots.clone(),
        }
    }
}

impl<T> Sender<T> {
    /// Enqueue, blocking while the queue is full; hands the message back if
    /// the receiver is gone.
    pub(crate) fn send(&self, msg: T) -> Result<(), SendError<T>> {
        if !self.slots.take() {
            return Err(SendError(msg));
        }
        self.tx.send(msg).inspect_err(|_| self.slots.give())
    }

    /// Enqueue without blocking.
    pub(crate) fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        if self.slots.closed.load(SeqCst) {
            return Err(TrySendError::Disconnected(msg));
        }
        if !self.slots.try_take() {
            return Err(TrySendError::Full(msg));
        }
        self.tx.send(msg).map_err(|SendError(msg)| {
            self.slots.give();
            TrySendError::Disconnected(msg)
        })
    }
}

/// The consuming end. Dropping it fails every blocked and later send.
pub(crate) struct Receiver<T> {
    rx: mpsc::Receiver<T>,
    slots: Arc<Slots>,
}

impl<T> Receiver<T> {
    pub(crate) fn recv(&self) -> Result<T, RecvError> {
        let msg = self.rx.recv()?;
        self.slots.give();
        Ok(msg)
    }

    pub(crate) fn recv_timeout(&self, wait: Duration) -> Result<T, RecvTimeoutError> {
        let msg = self.rx.recv_timeout(wait)?;
        self.slots.give();
        Ok(msg)
    }

    pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
        let msg = self.rx.try_recv()?;
        self.slots.give();
        Ok(msg)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.slots.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn full_queue_rejects_try_send_and_frees_on_recv() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(3));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn blocked_sender_resumes_when_a_slot_frees() {
        let (tx, rx) = bounded(1);
        tx.send(0u64).unwrap();
        let producer = thread::spawn(move || {
            for i in 1..1000u64 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u64> = (0..1000).map(|_| rx.recv().unwrap()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        assert_eq!(rx.slots.taken.load(SeqCst), 0);
    }

    #[test]
    fn dropping_the_receiver_fails_blocked_and_later_sends() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let tx2 = tx.clone();
        let blocked = thread::spawn(move || tx2.send(2));
        // Wait until the sender is parked on the full queue.
        while rx.slots.waiting.load(SeqCst) == 0 {
            thread::yield_now();
        }
        drop(rx);
        assert_eq!(blocked.join().unwrap(), Err(SendError(2)));
        assert_eq!(tx.send(3), Err(SendError(3)));
        assert!(matches!(tx.try_send(4), Err(TrySendError::Disconnected(4))));
    }

    #[test]
    fn receiver_sees_disconnection_after_the_last_sender() {
        let (tx, rx) = bounded::<u8>(4);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }
}
