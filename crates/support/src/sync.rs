//! Synchronization primitives: a poison-ignoring `RwLock`, a bounded
//! lock-free MPMC [`ArrayQueue`] (Vyukov's bounded queue, the shape of
//! `crossbeam::queue::ArrayQueue` and of a DPDK descriptor ring), and a
//! true single-producer single-consumer [`spsc`] ring for the multicore
//! callback dispatcher.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A reader-writer lock that ignores poisoning.
///
/// Wraps [`std::sync::RwLock`] with the `parking_lot` calling convention:
/// `read()`/`write()` return guards directly. A panic while holding the
/// lock does not poison it for later users — packet-path state (RETA,
/// flow rules) must stay accessible after a worker dies.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Shared read guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Exclusive write guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a new lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard, ignoring poison.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Acquires an exclusive write guard, ignoring poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

struct Slot<T> {
    /// Ticket sequence number (Vyukov's scheme): equals the slot index
    /// when empty and ready for the `index`-th push, `index + 1` when
    /// full and ready for the matching pop.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free multi-producer multi-consumer queue.
///
/// This is Vyukov's bounded MPMC queue: one atomic ticket per slot, no
/// locks anywhere on the push/pop paths. It models a NIC descriptor
/// ring: `push` fails (returning the rejected element) when the ring is
/// full, which the device counts as `rx_missed`.
pub struct ArrayQueue<T> {
    slots: Box<[Slot<T>]>,
    capacity: usize,
    /// Next push ticket.
    tail: AtomicUsize,
    /// Next pop ticket.
    head: AtomicUsize,
}

// SAFETY: every slot is guarded by its `seq` ticket. A value is written
// exactly once by the producer that won the tail CAS and read exactly once
// by the consumer that won the head CAS; the Release store on `seq` after a
// write happens-before the Acquire load that lets the reader in, so no two
// threads ever touch the same `UnsafeCell` concurrently. Moving values
// across threads only needs `T: Send`.
unsafe impl<T: Send> Send for ArrayQueue<T> {}
// SAFETY: see the `Send` impl above — shared access is mediated entirely by
// the per-slot atomic tickets, so `&ArrayQueue<T>` is safe to share.
unsafe impl<T: Send> Sync for ArrayQueue<T> {}

impl<T> ArrayQueue<T> {
    /// Creates a queue holding at most `capacity` elements.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ArrayQueue capacity must be non-zero");
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        ArrayQueue {
            slots,
            capacity,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
        }
    }

    /// Maximum number of elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Approximate number of queued elements.
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::SeqCst);
        let head = self.head.load(Ordering::SeqCst);
        tail.saturating_sub(head)
    }

    /// True when the queue is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to push; on a full queue the element is handed back.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[tail % self.capacity];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == tail {
                // Slot is free for this ticket: claim it.
                match self.tail.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the tail CAS just succeeded, so this
                        // thread exclusively owns the slot for ticket
                        // `tail`; no reader is admitted until the Release
                        // store of `tail + 1` to `seq` below.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(tail.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(t) => tail = t,
                }
            } else if seq < tail {
                // The slot still holds an element a lap behind: full.
                return Err(value);
            } else {
                // Another producer advanced past us; retry with a fresh
                // ticket.
                tail = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Attempts to pop the oldest element.
    pub fn pop(&self) -> Option<T> {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[head % self.capacity];
            let seq = slot.seq.load(Ordering::Acquire);
            let expected = head.wrapping_add(1);
            if seq == expected {
                match self.head.compare_exchange_weak(
                    head,
                    head.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: `seq == head + 1` (Acquire) proves the
                        // producer's `write` is visible and complete, and
                        // the head CAS gave this thread exclusive ownership
                        // of the slot, so the value is initialized and read
                        // exactly once.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        // Mark the slot free for the push one lap ahead.
                        slot.seq
                            .store(head.wrapping_add(self.capacity), Ordering::Release);
                        return Some(value);
                    }
                    Err(h) => head = h,
                }
            } else if seq < expected {
                // Slot not yet published: empty.
                return None;
            } else {
                head = self.head.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for ArrayQueue<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for ArrayQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

pub mod spsc {
    //! A true bounded single-producer single-consumer ring.
    //!
    //! Unlike [`super::ArrayQueue`] (Vyukov MPMC, one CAS per
    //! operation), this ring exploits the single-producer
    //! single-consumer contract for a wait-free fast path with **no
    //! atomic RMW at all**: each side owns its index outright and keeps
    //! a *cached* copy of the other side's, refreshed only when the ring
    //! looks full/empty. On the common path a `push` or `pop` touches
    //! one local `Cell` and one `Release` store — the cache-conscious
    //! cross-core queueing discipline the multicore callback dispatcher
    //! needs (one ring per (RX core, subscription) pair).
    //!
    //! Disconnect is explicit in both directions: `try_send` reports a
    //! dropped consumer (handing the value back), `try_recv` reports a
    //! dropped producer once the ring is drained. Nothing is ever
    //! silently discarded.

    use std::cell::{Cell, UnsafeCell};
    use std::mem::MaybeUninit;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Error from [`Producer::try_send`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// Ring full; the value is handed back.
        Full(T),
        /// Consumer dropped; the value is handed back.
        Disconnected(T),
    }

    /// Error from [`Consumer::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Ring currently empty (producer still alive).
        Empty,
        /// Producer dropped and the ring is drained: no value will ever
        /// arrive again.
        Disconnected,
    }

    /// Shared ring storage. `head` is owned by the consumer, `tail` by
    /// the producer; each side publishes its index with a `Release`
    /// store and the other side reads it with `Acquire` only when its
    /// cached copy runs out.
    struct Shared<T> {
        slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
        capacity: usize,
        /// Next slot the consumer will read (published by the consumer).
        head: AtomicUsize,
        /// Next slot the producer will write (published by the producer).
        tail: AtomicUsize,
        producer_alive: AtomicBool,
        consumer_alive: AtomicBool,
    }

    // SAFETY: slot `i % capacity` is written only by the producer while
    // `head <= i < head + capacity` and read only by the consumer while
    // `i < tail`, each gated on the peer's published index. The Release
    // store of `tail`/`head` after each write/read happens-before the
    // Acquire load that admits the other side, so no two threads ever
    // touch the same `UnsafeCell` concurrently; moving values across
    // the ring then needs only `T: Send`.
    unsafe impl<T: Send> Send for Shared<T> {}
    // SAFETY: see the `Send` impl above — shared access is mediated by
    // the published head/tail indices and the SPSC ownership contract
    // (`Producer`/`Consumer` are each `!Sync` and not cloneable).
    unsafe impl<T: Send> Sync for Shared<T> {}

    impl<T> Drop for Shared<T> {
        fn drop(&mut self) {
            // Both endpoints are gone (Arc refcount hit zero), so the
            // indices are quiescent: drop whatever is still queued.
            let head = self.head.load(Ordering::Relaxed);
            let tail = self.tail.load(Ordering::Relaxed);
            for i in head..tail {
                // SAFETY: `[head, tail)` are exactly the initialized,
                // unconsumed slots, and no other thread can exist here.
                unsafe {
                    (*self.slots[i % self.capacity].get()).assume_init_drop();
                }
            }
        }
    }

    /// The sending half (single producer; `Send`, not `Sync`, not
    /// cloneable).
    pub struct Producer<T> {
        shared: Arc<Shared<T>>,
        /// Authoritative next-write index (mirrored into `shared.tail`).
        tail: Cell<usize>,
        /// Last head observed from the consumer.
        cached_head: Cell<usize>,
    }

    /// The receiving half (single consumer; `Send`, not `Sync`, not
    /// cloneable).
    pub struct Consumer<T> {
        shared: Arc<Shared<T>>,
        /// Authoritative next-read index (mirrored into `shared.head`).
        head: Cell<usize>,
        /// Last tail observed from the producer.
        cached_tail: Cell<usize>,
    }

    /// Creates a ring holding at most `capacity` in-flight elements.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
        assert!(capacity > 0, "spsc ring capacity must be non-zero");
        let shared = Arc::new(Shared {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            capacity,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            producer_alive: AtomicBool::new(true),
            consumer_alive: AtomicBool::new(true),
        });
        (
            Producer {
                shared: Arc::clone(&shared),
                tail: Cell::new(0),
                cached_head: Cell::new(0),
            },
            Consumer {
                shared,
                head: Cell::new(0),
                cached_tail: Cell::new(0),
            },
        )
    }

    impl<T: Send> Producer<T> {
        /// Attempts to enqueue without blocking. On failure the value is
        /// always handed back — a full ring and a dropped consumer are
        /// distinct, so callers can count drops by reason.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            if !self.shared.consumer_alive.load(Ordering::Acquire) {
                return Err(TrySendError::Disconnected(value));
            }
            let tail = self.tail.get();
            if tail - self.cached_head.get() == self.shared.capacity {
                self.cached_head
                    .set(self.shared.head.load(Ordering::Acquire));
                if tail - self.cached_head.get() == self.shared.capacity {
                    return Err(TrySendError::Full(value));
                }
            }
            // SAFETY: `tail - head < capacity` (head re-checked above),
            // so this slot's previous value has been consumed; only this
            // producer writes, and the Release store below publishes the
            // write before the consumer can read it.
            unsafe {
                (*self.shared.slots[tail % self.shared.capacity].get()).write(value);
            }
            self.tail.set(tail + 1);
            self.shared.tail.store(tail + 1, Ordering::Release);
            Ok(())
        }

        /// In-flight elements (approximate from the producer side).
        pub fn len(&self) -> usize {
            self.tail.get() - self.shared.head.load(Ordering::Acquire)
        }

        /// True when nothing is in flight.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Ring capacity.
        pub fn capacity(&self) -> usize {
            self.shared.capacity
        }
    }

    impl<T> Drop for Producer<T> {
        fn drop(&mut self) {
            self.shared.producer_alive.store(false, Ordering::Release);
        }
    }

    impl<T: Send> Consumer<T> {
        /// Attempts to dequeue without blocking. `Disconnected` is only
        /// reported once the ring is fully drained, so no queued value
        /// is ever lost to a producer dropping.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let head = self.head.get();
            if self.cached_tail.get() == head {
                self.cached_tail
                    .set(self.shared.tail.load(Ordering::Acquire));
                if self.cached_tail.get() == head {
                    // Order matters: check liveness first, then re-read
                    // the tail. A producer pushes (Release) before its
                    // Drop flips `producer_alive`, so if we see it dead
                    // here, the re-read below observes its final push.
                    if !self.shared.producer_alive.load(Ordering::Acquire) {
                        self.cached_tail
                            .set(self.shared.tail.load(Ordering::Acquire));
                        if self.cached_tail.get() == head {
                            return Err(TryRecvError::Disconnected);
                        }
                    } else {
                        return Err(TryRecvError::Empty);
                    }
                }
            }
            // SAFETY: `head < tail` (tail just observed with Acquire),
            // so the producer's write of this slot is published and
            // complete; only this consumer reads, and the Release store
            // of `head + 1` below frees the slot for reuse.
            let value = unsafe {
                (*self.shared.slots[head % self.shared.capacity].get()).assume_init_read()
            };
            self.head.set(head + 1);
            self.shared.head.store(head + 1, Ordering::Release);
            Ok(value)
        }

        /// Dequeues, spinning (with yields) while the ring is empty.
        /// Returns `Err(())` once the producer is gone and the ring is
        /// drained.
        pub fn recv(&self) -> Result<T, TryRecvError> {
            let mut spins = 0u32;
            loop {
                match self.try_recv() {
                    Ok(v) => return Ok(v),
                    Err(TryRecvError::Disconnected) => return Err(TryRecvError::Disconnected),
                    Err(TryRecvError::Empty) => {
                        spins += 1;
                        if spins < 64 {
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
            }
        }

        /// True when the producer has been dropped **and** every queued
        /// element has been consumed — the worker-exit condition.
        pub fn is_finished(&self) -> bool {
            matches!(self.try_peek_state(), TryRecvError::Disconnected)
        }

        /// Classifies the ring without consuming: `Empty` (producer
        /// alive, nothing queued) or `Disconnected` (producer gone,
        /// drained). Panics never; returns `Empty` when a value is
        /// available (callers use `try_recv` for data).
        fn try_peek_state(&self) -> TryRecvError {
            let head = self.head.get();
            let tail = self.shared.tail.load(Ordering::Acquire);
            if tail != head {
                return TryRecvError::Empty;
            }
            if !self.shared.producer_alive.load(Ordering::Acquire)
                && self.shared.tail.load(Ordering::Acquire) == head
            {
                return TryRecvError::Disconnected;
            }
            TryRecvError::Empty
        }

        /// In-flight elements (approximate from the consumer side).
        pub fn len(&self) -> usize {
            self.shared.tail.load(Ordering::Acquire) - self.head.get()
        }

        /// True when nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Ring capacity.
        pub fn capacity(&self) -> usize {
            self.shared.capacity
        }
    }

    impl<T> Drop for Consumer<T> {
        fn drop(&mut self) {
            self.shared.consumer_alive.store(false, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn queue_fifo_and_capacity() {
        let q = ArrayQueue::new(2);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Ok(()));
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(3), Ok(()));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_wraps_many_laps() {
        let q = ArrayQueue::new(3);
        for i in 0..1000 {
            q.push(i).unwrap();
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn queue_mpmc_stress() {
        const PRODUCERS: usize = 4;
        const PER: u64 = 5_000;
        let q = Arc::new(ArrayQueue::new(64));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS as u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    let mut v = p * PER + i;
                    loop {
                        match q.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match q.pop() {
                        Some(v) => got.push(v),
                        None => {
                            if got.len() as u64 >= PRODUCERS as u64 * PER {
                                break;
                            }
                            std::thread::yield_now();
                            // Exit once producers are done and queue drained.
                            if Arc::strong_count(&q) <= 3 && q.is_empty() {
                                break;
                            }
                        }
                    }
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all: Vec<u64> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        while let Some(v) = q.pop() {
            all.push(v);
        }
        all.sort_unstable();
        let expect: Vec<u64> = (0..PRODUCERS as u64 * PER).collect();
        assert_eq!(all, expect, "every element delivered exactly once");
    }

    #[test]
    fn queue_drops_remaining() {
        let q = ArrayQueue::new(8);
        let item = Arc::new(());
        q.push(Arc::clone(&item)).unwrap();
        q.push(Arc::clone(&item)).unwrap();
        drop(q);
        assert_eq!(Arc::strong_count(&item), 1);
    }

    #[test]
    fn rwlock_ignores_poison() {
        let lock = Arc::new(RwLock::new(7u32));
        let l2 = Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*lock.read(), 7);
        *lock.write() = 8;
        assert_eq!(*lock.read(), 8);
    }

    #[test]
    fn spsc_fifo_and_capacity() {
        let (tx, rx) = spsc::ring::<u32>(2);
        assert_eq!(tx.capacity(), 2);
        assert!(tx.is_empty() && rx.is_empty());
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(
            tx.try_send(3),
            Err(spsc::TrySendError::Full(3)),
            "full ring hands the value back"
        );
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Ok(3));
        assert_eq!(rx.try_recv(), Err(spsc::TryRecvError::Empty));
    }

    #[test]
    fn spsc_disconnect_both_directions() {
        // Consumer gone: producer sees Disconnected with the value back.
        let (tx, rx) = spsc::ring::<u32>(4);
        drop(rx);
        assert_eq!(tx.try_send(9), Err(spsc::TrySendError::Disconnected(9)));

        // Producer gone: consumer drains the backlog, then Disconnected.
        let (tx, rx) = spsc::ring::<u32>(4);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        drop(tx);
        assert!(!rx.is_finished(), "backlog still pending");
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(spsc::TryRecvError::Disconnected));
        assert!(rx.is_finished());
    }

    #[test]
    fn spsc_drop_releases_queued_elements() {
        let (tx, rx) = spsc::ring::<Arc<()>>(8);
        let item = Arc::new(());
        tx.try_send(Arc::clone(&item)).unwrap();
        tx.try_send(Arc::clone(&item)).unwrap();
        assert_eq!(rx.try_recv().map(|_| ()), Ok(()));
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&item), 1, "queued element leaked");
    }

    /// Cross-thread stress: a small ring forces constant wrap-around and
    /// full/empty transitions; every element must arrive once, in order.
    #[test]
    fn spsc_cross_thread_order_preserved() {
        const N: u64 = 100_000;
        let (tx, rx) = spsc::ring::<u64>(4);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut value = i;
                loop {
                    match tx.try_send(value) {
                        Ok(()) => break,
                        Err(spsc::TrySendError::Full(back)) => {
                            value = back;
                            std::thread::yield_now();
                        }
                        Err(e) => panic!("consumer alive until drained: {e:?}"),
                    }
                }
            }
        });
        for expect in 0..N {
            assert_eq!(rx.recv(), Ok(expect), "out of order at {expect}");
        }
        producer.join().unwrap();
        assert_eq!(rx.recv(), Err(spsc::TryRecvError::Disconnected));
    }
}
