//! Thread-synchronization primitives over distributed futexes.
//!
//! On Linux, pthread mutexes, barriers, and condition variables compile
//! down to atomic operations on user-space words plus `futex` system
//! calls. DEX supports exactly those two ingredients across nodes —
//! atomics through exclusive page ownership, futexes through work
//! delegation — so these primitives are faithful ports of the classic
//! futex algorithms and work unchanged wherever the calling thread runs
//! (the paper's claim that "applications can use thread synchronization
//! primitives based on the futex as is, regardless of their locations").

//! When the cluster runs with race detection enabled
//! ([`crate::ClusterConfig::with_race_detection`]), these primitives
//! record *semantic* synchronization events (`LockAcquire`,
//! `BarrierLeave`, …) and suppress recording of their internal futex-word
//! traffic, so `dex-check races` sees the happens-before edges without
//! mistaking lock-word contention for application races.

use dex_os::VirtAddr;

use crate::handle::ProcessRef;
use crate::race::RaceEventKind;
use crate::thread::ThreadCtx;

/// A mutual-exclusion lock usable by threads on any node.
///
/// Three-state futex mutex (Drepper's "Futexes Are Tricky"): 0 = free,
/// 1 = locked, 2 = locked with waiters.
///
/// # Examples
///
/// ```
/// use dex_core::{Cluster, ClusterConfig, DexMutex};
///
/// let cluster = Cluster::new(ClusterConfig::new(2));
/// cluster.run(|proc_| {
///     let mutex = proc_.new_mutex("lock");
///     let counter = proc_.alloc_cell::<u64>(0);
///     for i in 0..4u16 {
///         proc_.spawn(move |ctx| {
///             ctx.migrate(i % 2).unwrap();
///             for _ in 0..10 {
///                 mutex.lock(ctx);
///                 let v = counter.get(ctx);
///                 counter.set(ctx, v + 1);
///                 mutex.unlock(ctx);
///             }
///         });
///     }
/// });
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DexMutex {
    word: VirtAddr,
}

impl DexMutex {
    pub(crate) fn from_raw(word: VirtAddr) -> Self {
        DexMutex { word }
    }

    /// The futex word backing the lock.
    pub fn word_addr(&self) -> VirtAddr {
        self.word
    }

    /// Acquires the lock, blocking (via delegated futex wait) while held
    /// elsewhere. This is Drepper's third futex mutex: the word is swapped
    /// to "locked-contended" before sleeping so unlockers know to wake.
    pub fn lock(&self, ctx: &ThreadCtx<'_>) {
        ctx.sync_scope(|| {
            let mut c = ctx.cas_u32(self.word, 0, 1);
            if c == 0 {
                return;
            }
            if c != 2 {
                c = ctx.swap_u32(self.word, 2);
            }
            while c != 0 {
                let _ = ctx.futex_wait(self.word, 2);
                c = ctx.swap_u32(self.word, 2);
            }
        });
        ctx.record_sync_event(RaceEventKind::LockAcquire { lock: self.word });
    }

    /// Attempts to acquire without blocking; `true` on success.
    pub fn try_lock(&self, ctx: &ThreadCtx<'_>) -> bool {
        let acquired = ctx.sync_scope(|| ctx.cas_u32(self.word, 0, 1) == 0);
        if acquired {
            ctx.record_sync_event(RaceEventKind::LockAcquire { lock: self.word });
        }
        acquired
    }

    /// Releases the lock, waking one waiter if any.
    pub fn unlock(&self, ctx: &ThreadCtx<'_>) {
        ctx.record_sync_event(RaceEventKind::LockRelease { lock: self.word });
        ctx.sync_scope(|| {
            let old = ctx.swap_u32(self.word, 0);
            debug_assert!(old != 0, "unlock of unlocked DexMutex");
            if old == 2 {
                let _ = ctx.futex_wake(self.word, 1);
            }
        });
    }

    /// Runs `f` under the lock.
    pub fn with<R>(&self, ctx: &ThreadCtx<'_>, f: impl FnOnce() -> R) -> R {
        self.lock(ctx);
        let r = f();
        self.unlock(ctx);
        r
    }
}

/// A reusable barrier for a fixed party count, usable across nodes.
///
/// Generation-counting futex barrier: the last arriver resets the count,
/// bumps the generation, and wakes everyone.
#[derive(Clone, Copy, Debug)]
pub struct DexBarrier {
    parties: u32,
    count: VirtAddr,
    generation: VirtAddr,
}

impl DexBarrier {
    pub(crate) fn from_raw(parties: u32, count: VirtAddr, generation: VirtAddr) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        DexBarrier {
            parties,
            count,
            generation,
        }
    }

    /// Number of threads that must arrive to release the barrier.
    pub fn parties(&self) -> u32 {
        self.parties
    }

    /// Arrives at the barrier and blocks until all parties have arrived.
    /// Returns `true` to exactly one arriver per round (the "serial"
    /// thread, as in `pthread_barrier_wait`).
    pub fn wait(&self, ctx: &ThreadCtx<'_>) -> bool {
        ctx.sync_scope(|| {
            let gen = ctx.read_u32(self.generation);
            ctx.record_sync_event(RaceEventKind::BarrierEnter {
                barrier: self.generation,
                generation: gen,
            });
            let arrived = ctx.fetch_add_u32(self.count, 1) + 1;
            let serial = if arrived == self.parties {
                ctx.write_u32(self.count, 0);
                ctx.fetch_add_u32(self.generation, 1);
                let _ = ctx.futex_wake(self.generation, u32::MAX);
                true
            } else {
                while ctx.read_u32(self.generation) == gen {
                    let _ = ctx.futex_wait(self.generation, gen);
                }
                false
            };
            ctx.record_sync_event(RaceEventKind::BarrierLeave {
                barrier: self.generation,
                generation: gen,
            });
            serial
        })
    }
}

/// A condition variable over a [`DexMutex`].
#[derive(Clone, Copy, Debug)]
pub struct DexCondvar {
    seq: VirtAddr,
}

impl DexCondvar {
    pub(crate) fn from_raw(seq: VirtAddr) -> Self {
        DexCondvar { seq }
    }

    /// Atomically releases `mutex` and blocks until notified, then
    /// reacquires the mutex. Like POSIX, spurious wakeups are possible:
    /// callers re-check their predicate in a loop.
    pub fn wait(&self, ctx: &ThreadCtx<'_>, mutex: &DexMutex) {
        let seq = ctx.sync_scope(|| ctx.read_u32(self.seq));
        mutex.unlock(ctx);
        let woken = ctx.sync_scope(|| ctx.futex_wait_woken(self.seq, seq));
        if let Ok(waker) = woken {
            ctx.record_sync_event(RaceEventKind::FutexWaitReturn {
                addr: self.seq,
                waker,
            });
        }
        mutex.lock(ctx);
    }

    /// Wakes one waiter.
    pub fn notify_one(&self, ctx: &ThreadCtx<'_>) {
        ctx.record_sync_event(RaceEventKind::FutexWake { addr: self.seq });
        ctx.sync_scope(|| {
            ctx.fetch_add_u32(self.seq, 1);
            let _ = ctx.futex_wake(self.seq, 1);
        });
    }

    /// Wakes all waiters.
    pub fn notify_all(&self, ctx: &ThreadCtx<'_>) {
        ctx.record_sync_event(RaceEventKind::FutexWake { addr: self.seq });
        ctx.sync_scope(|| {
            ctx.fetch_add_u32(self.seq, 1);
            let _ = ctx.futex_wake(self.seq, u32::MAX);
        });
    }
}

/// A readers–writer lock over a distributed futex word: any number of
/// concurrent readers, or one writer, across all nodes.
///
/// The word holds the reader count, or [`DexRwLock::WRITER`] while a
/// writer owns the lock. Contended paths sleep on the delegated futex, so
/// waiting threads cost nothing at their node.
#[derive(Clone, Copy, Debug)]
pub struct DexRwLock {
    word: VirtAddr,
}

impl DexRwLock {
    /// Sentinel state: a writer holds the lock.
    pub const WRITER: u32 = u32::MAX;

    pub(crate) fn from_raw(word: VirtAddr) -> Self {
        DexRwLock { word }
    }

    /// Acquires shared (read) access.
    ///
    /// For race detection the rwlock is recorded as a plain lock
    /// acquire/release — a deliberate over-approximation (reader–reader
    /// sections appear ordered), erring towards missed reports rather
    /// than false positives.
    pub fn read_lock(&self, ctx: &ThreadCtx<'_>) {
        ctx.sync_scope(|| loop {
            let v = ctx.read_u32(self.word);
            if v == Self::WRITER {
                let _ = ctx.futex_wait(self.word, Self::WRITER);
                continue;
            }
            if ctx.cas_u32(self.word, v, v + 1) == v {
                return;
            }
        });
        ctx.record_sync_event(RaceEventKind::LockAcquire { lock: self.word });
    }

    /// Releases shared access, waking a waiting writer when the last
    /// reader leaves.
    pub fn read_unlock(&self, ctx: &ThreadCtx<'_>) {
        ctx.record_sync_event(RaceEventKind::LockRelease { lock: self.word });
        ctx.sync_scope(|| {
            let mut left = 0u32;
            ctx.rmw_bytes(self.word, 4, |b| {
                let v = u32::from_le_bytes(b.try_into().expect("4 bytes"));
                debug_assert!(v != 0 && v != Self::WRITER, "read_unlock without read lock");
                left = v - 1;
                b.copy_from_slice(&left.to_le_bytes());
            });
            if left == 0 {
                let _ = ctx.futex_wake(self.word, 1);
            }
        });
    }

    /// Acquires exclusive (write) access.
    pub fn write_lock(&self, ctx: &ThreadCtx<'_>) {
        ctx.sync_scope(|| loop {
            if ctx.cas_u32(self.word, 0, Self::WRITER) == 0 {
                return;
            }
            let v = ctx.read_u32(self.word);
            if v != 0 {
                let _ = ctx.futex_wait(self.word, v);
            }
        });
        ctx.record_sync_event(RaceEventKind::LockAcquire { lock: self.word });
    }

    /// Releases exclusive access, waking all waiters.
    pub fn write_unlock(&self, ctx: &ThreadCtx<'_>) {
        ctx.record_sync_event(RaceEventKind::LockRelease { lock: self.word });
        ctx.sync_scope(|| {
            let old = ctx.swap_u32(self.word, 0);
            debug_assert_eq!(old, Self::WRITER, "write_unlock without write lock");
            let _ = ctx.futex_wake(self.word, u32::MAX);
        });
    }

    /// Runs `f` under shared access.
    pub fn with_read<R>(&self, ctx: &ThreadCtx<'_>, f: impl FnOnce() -> R) -> R {
        self.read_lock(ctx);
        let r = f();
        self.read_unlock(ctx);
        r
    }

    /// Runs `f` under exclusive access.
    pub fn with_write<R>(&self, ctx: &ThreadCtx<'_>, f: impl FnOnce() -> R) -> R {
        self.write_lock(ctx);
        let r = f();
        self.write_unlock(ctx);
        r
    }
}

/// Constructors live on the process so primitives can be created both in
/// setup code and inside running threads.
pub(crate) fn new_mutex(proc_: &impl ProcessRef, tag: &str) -> DexMutex {
    let addr = proc_.shared_ref().alloc_raw(4, 4, Some(tag));
    DexMutex::from_raw(addr)
}

pub(crate) fn new_barrier(proc_: &impl ProcessRef, parties: u32, tag: &str) -> DexBarrier {
    let shared = proc_.shared_ref();
    let count = shared.alloc_raw(4, 4, Some(&format!("{tag}.count")));
    let generation = shared.alloc_raw(4, 4, Some(&format!("{tag}.generation")));
    DexBarrier::from_raw(parties, count, generation)
}

pub(crate) fn new_condvar(proc_: &impl ProcessRef, tag: &str) -> DexCondvar {
    let seq = proc_.shared_ref().alloc_raw(4, 4, Some(tag));
    DexCondvar::from_raw(seq)
}

pub(crate) fn new_rwlock(proc_: &impl ProcessRef, tag: &str) -> DexRwLock {
    let word = proc_.shared_ref().alloc_raw(4, 4, Some(tag));
    DexRwLock::from_raw(word)
}
