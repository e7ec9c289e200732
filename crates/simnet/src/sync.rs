//! Virtual-time synchronization primitives.
//!
//! [`SimMutex`] models lock contention in virtual time: a thread that blocks
//! on a held mutex is charged the wait as idle time, and the hand-off costs a
//! configurable latency. This is how the simulator reproduces the paper's
//! observation that the single-endpoint SESQ/SR design is "bottlenecked due
//! to contention for the `ibv_post_send` function" (§5.1.3): all threads
//! sharing one endpoint serialize through one `SimMutex`.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::kernel::{Gate, Kernel, SimContext};
use crate::time::SimDuration;

/// A mutual-exclusion lock whose contention is visible on the virtual clock.
///
/// Unlike a host mutex (which is free in virtual time because only one
/// simulated thread runs at once), acquiring a held `SimMutex` blocks the
/// caller in virtual time until the holder releases it.
pub struct SimMutex<T> {
    inner: Arc<MutexInner<T>>,
    kernel: Kernel,
}

struct MutexInner<T> {
    state: Mutex<LockState>,
    gate: Gate<()>,
    value: Mutex<T>,
}

struct LockState {
    held: bool,
    waiters: usize,
}

impl<T> Clone for SimMutex<T> {
    fn clone(&self) -> Self {
        SimMutex {
            inner: self.inner.clone(),
            kernel: self.kernel.clone(),
        }
    }
}

/// RAII guard for [`SimMutex`]; releases the lock on drop.
pub struct SimMutexGuard<'a, T> {
    mutex: &'a SimMutex<T>,
}

impl<T: Send + 'static> SimMutex<T> {
    /// Creates a mutex around `value`. `handoff_latency` is the virtual time
    /// between a release and a blocked waiter resuming.
    pub fn new(kernel: &Kernel, value: T, handoff_latency: SimDuration) -> Self {
        SimMutex {
            inner: Arc::new(MutexInner {
                state: Mutex::new(LockState {
                    held: false,
                    waiters: 0,
                }),
                gate: Gate::new(kernel, handoff_latency),
                value: Mutex::new(value),
            }),
            kernel: kernel.clone(),
        }
    }

    /// Acquires the lock, blocking in virtual time while it is held.
    pub fn lock(&self, ctx: &SimContext) -> SimMutexGuard<'_, T> {
        loop {
            {
                let mut st = self.inner.state.lock();
                if !st.held {
                    st.held = true;
                    return SimMutexGuard { mutex: self };
                }
                st.waiters += 1;
            }
            // Wait for a release token, then retry (another thread may race
            // us to the lock; the loop keeps the protocol correct).
            self.inner.gate.recv(ctx);
            self.inner.state.lock().waiters -= 1;
        }
    }
}

impl<T> SimMutex<T> {
    fn unlock(&self) {
        let has_waiters = {
            let mut st = self.inner.state.lock();
            debug_assert!(st.held, "unlock of a free SimMutex");
            st.held = false;
            st.waiters > 0
        };
        if has_waiters {
            self.inner.gate.push(());
        }
    }
}

impl<T> SimMutexGuard<'_, T> {
    /// Accesses the protected value.
    ///
    /// The closure receives a `&mut T`; the host-level lock is held only for
    /// the duration of the closure, which is safe because the guard already
    /// guarantees exclusivity in virtual time.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.mutex.inner.value.lock())
    }
}

impl<T> Drop for SimMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.unlock();
    }
}

/// A reusable virtual-time barrier for `n` participants.
///
/// Each barrier *generation* uses a fresh internal gate, so a thread that
/// has already advanced to the next generation can never consume a release
/// token intended for a straggler of the previous one.
pub struct SimBarrier {
    inner: Arc<BarrierInner>,
    kernel: Kernel,
}

struct BarrierInner {
    state: Mutex<BarrierState>,
    parties: usize,
}

struct BarrierState {
    arrived: usize,
    gate: Gate<()>,
}

impl Clone for SimBarrier {
    fn clone(&self) -> Self {
        SimBarrier {
            inner: self.inner.clone(),
            kernel: self.kernel.clone(),
        }
    }
}

impl SimBarrier {
    /// Creates a barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(kernel: &Kernel, parties: usize) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        SimBarrier {
            inner: Arc::new(BarrierInner {
                state: Mutex::new(BarrierState {
                    arrived: 0,
                    gate: Gate::new(kernel, SimDuration::ZERO),
                }),
                parties,
            }),
            kernel: kernel.clone(),
        }
    }

    /// Blocks until all parties have arrived. Returns `true` for exactly one
    /// caller (the last to arrive), mirroring `std::sync::Barrier`.
    pub fn wait(&self, ctx: &SimContext) -> bool {
        let (is_last, gate) = {
            let mut st = self.inner.state.lock();
            st.arrived += 1;
            if st.arrived == self.inner.parties {
                st.arrived = 0;
                // Swap in a fresh gate for the next generation; release
                // tokens go into the old one, which only this generation's
                // waiters hold.
                let old =
                    std::mem::replace(&mut st.gate, Gate::new(&self.kernel, SimDuration::ZERO));
                (true, old)
            } else {
                (false, st.gate.clone())
            }
        };
        if is_last {
            for _ in 0..self.inner.parties - 1 {
                gate.push(());
            }
            true
        } else {
            gate.recv(ctx);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn uncontended_lock_is_free() {
        let kernel = Kernel::new();
        let m = SimMutex::new(&kernel, 0u64, SimDuration::from_nanos(50));
        kernel.spawn(0, "t", move |sim| {
            let g = m.lock(&sim);
            g.with(|v| *v += 1);
            drop(g);
            assert_eq!(sim.now(), SimTime::ZERO, "uncontended lock costs nothing");
        });
        kernel.run();
    }

    #[test]
    fn contended_lock_serializes_critical_sections() {
        let kernel = Kernel::new();
        let m = SimMutex::new(&kernel, Vec::<u64>::new(), SimDuration::ZERO);
        for i in 0..4u64 {
            let m = m.clone();
            kernel.spawn(0, &format!("t{i}"), move |sim| {
                let g = m.lock(&sim);
                sim.sleep(SimDuration::from_nanos(100)); // Critical section.
                g.with(|v| v.push(i));
            });
        }
        kernel.run();
        // All four 100ns critical sections must serialize: total 400ns.
        assert_eq!(kernel.now().as_nanos(), 400);
    }

    #[test]
    fn barrier_releases_all_at_last_arrival() {
        let kernel = Kernel::new();
        let barrier = SimBarrier::new(&kernel, 3);
        let lasts = Arc::new(AtomicU64::new(0));
        for i in 0..3u64 {
            let b = barrier.clone();
            let lasts = lasts.clone();
            kernel.spawn(0, &format!("t{i}"), move |sim| {
                sim.sleep(SimDuration::from_nanos(100 * (i + 1)));
                if b.wait(&sim) {
                    lasts.fetch_add(1, Ordering::SeqCst);
                }
                // Everyone resumes at the last arrival time (t=300).
                assert_eq!(sim.now().as_nanos(), 300);
            });
        }
        kernel.run();
        assert_eq!(lasts.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn barrier_is_reusable() {
        let kernel = Kernel::new();
        let barrier = SimBarrier::new(&kernel, 2);
        for i in 0..2u64 {
            let b = barrier.clone();
            kernel.spawn(0, &format!("t{i}"), move |sim| {
                for round in 0..5u64 {
                    sim.sleep(SimDuration::from_nanos(10 * (i + 1)));
                    b.wait(&sim);
                    let _ = round;
                }
            });
        }
        kernel.run();
        // Each round gated by the slower thread (20ns): 5 rounds = 100ns.
        assert_eq!(kernel.now().as_nanos(), 100);
    }
}
