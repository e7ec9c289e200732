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
/// caller in virtual time until the holder releases it. It guards no value:
/// what it serializes is the critical section itself (a post, an MPI
/// progress call).
#[derive(Clone)]
pub struct SimMutex {
    inner: Arc<MutexInner>,
}

struct MutexInner {
    state: Mutex<LockState>,
    gate: Gate<()>,
}

struct LockState {
    held: bool,
    waiters: usize,
}

/// RAII guard for [`SimMutex`]; releases the lock on drop.
pub struct SimMutexGuard<'a> {
    mutex: &'a SimMutex,
}

impl SimMutex {
    /// Creates a free mutex. `handoff_latency` is the virtual time between
    /// a release and a blocked waiter resuming.
    pub fn new(kernel: &Kernel, handoff_latency: SimDuration) -> Self {
        SimMutex {
            inner: Arc::new(MutexInner {
                state: Mutex::new(LockState {
                    held: false,
                    waiters: 0,
                }),
                gate: Gate::new(kernel, handoff_latency),
            }),
        }
    }

    /// Acquires the lock, blocking in virtual time while it is held.
    pub fn lock(&self, ctx: &SimContext) -> SimMutexGuard<'_> {
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

impl Drop for SimMutexGuard<'_> {
    fn drop(&mut self) {
        self.mutex.unlock();
    }
}

/// A reusable virtual-time barrier for `n` participants.
///
/// Each barrier *generation* uses a fresh internal gate, so a thread that
/// has already advanced to the next generation can never consume a release
/// token intended for a straggler of the previous one. The parked parties
/// wake `wake_latency` after the last arrival.
///
/// A barrier whose parties can fail is *abortable*: they wait with
/// [`wait_timeout`](SimBarrier::wait_timeout), and one that gives up calls
/// [`abort`](SimBarrier::abort), which releases every parked party with an
/// error instead of leaving the survivors parked forever.
pub struct SimBarrier {
    inner: Arc<BarrierInner>,
    kernel: Kernel,
}

struct BarrierInner {
    state: Mutex<BarrierState>,
    parties: usize,
    wake_latency: SimDuration,
}

struct BarrierState {
    arrived: usize,
    gate: Gate<()>,
    aborted: bool,
}

/// Why [`SimBarrier::wait_timeout`] returned without its generation
/// completing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BarrierError {
    /// The barrier was aborted, before or during the wait.
    Aborted,
    /// The wait outlasted its timeout; the barrier is aborted.
    TimedOut,
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
    /// Creates a barrier for `parties` threads whose parked parties wake
    /// `wake_latency` after the last arrival.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(kernel: &Kernel, parties: usize, wake_latency: SimDuration) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        SimBarrier {
            inner: Arc::new(BarrierInner {
                state: Mutex::new(BarrierState {
                    arrived: 0,
                    gate: Gate::new(kernel, wake_latency),
                    aborted: false,
                }),
                parties,
                wake_latency,
            }),
            kernel: kernel.clone(),
        }
    }

    /// Threads expected at every generation.
    pub fn parties(&self) -> usize {
        self.inner.parties
    }

    /// Counts the caller in. The last arrival of a generation releases
    /// the others and gets `None`; everyone else gets the gate to park on.
    fn arrive(&self) -> Option<Gate<()>> {
        let mut st = self.inner.state.lock();
        st.arrived += 1;
        if st.arrived < self.inner.parties {
            return Some(st.gate.clone());
        }
        st.arrived = 0;
        // Swap in a fresh gate for the next generation; release tokens go
        // into the old one, which only this generation's waiters hold.
        let fresh = Gate::new(&self.kernel, self.inner.wake_latency);
        let old = std::mem::replace(&mut st.gate, fresh);
        drop(st);
        for _ in 1..self.inner.parties {
            old.push(());
        }
        None
    }

    /// Blocks until all parties have arrived. Returns `true` for exactly one
    /// caller (the last to arrive), mirroring `std::sync::Barrier`; fails
    /// at once on an aborted barrier, and when the barrier is aborted
    /// while the caller is parked.
    pub fn wait(&self, ctx: &SimContext) -> Result<bool, BarrierError> {
        self.cross(|gate| {
            gate.recv(ctx);
            Ok(())
        })
    }

    /// [`wait`](SimBarrier::wait), aborting the barrier for everyone when
    /// the caller is parked longer than `timeout`.
    pub fn wait_timeout(
        &self,
        ctx: &SimContext,
        timeout: SimDuration,
    ) -> Result<bool, BarrierError> {
        self.cross(|gate| {
            let deadline = ctx.now() + timeout;
            while gate.try_recv().is_none() {
                if !ctx.wait_any(&[&gate], Some(deadline)) {
                    self.abort();
                    return Err(BarrierError::TimedOut);
                }
            }
            Ok(())
        })
    }

    /// Arrives and, unless last, parks on the generation's gate through
    /// `park`; an abort before or during the wait is an error.
    fn cross(
        &self,
        park: impl FnOnce(Gate<()>) -> Result<(), BarrierError>,
    ) -> Result<bool, BarrierError> {
        if self.is_aborted() {
            return Err(BarrierError::Aborted);
        }
        let last = match self.arrive() {
            None => true,
            Some(gate) => {
                park(gate)?;
                false
            }
        };
        if self.is_aborted() {
            return Err(BarrierError::Aborted);
        }
        Ok(last)
    }

    /// Aborts the barrier: wakes every parked party with
    /// [`BarrierError::Aborted`] and fails every later one at once.
    /// Idempotent.
    pub fn abort(&self) {
        let mut st = self.inner.state.lock();
        if std::mem::replace(&mut st.aborted, true) {
            return;
        }
        for _ in 0..self.inner.parties {
            st.gate.push(());
        }
    }

    fn is_aborted(&self) -> bool {
        self.inner.state.lock().aborted
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
        let m = SimMutex::new(&kernel, SimDuration::from_nanos(50));
        kernel.spawn(0, "t", move |sim| {
            drop(m.lock(&sim));
            assert_eq!(sim.now(), SimTime::ZERO, "uncontended lock costs nothing");
        });
        kernel.run();
    }

    #[test]
    fn contended_lock_serializes_critical_sections() {
        let kernel = Kernel::new();
        let m = SimMutex::new(&kernel, SimDuration::ZERO);
        for i in 0..4u64 {
            let m = m.clone();
            kernel.spawn(0, &format!("t{i}"), move |sim| {
                let _g = m.lock(&sim);
                sim.sleep(SimDuration::from_nanos(100)); // Critical section.
            });
        }
        kernel.run();
        // All four 100ns critical sections must serialize: total 400ns.
        assert_eq!(kernel.now().as_nanos(), 400);
    }

    #[test]
    fn barrier_releases_all_at_last_arrival() {
        let kernel = Kernel::new();
        let barrier = SimBarrier::new(&kernel, 3, SimDuration::ZERO);
        let lasts = Arc::new(AtomicU64::new(0));
        for i in 0..3u64 {
            let b = barrier.clone();
            let lasts = lasts.clone();
            kernel.spawn(0, &format!("t{i}"), move |sim| {
                sim.sleep(SimDuration::from_nanos(100 * (i + 1)));
                if b.wait(&sim) == Ok(true) {
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
    fn timed_wait_wakes_the_wake_latency_after_the_last_arrival() {
        // Two generations, so the gate swapped in for the second one is
        // held to the same latency as the first.
        for wake in [0, 100] {
            let kernel = Kernel::new();
            let barrier = SimBarrier::new(&kernel, 3, SimDuration::from_nanos(wake));
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..3u64 {
                let (b, log) = (barrier.clone(), log.clone());
                kernel.spawn(0, &format!("t{i}"), move |sim| {
                    for round in 0..2 {
                        sim.sleep(SimDuration::from_nanos(10 * (i + 1)));
                        let arrived = sim.now().as_nanos();
                        let last = b.wait_timeout(&sim, SimDuration::from_micros(1));
                        log.lock()
                            .push((round, arrived, last, sim.now().as_nanos()));
                    }
                });
            }
            kernel.run();
            let log = log.lock();
            for round in 0..2 {
                let entries: Vec<_> = log.iter().filter(|e| e.0 == round).collect();
                let closed = entries.iter().map(|e| e.1).max().unwrap_or(0);
                for &&(_, arrived, last, resumed) in &entries {
                    let expected = if arrived == closed {
                        closed
                    } else {
                        closed + wake
                    };
                    assert_eq!(last, Ok(arrived == closed), "round {round}, wake {wake}");
                    assert_eq!(resumed, expected, "round {round}, wake {wake}");
                }
            }
        }
    }

    #[test]
    fn abort_wakes_every_parked_party_and_fails_later_waits() {
        let kernel = Kernel::new();
        let barrier = SimBarrier::new(&kernel, 3, SimDuration::from_nanos(100));
        let timeout = SimDuration::from_micros(10);
        // Party 0 waits plainly, party 1 with a timeout: both fail alike.
        for i in 0..2u64 {
            let b = barrier.clone();
            kernel.spawn(0, &format!("t{i}"), move |sim| {
                let wait = |b: &SimBarrier| match i {
                    0 => b.wait(&sim),
                    _ => b.wait_timeout(&sim, timeout),
                };
                assert_eq!(wait(&b), Err(BarrierError::Aborted));
                // Woken the wake latency after the abort at t=50.
                assert_eq!(sim.now().as_nanos(), 150);
                assert_eq!(wait(&b), Err(BarrierError::Aborted));
                assert_eq!(sim.now().as_nanos(), 150, "a later wait fails at once");
            });
        }
        let b = barrier.clone();
        kernel.spawn(0, "aborter", move |sim| {
            sim.sleep(SimDuration::from_nanos(50));
            b.abort();
            b.abort();
        });
        kernel.run();
        assert_eq!(kernel.now().as_nanos(), 150);
    }

    #[test]
    fn timed_out_wait_aborts_the_rest() {
        let kernel = Kernel::new();
        let barrier = SimBarrier::new(&kernel, 3, SimDuration::ZERO);
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        // Party 0 gives up after 1 µs; party 1, parked with a longer
        // timeout, is released by that abort; party 2 arrives later and
        // fails at once. The generation never completes.
        for (i, (arrive, timeout)) in [(0, 1_000), (100, 10_000), (2_000, 10_000)]
            .into_iter()
            .enumerate()
        {
            let b = barrier.clone();
            let outcomes = outcomes.clone();
            kernel.spawn(0, &format!("t{i}"), move |sim| {
                sim.sleep(SimDuration::from_nanos(arrive));
                let got = b.wait_timeout(&sim, SimDuration::from_nanos(timeout));
                outcomes.lock().push((i, got, sim.now().as_nanos()));
            });
        }
        kernel.run();
        let mut got = outcomes.lock().clone();
        got.sort_by_key(|o| o.0);
        assert_eq!(
            got,
            vec![
                (0, Err(BarrierError::TimedOut), 1_000),
                (1, Err(BarrierError::Aborted), 1_000),
                (2, Err(BarrierError::Aborted), 2_000),
            ]
        );
    }

    #[test]
    fn barrier_is_reusable() {
        let kernel = Kernel::new();
        let barrier = SimBarrier::new(&kernel, 2, SimDuration::ZERO);
        for i in 0..2u64 {
            let b = barrier.clone();
            kernel.spawn(0, &format!("t{i}"), move |sim| {
                for _ in 0..5 {
                    sim.sleep(SimDuration::from_nanos(10 * (i + 1)));
                    b.wait(&sim).expect("never aborted");
                }
            });
        }
        kernel.run();
        // Each round gated by the slower thread (20ns): 5 rounds = 100ns.
        assert_eq!(kernel.now().as_nanos(), 100);
    }
}
