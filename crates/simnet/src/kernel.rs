//! The cooperative virtual-time kernel.
//!
//! Every simulated thread is a *fiber* — a closure with a private,
//! lazily-backed stack (the private `fiber` module) — and all of them run on the one
//! host thread that calls [`Kernel::run`]. `run` is the scheduler loop: it
//! always continues the runnable entity (thread or scheduled event) with
//! the minimum virtual timestamp, breaking ties deterministically (events
//! before threads, then by sequence/thread id), and a hand-off between two
//! simulated threads is a register swap, not a host context switch. The
//! schedule is a pure function of the kernel's own queues, so timing never
//! depends on the host scheduler and simulations are reproducible
//! bit-for-bit.
//!
//! Threads advance time explicitly:
//! * [`SimContext::sleep`] models CPU work (accounted as busy time),
//! * [`Gate`] is a virtual-time channel: receivers block without consuming
//!   virtual time (accounted as idle time) until a value is pushed.
//!
//! Two invariants callers rely on, and must keep:
//! * **Never hold a host lock across `sleep` / `recv`.** The next
//!   simulated thread to want that lock runs on the same host thread and
//!   would wait for itself.
//! * **Event actions run on `run`'s stack, between threads, and must not
//!   block** (no `sleep`, no `recv`); they may schedule events and push to
//!   gates.
//!
//! The kernel detects global deadlock (every thread blocked, no pending
//! events) and panics with a diagnostic listing the blocked threads, which
//! turns protocol termination bugs into immediate test failures. After a
//! panic or a deadlock every remaining thread is unwound through its own
//! frames before `run` re-raises, so locals of blocked threads are dropped.
//!
//! Supported target: x86_64 Linux (the `fiber` module says what a port
//! takes). Independent kernels may run concurrently on different host
//! threads.

use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use rshuffle_obs::{names, EventKind, Labels, Obs};

use crate::fiber::{self, Fiber};
use crate::time::{SimDuration, SimTime};
use crate::NodeId;

/// Identifier of a simulated thread, unique within a [`Kernel`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SimThreadId(u64);

impl SimThreadId {
    /// The thread's spawn index (0-based). Flight-recorder tracks use
    /// `index + 1` as their `tid` (tid 0 is the per-node hardware track).
    pub fn index(&self) -> u64 {
        self.0
    }

    /// The flight-recorder track id for this thread.
    pub fn track(&self) -> u32 {
        (self.0 + 1) as u32
    }
}

/// Result of a [`Gate::recv_timeout`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeout<T> {
    /// A value arrived before the deadline.
    Value(T),
    /// The deadline passed with no value available.
    TimedOut,
}

impl<T> RecvTimeout<T> {
    /// Returns the contained value.
    ///
    /// # Panics
    ///
    /// Panics if the receive timed out.
    pub fn unwrap(self) -> T {
        match self {
            RecvTimeout::Value(v) => v,
            RecvTimeout::TimedOut => panic!("called unwrap() on RecvTimeout::TimedOut"),
        }
    }
}

/// Post-mortem statistics for one simulated thread.
#[derive(Clone, Debug)]
pub struct ThreadStats {
    /// Thread name given at spawn time.
    pub name: String,
    /// Node the thread was pinned to.
    pub node: NodeId,
    /// Virtual time spent in [`SimContext::sleep`] (modelled CPU work).
    pub busy: SimDuration,
    /// Virtual time spent blocked on gates.
    pub idle: SimDuration,
    /// Virtual time at which the thread function returned.
    pub finished_at: SimTime,
}

struct Slot {
    /// `Some(t)`: runnable at virtual time `t`. `None`: running or blocked.
    resume_at: Option<SimTime>,
    /// The thread's fiber while it is suspended or not yet started; `None`
    /// while it runs (the scheduler loop in [`Kernel::run`] holds it).
    fiber: Option<Fiber>,
    name: String,
    node: NodeId,
    spawned_at: SimTime,
    busy: SimDuration,
    idle: SimDuration,
}

struct EventEntry {
    at: SimTime,
    seq: u64,
    action: Box<dyn FnOnce() + Send>,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    /// Total order on events: earliest `(at, seq)` first. The sequence
    /// number is assigned monotonically by [`Kernel::schedule`], so two
    /// events at the same virtual instant always fire in the order they
    /// were scheduled — never in heap-insertion or hash order. This
    /// explicit tie-break is what makes event dispatch deterministic.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct State {
    now: SimTime,
    next_seq: u64,
    running: Option<SimThreadId>,
    /// Indexed by spawn index; `None` once the thread has retired.
    threads: Vec<Option<Slot>>,
    runnable: BTreeSet<(SimTime, SimThreadId)>,
    events: BinaryHeap<EventEntry>,
    /// A host thread is inside [`Kernel::run`].
    in_run: bool,
    poisoned: Option<String>,
    stats: Vec<ThreadStats>,
    obs: Option<Arc<Obs>>,
    /// Straggler injection: CPU-work multiplier per node (absent = 1.0).
    cpu_slowdown: HashMap<NodeId, f64>,
}

impl State {
    fn slot(&mut self, tid: SimThreadId) -> &mut Slot {
        self.threads[tid.0 as usize]
            .as_mut()
            .expect("a scheduled thread has not retired")
    }

    fn push_event(&mut self, at: SimTime, action: Box<dyn FnOnce() + Send>) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(EventEntry { at, seq, action });
    }

    /// Whether an event or another thread is due before `me` would run
    /// again at `at`: events fire first at equal times, threads in id
    /// order. When nothing is, `me` is itself the scheduler's next pick
    /// and may simply keep running.
    fn due_before(&self, at: SimTime, me: SimThreadId) -> bool {
        self.events.peek().is_some_and(|e| e.at <= at)
            || self.runnable.first().is_some_and(|&next| next < (at, me))
    }

    /// Makes a blocked thread runnable at `at` (or earlier if it already has
    /// an earlier wakeup). No-op for the currently running thread.
    fn wake(&mut self, tid: SimThreadId, at: SimTime) {
        if self.running == Some(tid) {
            return;
        }
        let Some(Some(slot)) = self.threads.get_mut(tid.0 as usize) else {
            return;
        };
        match slot.resume_at {
            Some(existing) if existing <= at => {}
            Some(existing) => {
                slot.resume_at = Some(at);
                self.runnable.remove(&(existing, tid));
                self.runnable.insert((at, tid));
            }
            None => {
                slot.resume_at = Some(at);
                self.runnable.insert((at, tid));
            }
        }
    }

    /// Panics unless `me` is the thread the scheduler last switched to
    /// and the simulation is healthy.
    fn check_running(&self, me: SimThreadId) {
        if self.poisoned.is_some() {
            // Unwinds through the simulated thread's own frames; its
            // wrapper retires it without re-poisoning.
            panic!("simulation poisoned (another thread panicked or deadlock detected)");
        }
        assert_eq!(
            self.running,
            Some(me),
            "a SimContext was used outside its own simulated thread"
        );
    }
}

/// Handle to a virtual-time simulation kernel. Cheap to clone.
#[derive(Clone)]
pub struct Kernel {
    state: Arc<Mutex<State>>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Creates a new kernel with the clock at zero.
    pub fn new() -> Self {
        Kernel {
            state: Arc::new(Mutex::new(State {
                now: SimTime::ZERO,
                next_seq: 0,
                running: None,
                threads: Vec::new(),
                runnable: BTreeSet::new(),
                events: BinaryHeap::new(),
                in_run: false,
                poisoned: None,
                stats: Vec::new(),
                obs: None,
                cpu_slowdown: HashMap::new(),
            })),
        }
    }

    /// Current virtual time. Callable from anywhere.
    pub fn now(&self) -> SimTime {
        self.state.lock().now
    }

    /// Attaches the shared observability context. Thread spawns and
    /// retirements are recorded into it from then on (call before the
    /// workload starts for complete coverage).
    pub fn set_obs(&self, obs: Arc<Obs>) {
        self.state.lock().obs = Some(obs);
    }

    /// The attached observability context, if any.
    pub fn obs(&self) -> Option<Arc<Obs>> {
        self.state.lock().obs.clone()
    }

    /// Sets the straggler factor for `node`: every subsequent
    /// [`SimContext::sleep`] on that node takes `factor`× as long. A
    /// factor of 1.0 removes the slowdown. Deterministic: the scaling is
    /// pure integer-rounded arithmetic on the virtual clock.
    pub fn set_cpu_slowdown(&self, node: NodeId, factor: f64) {
        let mut st = self.state.lock();
        if factor == 1.0 {
            st.cpu_slowdown.remove(&node);
        } else {
            st.cpu_slowdown.insert(node, factor.max(0.0));
        }
    }

    /// Spawns a simulated thread pinned to `node`, runnable at the current
    /// virtual time. Returns its id.
    ///
    /// May be called before [`Kernel::run`] or from inside another simulated
    /// thread. The thread gets a private stack; `f` first runs when
    /// [`Kernel::run`] reaches it, on the host thread that called `run`.
    ///
    /// # Panics
    ///
    /// Panics if the stack cannot be mapped.
    pub fn spawn<F>(&self, node: NodeId, name: &str, f: F) -> SimThreadId
    where
        F: FnOnce(SimContext) + Send + 'static,
    {
        let mut st = self.state.lock();
        let tid = SimThreadId(st.threads.len() as u64);
        // Weak: a fiber waiting in `State` must not keep `State` alive. It
        // only ever runs inside `run`, which borrows a live handle.
        let state = Arc::downgrade(&self.state);
        let fiber = Fiber::new(move || {
            let state = state.upgrade().expect("fibers run inside Kernel::run");
            Kernel { state }.thread_main(tid, node, f);
        });
        let start_at = st.now;
        st.threads.push(Some(Slot {
            resume_at: Some(start_at),
            fiber: Some(fiber),
            name: name.to_string(),
            node,
            spawned_at: start_at,
            busy: SimDuration::ZERO,
            idle: SimDuration::ZERO,
        }));
        st.runnable.insert((start_at, tid));
        if let Some(obs) = &st.obs {
            obs.recorder.name_track(node as u32, tid.track(), name);
        }
        tid
    }

    /// Body of every fiber: runs `f`, turns a panic into poison, retires.
    /// Everything owned here is gone when it returns — the fiber's last
    /// frame is abandoned, not unwound.
    fn thread_main<F>(&self, tid: SimThreadId, node: NodeId, f: F)
    where
        F: FnOnce(SimContext) + Send,
    {
        let ctx = SimContext {
            kernel: self.clone(),
            id: tid,
            node,
        };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(move || f(ctx))) {
            // `&*payload` unsizes to the payload itself; `&payload` would
            // wrap the Box and break the downcasts.
            let msg = payload_to_string(&*payload);
            let mut st = self.state.lock();
            if st.poisoned.is_none() {
                st.poisoned = Some(format!("simulated thread panicked: {msg}"));
            }
        }
        let parked = self.retire(tid);
        debug_assert!(
            parked.is_none(),
            "a running thread's fiber is not in its slot"
        );
    }

    /// Removes a finished thread and records its stats. Returns the
    /// thread's fiber if it was still parked in its slot (a thread that
    /// never started).
    fn retire(&self, tid: SimThreadId) -> Option<Fiber> {
        let mut st = self.state.lock();
        let slot = st.threads[tid.0 as usize].take()?;
        if let Some(t) = slot.resume_at {
            st.runnable.remove(&(t, tid));
        }
        if st.running == Some(tid) {
            st.running = None;
        }
        let finished_at = st.now;
        if let Some(obs) = &st.obs {
            let node = slot.node as u32;
            let labels = Labels::node(node);
            obs.metrics
                .counter(names::KERNEL_BUSY_NS, labels)
                .add(slot.busy.as_nanos());
            obs.metrics
                .counter(names::KERNEL_IDLE_NS, labels)
                .add(slot.idle.as_nanos());
            obs.metrics
                .counter(names::KERNEL_THREADS_FINISHED, labels)
                .inc();
            obs.recorder.span(
                node,
                tid.track(),
                &slot.name,
                slot.spawned_at.as_nanos(),
                finished_at.as_nanos(),
            );
            obs.recorder.event(
                node,
                tid.track(),
                finished_at.as_nanos(),
                EventKind::ThreadFinished,
                slot.busy.as_nanos(),
            );
        }
        st.stats.push(ThreadStats {
            name: slot.name,
            node: slot.node,
            busy: slot.busy,
            idle: slot.idle,
            finished_at,
        });
        slot.fiber
    }

    /// Schedules `action` to run at virtual time `at` (clamped to `now`).
    ///
    /// Actions run on the stack of [`Kernel::run`], between simulated
    /// threads; they may schedule further events and push to gates, but
    /// must not block.
    pub fn schedule<F>(&self, at: SimTime, action: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.state.lock().push_event(at, Box::new(action));
    }

    /// Schedules `action` to run `delay` after the current virtual time.
    pub fn schedule_in<F>(&self, delay: SimDuration, action: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let mut st = self.state.lock();
        let at = st.now + delay;
        st.push_event(at, Box::new(action));
    }

    /// Runs the simulation to completion on the calling (host) thread:
    /// returns when every simulated thread has finished and the event
    /// queue is empty.
    ///
    /// This is the scheduler loop. It repeatedly picks the entity with the
    /// minimum virtual timestamp — the `(time, seq)`-least event, or the
    /// `(time, tid)`-least runnable thread when no event is due at or
    /// before its time — runs event actions inline, and switches into a
    /// thread's fiber until that thread blocks, sleeps past another
    /// entity, or finishes.
    ///
    /// # Panics
    ///
    /// Panics if any simulated thread or event action panicked or a
    /// global deadlock was detected (every thread blocked with no pending
    /// event), after unwinding every remaining thread; and if `run` is
    /// already active on this kernel.
    pub fn run(&self) {
        let mut st = self.state.lock();
        assert!(!st.in_run, "Kernel::run is already active on this kernel");
        st.in_run = true;
        // Scratch buffer for same-instant event batches; reused across loop
        // iterations so a long event cascade allocates once.
        let mut batch: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        while st.poisoned.is_none() {
            let next_thread = st.runnable.first().copied();
            // An event goes first when it is due at or before the thread.
            let next_event_at = st
                .events
                .peek()
                .map(|e| e.at)
                .filter(|&ev_at| next_thread.is_none_or(|(t, _)| ev_at <= t));
            if let Some(ev_at) = next_event_at {
                debug_assert!(ev_at >= st.now, "event scheduled in the past");
                st.now = ev_at;
                // Drain every event due at this instant in one lock
                // cycle. BinaryHeap pop yields them in (at, seq) order,
                // so the batch preserves schedule order; actions that
                // schedule *new* events at the same instant get a higher
                // seq and are picked up on the next loop iteration —
                // identical semantics to popping one event per cycle,
                // but one lock round-trip per instant instead of per
                // event (the hot path at 512 nodes).
                while st.events.peek().is_some_and(|e| e.at == ev_at) {
                    let entry = st.events.pop().expect("peeked event must exist");
                    batch.push(entry.action);
                }
                drop(st);
                // A panicking action must not unwind through this loop
                // while fibers are suspended: poison instead, so they
                // are unwound below.
                let fired = panic::catch_unwind(AssertUnwindSafe(|| {
                    for action in batch.drain(..) {
                        action();
                    }
                }));
                st = self.state.lock();
                if let Err(payload) = fired {
                    let msg = payload_to_string(&*payload);
                    st.poisoned
                        .get_or_insert(format!("event action panicked: {msg}"));
                }
            } else if let Some((t, tid)) = next_thread {
                st.runnable.pop_first();
                debug_assert!(t >= st.now, "thread scheduled in the past");
                st.now = t;
                st = self.switch_to(st, tid);
            } else {
                let blocked: Vec<String> = st
                    .threads
                    .iter()
                    .flatten()
                    .map(|s| format!("{} (node {})", s.name, s.node))
                    .collect();
                if blocked.is_empty() {
                    break;
                }
                // Threads exist but none is runnable and no event is
                // pending: global deadlock.
                st.poisoned = Some(format!(
                    "virtual-time deadlock at {:?}: {} thread(s) blocked with no pending \
                     events: [{}]",
                    st.now,
                    blocked.len(),
                    blocked.join(", ")
                ));
            }
        }
        if st.poisoned.is_some() {
            st = self.unwind_all(st);
        }
        st.in_run = false;
        let poisoned = st.poisoned.clone();
        drop(st);
        if let Some(msg) = poisoned {
            panic!("{msg}");
        }
    }

    /// Marks `tid` running and switches into its fiber with the state lock
    /// released (a guard parked across the switch would deadlock the one
    /// host thread). Back on this stack, parks the fiber in its slot again
    /// or, if the thread finished, frees its stack.
    fn switch_to<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        tid: SimThreadId,
    ) -> MutexGuard<'a, State> {
        st.running = Some(tid);
        let slot = st.slot(tid);
        slot.resume_at = None;
        let mut fiber = slot.fiber.take().expect("a parked thread holds its fiber");
        drop(st);
        let finished = fiber.resume();
        let mut st = self.state.lock();
        if !finished {
            st.slot(tid).fiber = Some(fiber);
        }
        st
    }

    /// After a panic or a detected deadlock: resumes every started thread
    /// once so that it unwinds through its own frames (a poisoned kernel
    /// refuses to suspend it again, so it runs to its end), and retires
    /// every thread that never started, dropping its closure unrun. Leaves
    /// no fiber behind, then drops the pending events.
    fn unwind_all<'a>(&'a self, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        // By index: unwinding threads may still spawn.
        let mut i = 0;
        while i < st.threads.len() {
            let tid = SimThreadId(i as u64);
            i += 1;
            let Some(slot) = &st.threads[tid.0 as usize] else {
                continue;
            };
            if slot.fiber.as_ref().is_some_and(Fiber::started) {
                if let Some(t) = slot.resume_at {
                    st.runnable.remove(&(t, tid));
                }
                st = self.switch_to(st, tid);
                debug_assert!(st.threads[tid.0 as usize].is_none());
            } else {
                // The closure may own handles whose drop takes the lock.
                drop(st);
                drop(self.retire(tid));
                st = self.state.lock();
            }
        }
        let events = std::mem::take(&mut st.events);
        drop(st);
        drop(events);
        self.state.lock()
    }

    /// Returns statistics for all threads that have finished so far.
    pub fn stats(&self) -> Vec<ThreadStats> {
        self.state.lock().stats.clone()
    }

    /// Makes the calling thread runnable again at `at` and lets everything
    /// due before it run first. Returns when the thread is dispatched
    /// (virtual time == `at`). When the caller is itself the next entity
    /// the scheduler would pick, the clock just advances and no switch
    /// happens.
    fn yield_until(&self, mut st: MutexGuard<'_, State>, me: SimThreadId, at: SimTime) {
        debug_assert!(at >= st.now);
        if !st.due_before(at, me) {
            st.now = at;
            return;
        }
        st.slot(me).resume_at = Some(at);
        st.runnable.insert((at, me));
        st.running = None;
        drop(st);
        fiber::suspend();
        self.state.lock().check_running(me);
    }

    /// Blocks the calling thread with no wakeup time (a gate push must wake
    /// it). `deadline`, if given, acts as a timed wakeup. The wait is
    /// accounted as idle time.
    fn block_me<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        me: SimThreadId,
        deadline: Option<SimTime>,
    ) {
        let wait_start = st.now;
        match deadline {
            Some(d) if !st.due_before(d, me) => st.now = d,
            _ => {
                st.slot(me).resume_at = deadline;
                if let Some(d) = deadline {
                    st.runnable.insert((d, me));
                }
                st.running = None;
                drop(st);
                fiber::suspend();
                st = self.state.lock();
                st.check_running(me);
            }
        }
        let now = st.now;
        st.slot(me).idle += now.duration_since(wait_start);
    }
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Per-thread handle passed to the closure given to [`Kernel::spawn`].
#[derive(Clone)]
pub struct SimContext {
    kernel: Kernel,
    id: SimThreadId,
    node: NodeId,
}

impl SimContext {
    /// The kernel this thread belongs to.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// This thread's id.
    pub fn id(&self) -> SimThreadId {
        self.id
    }

    /// The node this thread is pinned to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Advances this thread's clock by `d`, modelling CPU work. Other
    /// runnable entities with earlier timestamps execute in the meantime.
    ///
    /// The caller must not hold a host lock that another simulated thread
    /// may take: every simulated thread runs on the same host thread, so
    /// the second `lock()` would wait forever.
    pub fn sleep(&self, d: SimDuration) {
        let mut st = self.kernel.state.lock();
        st.check_running(self.id);
        // Straggler injection: CPU work on a slowed node stretches by
        // the node's factor (rounded to whole virtual nanoseconds).
        let d = match st.cpu_slowdown.get(&self.node) {
            Some(&factor) => SimDuration::from_nanos((d.as_nanos() as f64 * factor).round() as u64),
            None => d,
        };
        st.slot(self.id).busy += d;
        let at = st.now + d;
        self.kernel.yield_until(st, self.id, at);
    }
}

struct GateInner<T> {
    queue: Mutex<VecDeque<T>>,
    waiters: Mutex<VecDeque<SimThreadId>>,
    wake_latency: SimDuration,
}

/// A virtual-time MPMC channel: producers [`push`](Gate::push) from threads
/// or event actions; consumers block in virtual time until a value arrives.
///
/// Waiting consumes no virtual CPU (it is accounted as idle time), modelling
/// a blocked thread that is woken by an interrupt/doorbell after
/// `wake_latency`.
pub struct Gate<T> {
    kernel: Kernel,
    inner: Arc<GateInner<T>>,
}

impl<T> Clone for Gate<T> {
    fn clone(&self) -> Self {
        Gate {
            kernel: self.kernel.clone(),
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> Gate<T> {
    /// Creates a gate whose wakeups are delivered `wake_latency` after the
    /// push.
    pub fn new(kernel: &Kernel, wake_latency: SimDuration) -> Self {
        Gate {
            kernel: kernel.clone(),
            inner: Arc::new(GateInner {
                queue: Mutex::new(VecDeque::new()),
                waiters: Mutex::new(VecDeque::new()),
                wake_latency,
            }),
        }
    }

    /// Enqueues a value and wakes the longest-waiting receiver, if any.
    /// Callable from simulated threads and from event actions.
    pub fn push(&self, value: T) {
        let mut st = self.kernel.state.lock();
        self.inner.queue.lock().push_back(value);
        let waiter = self.inner.waiters.lock().pop_front();
        if let Some(w) = waiter {
            let at = st.now + self.inner.wake_latency;
            st.wake(w, at);
        }
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Whether the gate currently holds no values.
    pub fn is_empty(&self) -> bool {
        self.inner.queue.lock().is_empty()
    }

    /// Pops a value if one is immediately available. Consumes no virtual
    /// time.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.queue.lock().pop_front()
    }

    /// Blocks in virtual time until a value is available.
    pub fn recv(&self, ctx: &SimContext) -> T {
        loop {
            let st = self.kernel.state.lock();
            if let Some(v) = self.inner.queue.lock().pop_front() {
                return v;
            }
            st.check_running(ctx.id);
            {
                let mut waiters = self.inner.waiters.lock();
                if !waiters.contains(&ctx.id) {
                    waiters.push_back(ctx.id);
                }
            }
            self.kernel.block_me(st, ctx.id, None);
        }
    }

    /// Blocks in virtual time until a value is available or `timeout`
    /// elapses.
    pub fn recv_timeout(&self, ctx: &SimContext, timeout: SimDuration) -> RecvTimeout<T> {
        let deadline = self.kernel.now() + timeout;
        loop {
            let st = self.kernel.state.lock();
            if let Some(v) = self.inner.queue.lock().pop_front() {
                self.inner.waiters.lock().retain(|w| *w != ctx.id);
                return RecvTimeout::Value(v);
            }
            if st.now >= deadline {
                self.inner.waiters.lock().retain(|w| *w != ctx.id);
                return RecvTimeout::TimedOut;
            }
            st.check_running(ctx.id);
            {
                let mut waiters = self.inner.waiters.lock();
                if !waiters.contains(&ctx.id) {
                    waiters.push_back(ctx.id);
                }
            }
            self.kernel.block_me(st, ctx.id, Some(deadline));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn empty_kernel_finishes() {
        let kernel = Kernel::new();
        kernel.run();
        assert_eq!(kernel.now(), SimTime::ZERO);
    }

    #[test]
    fn single_thread_advances_clock() {
        let kernel = Kernel::new();
        kernel.spawn(0, "t", |sim| {
            sim.sleep(SimDuration::from_micros(3));
            sim.sleep(SimDuration::from_micros(4));
            assert_eq!(sim.now().as_nanos(), 7_000);
        });
        kernel.run();
        assert_eq!(kernel.now().as_nanos(), 7_000);
    }

    #[test]
    fn cpu_slowdown_stretches_sleeps_on_its_node_only() {
        let kernel = Kernel::new();
        kernel.set_cpu_slowdown(0, 3.0);
        kernel.spawn(0, "slow", |sim| {
            sim.sleep(SimDuration::from_nanos(100));
            assert_eq!(sim.now().as_nanos(), 300, "3x straggler factor");
        });
        kernel.spawn(1, "fast", |sim| {
            sim.sleep(SimDuration::from_nanos(100));
            assert_eq!(sim.now().as_nanos(), 100, "other nodes unaffected");
        });
        kernel.run();
    }

    #[test]
    fn threads_interleave_in_time_order() {
        let kernel = Kernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, step) in [("a", 30u64), ("b", 20), ("c", 50)] {
            let order = order.clone();
            kernel.spawn(0, name, move |sim| {
                sim.sleep(SimDuration::from_nanos(step));
                order.lock().push((sim.now().as_nanos(), name));
            });
        }
        kernel.run();
        assert_eq!(
            *order.lock(),
            vec![(20, "b"), (30, "a"), (50, "c")],
            "threads must run in virtual-time order"
        );
    }

    #[test]
    fn equal_times_break_ties_by_spawn_order() {
        let kernel = Kernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for name in ["first", "second", "third"] {
            let order = order.clone();
            kernel.spawn(0, name, move |sim| {
                sim.sleep(SimDuration::from_nanos(10));
                order.lock().push(name);
            });
        }
        kernel.run();
        assert_eq!(*order.lock(), vec!["first", "second", "third"]);
    }

    #[test]
    fn events_run_before_threads_at_same_time() {
        let kernel = Kernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = order.clone();
        kernel.schedule(SimTime::from_nanos(10), move || o1.lock().push("event"));
        let o2 = order.clone();
        kernel.spawn(0, "t", move |sim| {
            sim.sleep(SimDuration::from_nanos(10));
            o2.lock().push("thread");
        });
        kernel.run();
        assert_eq!(*order.lock(), vec!["event", "thread"]);
    }

    #[test]
    fn events_chain() {
        let kernel = Kernel::new();
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        let k = kernel.clone();
        kernel.schedule(SimTime::from_nanos(5), move || {
            c.fetch_add(1, Ordering::SeqCst);
            let c2 = c.clone();
            k.schedule(SimTime::from_nanos(9), move || {
                c2.fetch_add(10, Ordering::SeqCst);
            });
        });
        kernel.run();
        assert_eq!(count.load(Ordering::SeqCst), 11);
        assert_eq!(kernel.now().as_nanos(), 9);
    }

    #[test]
    fn gate_delivers_value_with_latency() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(100));
        let g = gate.clone();
        kernel.spawn(0, "consumer", move |sim| {
            let v = g.recv(&sim);
            assert_eq!(v, 42);
            // Pushed at t=500 by the event below; wake latency 100.
            assert_eq!(sim.now().as_nanos(), 600);
        });
        let g2 = gate.clone();
        kernel.schedule(SimTime::from_nanos(500), move || g2.push(42));
        kernel.run();
    }

    #[test]
    fn gate_value_available_before_recv_is_instant() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(100));
        gate.push(7);
        let g = gate.clone();
        kernel.spawn(0, "consumer", move |sim| {
            sim.sleep(SimDuration::from_nanos(10));
            let v = g.recv(&sim);
            assert_eq!(v, 7);
            assert_eq!(sim.now().as_nanos(), 10, "no wait when a value is queued");
        });
        kernel.run();
    }

    #[test]
    fn gate_recv_timeout_times_out() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        let g = gate.clone();
        kernel.spawn(0, "consumer", move |sim| {
            let r = g.recv_timeout(&sim, SimDuration::from_micros(5));
            assert_eq!(r, RecvTimeout::TimedOut);
            assert_eq!(sim.now().as_nanos(), 5_000);
        });
        kernel.run();
    }

    #[test]
    fn gate_recv_timeout_receives_early_push() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        let g = gate.clone();
        kernel.spawn(0, "consumer", move |sim| {
            let r = g.recv_timeout(&sim, SimDuration::from_micros(5));
            assert_eq!(r, RecvTimeout::Value(9));
            assert_eq!(sim.now().as_nanos(), 1_000);
        });
        let g2 = gate.clone();
        kernel.schedule(SimTime::from_nanos(1_000), move || g2.push(9));
        kernel.run();
    }

    #[test]
    fn producer_consumer_pipeline() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(10));
        let total = Arc::new(AtomicU64::new(0));
        let g = gate.clone();
        kernel.spawn(0, "producer", move |sim| {
            for i in 0..100 {
                sim.sleep(SimDuration::from_nanos(50));
                g.push(i);
            }
        });
        let g2 = gate.clone();
        let t = total.clone();
        kernel.spawn(1, "consumer", move |sim| {
            for _ in 0..100 {
                let v = g2.recv(&sim);
                t.fetch_add(v, Ordering::SeqCst);
            }
        });
        kernel.run();
        assert_eq!(total.load(Ordering::SeqCst), 99 * 100 / 2);
    }

    #[test]
    fn multiple_consumers_share_work() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        let seen = Arc::new(AtomicU64::new(0));
        for i in 0..4 {
            let g = gate.clone();
            let s = seen.clone();
            kernel.spawn(0, &format!("c{i}"), move |sim| {
                for _ in 0..25 {
                    g.recv(&sim);
                    s.fetch_add(1, Ordering::SeqCst);
                    sim.sleep(SimDuration::from_nanos(5));
                }
            });
        }
        let g = gate.clone();
        kernel.spawn(1, "producer", move |sim| {
            for _ in 0..100 {
                g.push(1);
                sim.sleep(SimDuration::from_nanos(1));
            }
        });
        kernel.run();
        assert_eq!(seen.load(Ordering::SeqCst), 100);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        kernel.spawn(0, "stuck", move |sim| {
            let _ = gate.recv(&sim); // Never pushed.
        });
        kernel.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn thread_panic_propagates_to_run() {
        let kernel = Kernel::new();
        kernel.spawn(0, "bad", |_sim| panic!("boom"));
        kernel.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panic_releases_blocked_threads() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        kernel.spawn(0, "stuck", move |sim| {
            let _ = gate.recv(&sim);
        });
        kernel.spawn(0, "bad", |sim| {
            sim.sleep(SimDuration::from_nanos(100));
            panic!("boom");
        });
        kernel.run();
    }

    #[test]
    fn spawn_from_sim_thread() {
        let kernel = Kernel::new();
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        kernel.spawn(0, "parent", move |sim| {
            sim.sleep(SimDuration::from_nanos(7));
            let d2 = d.clone();
            sim.kernel().spawn(0, "child", move |csim| {
                assert_eq!(csim.now().as_nanos(), 7, "child starts at spawn time");
                csim.sleep(SimDuration::from_nanos(3));
                d2.fetch_add(1, Ordering::SeqCst);
            });
            sim.sleep(SimDuration::from_nanos(100));
        });
        kernel.run();
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(kernel.now().as_nanos(), 107);
    }

    #[test]
    fn busy_and_idle_accounting() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        let g = gate.clone();
        kernel.spawn(0, "worker", move |sim| {
            sim.sleep(SimDuration::from_nanos(300)); // busy
            let _ = g.recv(&sim); // idle until t=1000
        });
        let g2 = gate.clone();
        kernel.schedule(SimTime::from_nanos(1_000), move || g2.push(1));
        kernel.run();
        let stats = kernel.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].busy.as_nanos(), 300);
        assert_eq!(stats[0].idle.as_nanos(), 700);
        assert_eq!(stats[0].finished_at.as_nanos(), 1_000);
    }

    #[test]
    fn same_instant_events_fire_in_schedule_order() {
        // Events are keyed (at, seq): registration order at a given instant
        // is the tie-break, regardless of the order timestamps were mixed in.
        let kernel = Kernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, at) in [("e1", 10u64), ("e2", 5), ("e3", 10), ("e4", 10)] {
            let o = order.clone();
            kernel.schedule(SimTime::from_nanos(at), move || o.lock().push(name));
        }
        kernel.run();
        assert_eq!(*order.lock(), vec!["e2", "e1", "e3", "e4"]);
    }

    #[test]
    fn event_scheduled_at_same_instant_runs_after_existing_batch() {
        // An action that schedules a new event at the *current* instant gets
        // a higher seq, so it runs after every already-scheduled event at
        // that instant — even though the batch was drained in one sweep.
        let kernel = Kernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = order.clone();
        let k = kernel.clone();
        kernel.schedule(SimTime::from_nanos(10), move || {
            o1.lock().push("first");
            let o = o1.clone();
            k.schedule(SimTime::from_nanos(10), move || o.lock().push("late"));
        });
        let o2 = order.clone();
        kernel.schedule(SimTime::from_nanos(10), move || o2.lock().push("second"));
        kernel.run();
        assert_eq!(*order.lock(), vec!["first", "second", "late"]);
        assert_eq!(kernel.now().as_nanos(), 10);
    }

    /// Eight threads racing over one gate; the log is the observable
    /// schedule. `meet` runs once, mid-simulation, on thread 0.
    fn contended_run(meet: impl FnOnce() + Send + 'static) -> Vec<(u64, String)> {
        let kernel = Kernel::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(3));
        let mut meet = Some(meet);
        for i in 0..8u64 {
            let g = gate.clone();
            let log = log.clone();
            let mut meet = meet.take();
            kernel.spawn((i % 4) as usize, &format!("w{i}"), move |sim| {
                for k in 0..20u64 {
                    sim.sleep(SimDuration::from_nanos(7 + (i * 13 + k) % 11));
                    g.push(i * 100 + k);
                    if let Some(v) = g.try_recv() {
                        log.lock().push((sim.now().as_nanos(), format!("w{i}:{v}")));
                    }
                    if k == 10 {
                        if let Some(meet) = meet.take() {
                            meet();
                        }
                    }
                }
            });
        }
        kernel.run();
        let v = log.lock().clone();
        v
    }

    #[test]
    fn determinism_two_identical_runs() {
        assert_eq!(contended_run(|| {}), contended_run(|| {}));
    }

    #[test]
    fn two_kernels_run_concurrently_on_two_host_threads() {
        // The host barrier is crossed from inside a simulated thread of
        // each kernel, so both schedulers are provably mid-run at once.
        let alone = contended_run(|| {});
        let meet = Arc::new(std::sync::Barrier::new(2));
        let (a, b) = std::thread::scope(|s| {
            let run = || {
                let meet = meet.clone();
                s.spawn(move || {
                    contended_run(move || {
                        meet.wait();
                    })
                })
            };
            let (a, b) = (run(), run());
            (a.join().expect("kernel a"), b.join().expect("kernel b"))
        });
        assert_eq!(a, alone);
        assert_eq!(b, alone);
    }

    #[test]
    fn four_thousand_threads_in_one_kernel() {
        // One OS thread per simulated thread could not do this; a fiber is
        // a lazily-backed mapping.
        const THREADS: u64 = 4096;
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(1));
        let sum = Arc::new(AtomicU64::new(0));
        for i in 0..THREADS {
            let g = gate.clone();
            let sum = sum.clone();
            kernel.spawn((i % 64) as usize, "w", move |sim| {
                sim.sleep(SimDuration::from_nanos(1 + i % 7));
                g.push(i);
                sim.sleep(SimDuration::from_nanos(5));
                sum.fetch_add(g.recv(&sim), Ordering::SeqCst);
            });
        }
        kernel.run();
        assert_eq!(sum.load(Ordering::SeqCst), THREADS * (THREADS - 1) / 2);
        assert_eq!(kernel.stats().len(), THREADS as usize);
    }

    #[test]
    fn run_leaves_nothing_alive() {
        // A finished fiber never returns from its last switch, so whatever
        // its entry frame still owned would leak.
        let token = Arc::new(());
        let obs = Obs::new();
        let held = Arc::downgrade(&obs);
        let kernel = Kernel::new();
        kernel.set_obs(obs);
        let gate: Gate<Arc<()>> = Gate::new(&kernel, SimDuration::ZERO);
        for i in 0..4u64 {
            let (t, g) = (token.clone(), gate.clone());
            kernel.spawn(0, "w", move |sim| {
                sim.sleep(SimDuration::from_nanos(10 + i));
                g.push(t.clone());
                drop(g.recv(&sim));
                let k = sim.kernel().clone();
                let t2 = t.clone();
                k.schedule_in(SimDuration::from_nanos(5), move || drop(t2));
            });
        }
        kernel.run();
        drop(gate);
        assert_eq!(
            Arc::strong_count(&token),
            1,
            "a closure or frame outlived run()"
        );
        drop(kernel);
        assert!(held.upgrade().is_none(), "a kernel handle outlived run()");
    }

    #[test]
    fn unstarted_threads_do_not_keep_the_kernel_alive() {
        let token = Arc::new(());
        let obs = Obs::new();
        let held = Arc::downgrade(&obs);
        let kernel = Kernel::new();
        kernel.set_obs(obs);
        let t = token.clone();
        kernel.spawn(0, "never run", move |_sim| drop(t));
        drop(kernel);
        assert_eq!(Arc::strong_count(&token), 1);
        assert!(held.upgrade().is_none());
    }

    /// Sets its flag when dropped.
    struct DropFlag(Arc<AtomicU64>);
    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.store(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn poison_unwinds_blocked_threads_and_drops_unstarted_closures() {
        let blocked_local = Arc::new(AtomicU64::new(0));
        let unstarted_capture = Arc::new(AtomicU64::new(0));
        let unstarted_ran = Arc::new(AtomicU64::new(0));
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        let flag = DropFlag(blocked_local.clone());
        kernel.spawn(0, "blocked", move |sim| {
            let _on_my_stack = flag;
            gate.recv(&sim); // Never pushed.
        });
        let k = kernel.clone();
        let capture = DropFlag(unstarted_capture.clone());
        let ran = unstarted_ran.clone();
        kernel.spawn(0, "bad", move |sim| {
            sim.sleep(SimDuration::from_nanos(100));
            // Spawned at the instant of the panic: never gets to start.
            k.spawn(0, "unstarted", move |_sim| {
                let _capture = capture;
                ran.store(1, Ordering::SeqCst);
            });
            panic!("boom");
        });
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| kernel.run()));
        let msg = payload_to_string(&*outcome.expect_err("run re-raises the panic"));
        assert!(msg.contains("boom"), "{msg}");
        assert_eq!(
            blocked_local.load(Ordering::SeqCst),
            1,
            "blocked frame unwound"
        );
        assert_eq!(
            unstarted_capture.load(Ordering::SeqCst),
            1,
            "closure dropped"
        );
        assert_eq!(unstarted_ran.load(Ordering::SeqCst), 0, "closure never ran");
        assert_eq!(kernel.stats().len(), 3, "every thread retired");
    }

    #[test]
    #[should_panic(expected = "event action panicked: bang")]
    fn event_panic_poisons_and_unwinds() {
        let kernel = Kernel::new();
        let gate: Gate<u64> = Gate::new(&kernel, SimDuration::ZERO);
        kernel.spawn(0, "blocked", move |sim| {
            gate.recv(&sim);
        });
        kernel.schedule(SimTime::from_nanos(10), || panic!("bang"));
        kernel.run();
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn run_is_not_reentrant() {
        let kernel = Kernel::new();
        let k = kernel.clone();
        kernel.spawn(0, "t", move |_sim| k.run());
        kernel.run();
    }

    #[test]
    fn fiber_stack_holds_a_quarter_mebibyte_across_switches() {
        #[inline(never)]
        fn deep(sim: &SimContext, depth: u64) -> u64 {
            // ~1 KiB of live frame per level, kept across a switch.
            let mut pad = [depth; 128];
            std::hint::black_box(&mut pad);
            if depth == 0 {
                sim.sleep(SimDuration::from_nanos(10));
                return 0;
            }
            deep(sim, depth - 1) + pad[depth as usize % 128]
        }
        let kernel = Kernel::new();
        for _ in 0..2 {
            kernel.spawn(0, "deep", |sim| {
                assert_eq!(deep(&sim, 300), (1..=300).sum::<u64>());
            });
        }
        kernel.run();
    }
}
