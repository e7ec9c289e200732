//! `simnet::kernel` on a bare `Kernel`: the baton hand-off between two
//! simulated threads, a `Gate` wake-up, and a thread-less event.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rshuffle_simnet::{Gate, Kernel, SimDuration};

/// Two simulated threads alternate `sleep(1 ns)`: every sleep hands the
/// baton to the other OS thread. Host ns per hand-off.
pub fn handoff_ns() -> f64 {
    const SLEEPS: u64 = 20_000;
    let kernel = Kernel::new();
    for name in ["a", "b"] {
        kernel.spawn(0, name, |sim| {
            for _ in 0..SLEEPS {
                sim.sleep(SimDuration::from_nanos(1));
            }
        });
    }
    let start = Instant::now();
    kernel.run();
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(
        kernel.now().as_nanos(),
        SLEEPS,
        "hand-off driver: both threads must have slept {SLEEPS} ns of virtual time"
    );
    ns / (2 * SLEEPS) as f64
}

/// `Gate::push` / `Gate::recv` ping-pong between two simulated threads.
/// Host ns per wake-up.
pub fn gate_wake_ns() -> f64 {
    const ROUNDS: u64 = 10_000;
    let kernel = Kernel::new();
    let ping: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(10));
    let pong: Gate<u64> = Gate::new(&kernel, SimDuration::from_nanos(10));
    let echoed = Arc::new(AtomicU64::new(0));
    {
        let (ping, pong) = (ping.clone(), pong.clone());
        kernel.spawn(0, "echo", move |sim| {
            for _ in 0..ROUNDS {
                let v = ping.recv(&sim);
                pong.push(v + 1);
            }
        });
    }
    {
        let echoed = echoed.clone();
        kernel.spawn(0, "caller", move |sim| {
            let mut v = 0;
            for _ in 0..ROUNDS {
                ping.push(v);
                v = pong.recv(&sim);
            }
            echoed.store(v, Ordering::Relaxed);
        });
    }
    let start = Instant::now();
    kernel.run();
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(
        echoed.load(Ordering::Relaxed),
        ROUNDS,
        "gate driver: every value must come back incremented"
    );
    ns / (2 * ROUNDS) as f64
}

/// `Kernel::schedule_in` closures with no simulated thread at all. Host
/// ns per event, scheduling included.
pub fn event_ns() -> f64 {
    const EVENTS: u64 = 200_000;
    let kernel = Kernel::new();
    let fired = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    for i in 0..EVENTS {
        let fired = fired.clone();
        kernel.schedule_in(SimDuration::from_nanos(i % 1000), move || {
            fired.fetch_add(1, Ordering::Relaxed);
        });
    }
    kernel.run();
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(
        fired.load(Ordering::Relaxed),
        EVENTS,
        "event driver: every scheduled closure must fire"
    );
    ns / EVENTS as f64
}
