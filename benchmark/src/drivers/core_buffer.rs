//! `core::buffer`: the arena pool every endpoint recycles its windows
//! through.

use std::hint::black_box;
use std::time::Instant;

use rshuffle::buffer::BufferPool;
use rshuffle_simnet::{Cluster, DeviceProfile};
use rshuffle_verbs::VerbsRuntime;

/// `BufferPool::carve` once, then `try_take` / `recycle` in a loop. Host
/// ns per take-and-recycle pair.
pub fn take_recycle_ns() -> f64 {
    const PAIRS: usize = 1_000_000;
    const WINDOWS: usize = 32;
    const WINDOW: usize = 4096;
    let runtime = VerbsRuntime::new(Cluster::new(1, DeviceProfile::edr()));
    let mr = runtime.context(0).register_untimed(WINDOWS * WINDOW);
    let pool = BufferPool::carve(mr, 0, WINDOW, WINDOWS);
    let start = Instant::now();
    for _ in 0..PAIRS {
        let buf = pool.try_take().expect("the pool is never drained here");
        pool.recycle(black_box(buf));
    }
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(
        pool.free_len(),
        WINDOWS,
        "buffer driver: every window must be back in the pool"
    );
    ns / PAIRS as f64
}
