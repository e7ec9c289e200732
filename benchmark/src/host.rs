//! The host clock: wall time, process and thread CPU time, context
//! switches, peak RSS, CPU pinning state and a calibration loop.
//!
//! `getrusage` and `clock_gettime` come straight from the libc that std
//! already links; the benchmark adds no external crate for them.

use std::time::Instant;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX` and `M_MMAP_THRESHOLD`.
const M_ARENA_MAX: i32 = -8;
const M_MMAP_THRESHOLD: i32 = -3;

/// Makes peak RSS a function of the program's live memory rather than of
/// allocator luck. One arena: one simulated thread runs at a time, so
/// arenas buy no parallelism here, but left alone each of the hundreds of
/// OS threads lands in one of several by chance. A fixed mmap threshold:
/// glibc otherwise raises it whenever a large block is freed, after which
/// registered-memory-sized blocks stay in the heap or not depending on
/// the order of frees. Without the two, `recovery_mix` peaked anywhere
/// between 41 and 438 MiB.
pub fn steady_malloc() {
    // SAFETY: `mallopt` only records the two limits; called before any
    // thread is spawned.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Process-wide CPU seconds and context switches so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` (layout above
        // matches 64-bit Linux) and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Usage {
            user_s: secs(ru.utime),
            sys_s: secs(ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        }
    }

    /// What was consumed between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// CPU nanoseconds the calling OS thread has consumed so far.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable `struct timespec` and the clock id
    // is the calling thread's own CPU clock, which always exists.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .split_whitespace()
                .next()?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Pins the process to the last CPU it is allowed on and returns whether
/// that worked. Call before any thread is spawned: threads inherit the
/// mask. The simulator runs one simulated thread at a time, so a second
/// core only adds cross-core wake-ups and makes host time bimodal (see
/// README.md); unpinned host numbers are not comparable with pinned ones.
pub fn pin_to_last_cpu() -> bool {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a valid, writable buffer of the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().rposition(|w| *w != 0) else {
        return false;
    };
    let bit = 63 - mask[word].leading_zeros();
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a valid buffer of the size passed; it names one CPU
    // taken from the mask the kernel just reported as allowed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 }
}

/// Times a fixed integer loop, so that a slow machine can be told from
/// slow code when two result files are compared. Milliseconds.
pub fn calibrate_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}
