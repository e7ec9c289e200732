//! Stackful fibers: private stacks and the register swap that moves one
//! host thread between them.
//!
//! This is the only module in the crate that contains `unsafe`. It offers
//! a safe surface — [`Fiber::new`], [`Fiber::resume`], [`suspend`] — and
//! keeps every condition the unsafe code relies on inside this file:
//!
//! * a fiber's stack is touched only by the host thread that is inside
//!   [`Fiber::resume`] for it, and a fiber that has started is only ever
//!   resumed on the thread that started it (checked), so values living on
//!   a fiber stack never change threads;
//! * the per-thread `CURRENT` link is non-null exactly while that thread
//!   executes on a fiber stack, and then points into the frame of the
//!   `resume` call that switched in;
//! * a finished fiber is never switched into again (checked), and the
//!   stack of a fiber that is suspended mid-run is leaked rather than
//!   unmapped under its live frames.
//!
//! **Supported target: x86_64 Linux.** The switch saves the six SysV
//! callee-saved integer registers and the stack pointer. MXCSR and the
//! x87 control word, which the ABI also preserves across calls, are not
//! swapped: nothing in this workspace changes them, so they are equal on
//! both sides of every switch. Porting to another target means rewriting
//! `rshuffle_fiber_switch`, its trampoline and the frame
//! [`Fiber::new`] prepares for them; there is deliberately no OS-thread
//! fallback that would go untested.

use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::ptr;
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "rshuffle-simnet runs simulated threads as fibers and supports x86_64 Linux only: \
     port `rshuffle_fiber_switch` (and the initial frame `Fiber::new` builds for it) in \
     crates/simnet/src/fiber.rs to this target"
);

/// Usable bytes per fiber stack: what `std::thread` gave each simulated
/// thread before. The mapping is `MAP_NORESERVE`, so only touched pages
/// cost memory and resident size does not depend on this constant.
const STACK_BYTES: usize = 2 << 20;
/// One inaccessible page below the stack: an overflow faults instead of
/// running into a neighbouring mapping (stack probes touch every page, so
/// no frame can step over it).
const GUARD_BYTES: usize = 4096;

std::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".hidden rshuffle_fiber_switch",
    ".global rshuffle_fiber_switch",
    ".type rshuffle_fiber_switch,@function",
    // fn(save: *mut *mut u8 [rdi], to: *mut u8 [rsi])
    "rshuffle_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size rshuffle_fiber_switch, . - rshuffle_fiber_switch",
    ".p2align 4",
    ".hidden rshuffle_fiber_trampoline",
    ".global rshuffle_fiber_trampoline",
    ".type rshuffle_fiber_trampoline,@function",
    // First `ret` of a new fiber lands here with r12 = argument and
    // r13 = entry function (see `Fiber::new`). The undefined return
    // address tells unwinders and backtraces that the stack ends here.
    "rshuffle_fiber_trampoline:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".cfi_endproc",
    ".size rshuffle_fiber_trampoline, . - rshuffle_fiber_trampoline",
);

extern "C" {
    /// Pushes the callee-saved registers, stores the stack pointer to
    /// `*save`, loads `to` as the stack pointer, pops the callee-saved
    /// registers found there and returns into that context.
    fn rshuffle_fiber_switch(save: *mut *mut u8, to: *mut u8);
    fn rshuffle_fiber_trampoline();

    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

// <sys/mman.h>, x86_64 Linux.
const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x2_0000;

/// A private stack: `GUARD_BYTES` of `PROT_NONE`, then `STACK_BYTES`.
struct Stack {
    base: *mut u8,
}

impl Stack {
    const LEN: usize = GUARD_BYTES + STACK_BYTES;

    fn map() -> Stack {
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases nothing; the result is checked before use.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                Self::LEN,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of a {} KiB fiber stack failed: {}",
            Self::LEN >> 10,
            std::io::Error::last_os_error()
        );
        let stack = Stack { base: base.cast() };
        // SAFETY: the first page of the mapping just created; nothing
        // lives in it yet.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        if rc != 0 {
            let err = std::io::Error::last_os_error();
            // SAFETY: as in `Fiber::drop` — no frame was ever built here.
            unsafe { stack.unmap() };
            panic!("mprotect of a fiber guard page failed: {err}");
        }
        stack
    }

    /// One past the highest usable byte; page-aligned, so 16-aligned.
    fn top(&self) -> *mut u8 {
        // SAFETY: `base + LEN` is one past the end of the mapping.
        unsafe { self.base.add(Self::LEN) }
    }

    /// # Safety
    ///
    /// No live frame may remain on the stack, and it must not be used
    /// again.
    unsafe fn unmap(&self) {
        // Cannot fail for a whole mapping this module created.
        let _ = munmap(self.base.cast(), Self::LEN);
    }
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum Status {
    /// Holds the initial frame; the entry closure has not run.
    Fresh,
    /// Started and not finished: live frames sit on the stack.
    Suspended,
    /// The entry closure returned; the stack holds nothing live.
    Done,
}

/// What a running fiber needs to get back to its scheduler. Lives in the
/// frame of the [`Fiber::resume`] call that switched in and is reached
/// through `CURRENT`.
struct Link {
    /// The scheduler's stack pointer, written by the switch into the fiber.
    sched_sp: *mut u8,
    /// The fiber's stack pointer, written by the switch out of it.
    fiber_sp: *mut u8,
    /// Set by the fiber just before its final switch out.
    done: bool,
    /// The link of the enclosing fiber when schedulers nest.
    prev: *mut Link,
}

thread_local! {
    /// Non-null exactly while this thread executes on a fiber stack.
    static CURRENT: Cell<*mut Link> = const { Cell::new(ptr::null_mut()) };
    /// A never-reused identity for this thread (a `ThreadId` without the
    /// `Arc` clone `std::thread::current()` costs per hand-off).
    static THREAD: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

type Entry = Option<Box<dyn FnOnce() + Send>>;

/// A computation with its own stack that runs only while some host
/// thread is inside [`Fiber::resume`], and hands that thread back by
/// calling [`suspend`] or by returning.
pub(crate) struct Fiber {
    stack: Stack,
    /// Where to continue: the initial frame, or where `suspend` left off.
    sp: *mut u8,
    /// Heap cell holding the entry closure until the first resume; its
    /// thin address travels to `fiber_entry` in the initial frame. Owned:
    /// made by `Box::into_raw` in `new`, freed in `drop`.
    entry: *mut Entry,
    status: Status,
    /// The thread of the first resume (0 while `Fresh`).
    home: u64,
}

// SAFETY: a `Fresh` fiber is a stack nobody has run on plus a `Send`
// closure, so it may move to and start on any thread. Once started its
// stack holds arbitrary (possibly `!Send`) values, and `resume` refuses
// to run it on any thread but `home`; dropping it elsewhere only unmaps
// (`Done`) or leaks (`Suspended`) the stack without touching its contents.
unsafe impl Send for Fiber {}

impl Fiber {
    /// Maps a stack and prepares it so that the first [`resume`](Self::resume)
    /// calls `f` on it. `f` must not unwind: a panic that escapes it
    /// aborts the process (there is no frame above it to catch it).
    ///
    /// # Panics
    ///
    /// Panics if the stack cannot be mapped.
    pub(crate) fn new(f: impl FnOnce() + Send + 'static) -> Fiber {
        let stack = Stack::map();
        let entry: *mut Entry = Box::into_raw(Box::new(Some(Box::new(f))));
        // The frame `rshuffle_fiber_switch` pops on the first resume, from
        // `sp` upwards: r15, r14, r13 (entry fn), r12 (its argument), rbx,
        // rbp, then the address its `ret` jumps to. Two zero words above
        // keep `rsp` 16-byte aligned at the trampoline's `call` (top − 16)
        // and end frame-pointer walks.
        let frame: [usize; 9] = [
            0,
            0,
            fiber_entry as extern "C" fn(*mut Entry) -> ! as usize,
            entry as usize,
            0,
            0,
            rshuffle_fiber_trampoline as unsafe extern "C" fn() as usize,
            0,
            0,
        ];
        // SAFETY: the 72 bytes below `top` are inside the writable part of
        // the fresh mapping and 8-aligned (`top` is page-aligned).
        let sp = unsafe {
            let sp = stack.top().sub(size_of_val(&frame));
            sp.cast::<[usize; 9]>().write(frame);
            sp
        };
        Fiber {
            stack,
            sp,
            entry,
            status: Status::Fresh,
            home: 0,
        }
    }

    /// Whether the entry closure has started running.
    pub(crate) fn started(&self) -> bool {
        self.status != Status::Fresh
    }

    /// Runs the fiber on the calling thread until it calls [`suspend`] or
    /// its closure returns. Returns `true` once the closure has returned;
    /// the fiber must not be resumed again after that.
    ///
    /// # Panics
    ///
    /// Panics if the fiber has finished, or was started on another thread.
    pub(crate) fn resume(&mut self) -> bool {
        let here = THREAD.with(|t| *t);
        match self.status {
            Status::Fresh => self.home = here,
            Status::Suspended => assert_eq!(
                self.home, here,
                "a started fiber must be resumed on the thread that started it"
            ),
            Status::Done => panic!("resume of a finished fiber"),
        }
        let mut link = Link {
            sched_sp: ptr::null_mut(),
            fiber_sp: ptr::null_mut(),
            done: false,
            prev: CURRENT.get(),
        };
        let link: *mut Link = &mut link;
        CURRENT.set(link);
        // SAFETY: `self.sp` is the initial frame (`Fresh`) or the frame a
        // `suspend` on this thread saved (`Suspended`), on a stack nobody
        // else runs on because `&mut self` is exclusive (so this is not a
        // resume from inside the fiber itself). `link` outlives the
        // switch: this frame stays put until the fiber switches back
        // through `(*link).sched_sp`, which this very call writes.
        unsafe {
            rshuffle_fiber_switch(&raw mut (*link).sched_sp, self.sp);
            CURRENT.set((*link).prev);
            self.sp = (*link).fiber_sp;
            self.status = if (*link).done {
                Status::Done
            } else {
                Status::Suspended
            };
        }
        self.status == Status::Done
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        // SAFETY: `entry` came from `Box::into_raw` in `new` and is freed
        // only here. If the fiber never started this drops its closure
        // unrun; otherwise `fiber_entry` already took it and the cell is
        // `None`.
        drop(unsafe { Box::from_raw(self.entry) });
        // A suspended fiber has live frames whose destructors will never
        // run; unmapping the memory under them would break every
        // guarantee (`Pin`, scoped borrows) that rests on "freed only
        // after drop". Leak the mapping instead. The kernel never gets
        // here: `Kernel::run` resumes every started fiber to its end.
        if self.status != Status::Suspended {
            // SAFETY: `Fresh` holds only plain words, `Done` nothing live,
            // and nobody is on the stack (`resume` would hold `&mut self`).
            unsafe { self.stack.unmap() };
        }
    }
}

/// Hands the calling thread back to the [`Fiber::resume`] call that is
/// running the current fiber; returns when the fiber is resumed again.
///
/// # Panics
///
/// Panics if the caller is not running on a fiber.
pub(crate) fn suspend() {
    let link = CURRENT.get();
    assert!(
        !link.is_null(),
        "fiber::suspend called from outside a fiber"
    );
    // SAFETY: `CURRENT` is non-null only between a `resume`'s switch in
    // and the matching switch out on this thread, so the caller runs on
    // that fiber's stack and `link` points into that `resume`'s frame,
    // which is parked inside `rshuffle_fiber_switch` with a valid
    // `sched_sp`. The fiber's own context is saved to `fiber_sp` for the
    // next resume. `link` is not used after the switch returns (a later
    // resume has a new link).
    unsafe { rshuffle_fiber_switch(&raw mut (*link).fiber_sp, (*link).sched_sp) }
}

/// First Rust frame of every fiber.
extern "C" fn fiber_entry(entry: *mut Entry) -> ! {
    // SAFETY: `entry` is the heap cell `Fiber::new` put in the initial
    // frame; the `Fiber` that owns it is borrowed by the `resume` call
    // that switched here, so the cell is alive and not accessed
    // concurrently.
    let f = unsafe { (*entry).take() }.expect("a fiber's entry closure runs once");
    // The call consumes the closure and everything it captured: nothing
    // owned stays on this frame, which is abandoned below and never
    // unwound. (`extern "C"` turns an escaping panic into an abort.)
    f();
    let link = CURRENT.get();
    let mut abandoned = ptr::null_mut();
    // SAFETY: as in `suspend`; `done` tells `resume` never to come back,
    // so the context saved to `abandoned` is never used.
    unsafe {
        (*link).done = true;
        rshuffle_fiber_switch(&mut abandoned, (*link).sched_sp);
    }
    unreachable!("a finished fiber was resumed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn runs_suspends_and_finishes() {
        let steps = Arc::new(AtomicUsize::new(0));
        let s = steps.clone();
        let mut fiber = Fiber::new(move || {
            s.fetch_add(1, Ordering::SeqCst);
            suspend();
            s.fetch_add(10, Ordering::SeqCst);
            suspend();
            s.fetch_add(100, Ordering::SeqCst);
        });
        assert!(!fiber.started());
        assert!(!fiber.resume());
        assert!(fiber.started());
        assert_eq!(steps.load(Ordering::SeqCst), 1);
        assert!(!fiber.resume());
        assert_eq!(steps.load(Ordering::SeqCst), 11);
        assert!(fiber.resume());
        assert_eq!(steps.load(Ordering::SeqCst), 111);
        drop(fiber);
        assert_eq!(
            Arc::strong_count(&steps),
            1,
            "a finished fiber owns nothing"
        );
    }

    #[test]
    fn never_started_fiber_drops_its_closure_unrun() {
        let token = Arc::new(());
        let t = token.clone();
        let fiber = Fiber::new(move || {
            let _t = t;
            unreachable!("never resumed");
        });
        assert_eq!(Arc::strong_count(&token), 2);
        drop(fiber);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn schedulers_nest() {
        let mut outer = Fiber::new(|| {
            let mut inner = Fiber::new(|| {
                suspend();
            });
            assert!(!inner.resume());
            // Between the inner fiber's switches the current link is the
            // outer one again.
            suspend();
            assert!(inner.resume());
        });
        assert!(!outer.resume());
        assert!(outer.resume());
    }

    #[test]
    fn callee_saved_state_survives_a_switch() {
        // Enough live values that some sit in callee-saved registers
        // across the call.
        let mut fiber = Fiber::new(|| {
            let v: Vec<u64> = (1..=12).map(std::hint::black_box).collect();
            let (a, b, c, d, e, f) = (v[0], v[1], v[2], v[3], v[4], v[5]);
            let x = 0.5f64 * std::hint::black_box(3.0);
            suspend();
            assert_eq!(a + b + c + d + e + f, 21);
            assert_eq!(x, 1.5);
        });
        let v: Vec<u64> = (1..=12).map(std::hint::black_box).collect();
        let (a, b, c, d, e, f) = (v[6], v[7], v[8], v[9], v[10], v[11]);
        assert!(!fiber.resume());
        assert_eq!(a + b + c + d + e + f, 57);
        assert!(fiber.resume());
    }

    #[test]
    #[should_panic(expected = "outside a fiber")]
    fn suspend_outside_a_fiber_panics() {
        suspend();
    }

    #[test]
    #[should_panic(expected = "finished fiber")]
    fn resuming_a_finished_fiber_panics() {
        let mut fiber = Fiber::new(|| {});
        assert!(fiber.resume());
        fiber.resume();
    }

    #[test]
    fn a_started_fiber_refuses_another_thread() {
        let mut fiber = Fiber::new(suspend);
        assert!(!fiber.resume());
        let fiber = std::thread::scope(|s| {
            s.spawn(move || {
                let refused =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fiber.resume()));
                assert!(refused.is_err());
                fiber
            })
            .join()
            .expect("the thread itself does not panic")
        });
        // Still resumable at home.
        let mut fiber = fiber;
        assert!(fiber.resume());
    }
}
