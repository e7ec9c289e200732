//! Registered ("pinned") memory regions.
//!
//! RDMA operations can only target memory that has been registered with the
//! NIC (§2.2). A [`MemoryRegion`] owns its backing bytes; remote peers
//! address it through an `rkey` (see [`RemoteAddr`]). Registration charges
//! the modelled pinning cost to the calling thread, and the runtime tracks
//! total registered bytes per node — the quantity plotted in Figure 9(b).
//!
//! On the host a region is backed window by window (a plain region is one
//! window): storage comes from the runtime's `Slab` on the first write, an
//! unwritten window reads as zeros, [`MemoryRegion::discard`] hands storage
//! back once the contents are dead, and a message in flight shares its
//! sender's window (`Payload`) to land as the receiver's, uncopied.
//!
//! One-sided writes into a region can be awaited through
//! [`MemoryRegion::wait_update_timeout`], which models a thread polling
//! local memory for a change made by a remote RDMA Write (the paper's
//! ValidArr/FreeArr message queues, §4.4.3).

use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_simnet::{Gate, Kernel, KeyMap, SimContext, SimDuration};

use crate::error::{Result, VerbsError};
use crate::NodeId;

/// The runtime's window storage: free buffers by capacity, reused last-in
/// first-out, and per node the bytes of windows holding storage (now, peak).
#[derive(Default)]
pub(crate) struct Slab {
    free: Mutex<KeyMap<usize, Vec<Arc<[u8]>>>>,
    resident: Mutex<Vec<(usize, usize)>>,
}

impl Slab {
    /// A buffer of `capacity` bytes holding `init`, recycled if one is free.
    fn take(&self, capacity: usize, init: &[u8]) -> Chunk {
        let recycled = self.free.lock().get_mut(&capacity).and_then(Vec::pop);
        let mut bytes = recycled.unwrap_or_else(|| (0..capacity).map(|_| 0).collect());
        let unshared = Arc::get_mut(&mut bytes).expect("a free buffer has one holder");
        unshared[..init.len()].copy_from_slice(init);
        let len = init.len();
        Chunk { bytes, len }
    }

    /// Takes a chunk back from the holder that let go of it, if it was the last.
    fn give(&self, Chunk { bytes, .. }: Chunk) {
        if Arc::strong_count(&bytes) == 1 {
            let mut free = self.free.lock();
            free.entry(bytes.len()).or_default().push(bytes);
        }
    }

    /// A window of `bytes` on `node` gained (`live`) or lost its storage.
    fn account(&self, node: NodeId, bytes: usize, live: bool) {
        let mut resident = self.resident.lock();
        if resident.len() <= node {
            resident.resize(node + 1, (0, 0));
        }
        let (now, peak) = &mut resident[node];
        *now = if live { *now + bytes } else { *now - bytes };
        *peak = (*peak).max(*now);
    }

    /// `(current, peak)` bytes of windows holding storage on `node`.
    pub(crate) fn resident(&self, node: NodeId) -> (usize, usize) {
        self.resident.lock().get(node).copied().unwrap_or_default()
    }
}

/// The storage of one window: a buffer no larger than the window, of which
/// `[..len]` was written (the rest reads as zeros, whatever it holds). Shared by
/// the window, messages in flight and the windows they land in: writers copy.
#[derive(Clone)]
pub(crate) struct Chunk {
    bytes: Arc<[u8]>,
    len: usize,
}

/// The message a work request captured when posted: what `chunk` holds,
/// zero-extended to `len`; the sender's window itself, or a copy of part.
#[derive(Clone)]
pub(crate) struct Payload {
    chunk: Chunk,
    pub(crate) len: usize,
}

type Windows = Vec<Option<Chunk>>;

/// The written part of bytes `[o, o + len)` of window `w`; what is missing
/// up to `len` reads as zeros.
fn written(windows: &Windows, w: usize, o: usize, len: usize) -> &[u8] {
    let held = windows.get(w).and_then(Option::as_ref);
    let from_o = held.and_then(|c| c.bytes[..c.len].get(o..)).unwrap_or(&[]);
    &from_o[..from_o.len().min(len)]
}

/// Window `w`'s slot, growing the table to hold it.
fn slot(windows: &mut Windows, w: usize) -> &mut Option<Chunk> {
    windows.resize_with(windows.len().max(w + 1), || None);
    &mut windows[w]
}

/// The offsets of a run of `count` accesses: `offset`, then every `step`
/// further on, wrapping.
fn run_offsets(offset: usize, step: usize, count: usize) -> impl Iterator<Item = usize> {
    (0..count).map(move |i| offset.wrapping_add(step.wrapping_mul(i)))
}

pub(crate) struct MrInner {
    pub(crate) node: NodeId,
    pub(crate) rkey: u32,
    pub(crate) len: usize,
    /// Backing granularity (the whole region for a plain registration).
    window: usize,
    /// Storage per window, grown on demand; `None`: unwritten or discarded.
    windows: Mutex<Windows>,
    slab: Arc<Slab>,
    /// Signalled whenever a remote RDMA Write lands in this region.
    pub(crate) update_gate: Gate<()>,
}

impl Drop for MrInner {
    fn drop(&mut self) {
        for chunk in self.windows.get_mut().drain(..).flatten() {
            self.slab.account(self.node, self.window, false);
            self.slab.give(chunk);
        }
    }
}

/// A registered memory region on one node.
///
/// Cloning is cheap and shares the same backing memory (like holding several
/// references to the same pinned pages).
#[derive(Clone)]
pub struct MemoryRegion {
    pub(crate) inner: Arc<MrInner>,
}

/// Address of a window inside a remote node's registered memory.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RemoteAddr {
    /// Node owning the memory.
    pub node: NodeId,
    /// Remote key identifying the region.
    pub rkey: u32,
    /// Byte offset within the region.
    pub offset: usize,
}

impl MemoryRegion {
    /// A region of `windows` windows of `window` bytes each.
    pub(crate) fn new(
        kernel: &Kernel,
        slab: &Arc<Slab>,
        (node, rkey): (NodeId, u32),
        (window, windows): (usize, usize),
    ) -> Self {
        MemoryRegion {
            inner: Arc::new(MrInner {
                node,
                rkey,
                len: window * windows,
                window: window.max(1),
                windows: Mutex::new(Vec::new()),
                slab: slab.clone(),
                update_gate: Gate::new(kernel, SimDuration::from_nanos(100)),
            }),
        }
    }

    /// Creates a standalone region that is not tracked by any runtime
    /// registry (no rkey resolution, no registered-bytes accounting).
    ///
    /// Intended for unit tests of code that manipulates buffers without a
    /// full cluster.
    #[doc(hidden)]
    pub fn new_for_tests(kernel: &Kernel, node: NodeId, rkey: u32, len: usize) -> Self {
        Self::new(kernel, &Arc::default(), (node, rkey), (len, 1))
    }

    /// The node this region lives on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The remote key peers use to address this region.
    pub fn rkey(&self) -> u32 {
        self.inner.rkey
    }

    /// Size of the region in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Resolves `[offset, offset + len)` to its window and the offset
    /// inside it. An access outside the region, or one that straddles two
    /// windows of a pool, is out of bounds.
    pub(crate) fn locate(&self, offset: usize, len: usize) -> Result<(usize, usize)> {
        let (region, window) = (self.inner.len, self.inner.window);
        let (w, o) = (offset / window, offset % window);
        let end = offset.checked_add(len);
        let inside = end.is_some_and(|end| end <= region && o + len <= window);
        let out_of_bounds = VerbsError::OutOfBounds {
            offset,
            len,
            region,
        };
        inside.then_some((w, o)).ok_or(out_of_bounds)
    }

    /// [`MemoryRegion::locate`] for each of `count` accesses of `len`
    /// bytes: at `offset`, then every `step` further on (wrapping, so a
    /// progression may walk down). The error is the first offending
    /// access's.
    pub(crate) fn locate_run(
        &self,
        offset: usize,
        step: usize,
        count: usize,
        len: usize,
    ) -> Result<()> {
        let Some(last) = count.checked_sub(1) else {
            return Ok(());
        };
        // Whole windows apart, every access sits at the same place in its
        // window and the offsets move one way: the two ends decide for all.
        let stride = step as isize;
        if stride.unsigned_abs().is_multiple_of(self.inner.window) {
            let end = usize::try_from(offset as i128 + stride as i128 * last as i128);
            let inside = |at: usize| self.locate(at, len).is_ok();
            if inside(offset) && end.is_ok_and(inside) {
                return Ok(());
            }
        }
        run_offsets(offset, step, count).try_for_each(|at| self.locate(at, len).map(drop))
    }

    /// Copies `bytes` into the region at `offset`.
    pub fn write(&self, offset: usize, bytes: &[u8]) -> Result<()> {
        self.with_mut(offset, bytes.len(), |dst| dst.copy_from_slice(bytes))
    }

    /// Reads `len` bytes starting at `offset`.
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        self.with(offset, len, <[u8]>::to_vec)
    }

    /// Runs `f` over an immutable view of `[offset, offset+len)`.
    pub fn with<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let (w, o) = self.locate(offset, len)?;
        let windows = self.inner.windows.lock();
        let part = written(&windows, w, o, len);
        if part.len() == len {
            return Ok(f(part));
        }
        let mut bytes = vec![0; len];
        bytes[..part.len()].copy_from_slice(part);
        Ok(f(&bytes))
    }

    /// Runs `f` over a mutable view of `[offset, offset+len)`.
    pub fn with_mut<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        let (w, o) = self.locate(offset, len)?;
        let (inner, need) = (&*self.inner, o + len);
        let mut windows = inner.windows.lock();
        let slot = slot(&mut windows, w);
        // Storage is sized to what is written, in powers of two up to the
        // window: taken from the slab if the window has none, replaced by
        // a copy if it is shared or too small.
        let fit = |c: &mut Chunk| Arc::get_mut(&mut c.bytes).is_some_and(|b| b.len() >= need);
        if !slot.as_mut().is_some_and(fit) {
            let held = slot.as_ref().map_or(&[][..], |c| &c.bytes[..c.len]);
            let size = need.max(held.len()).next_power_of_two().min(inner.window);
            match slot.replace(inner.slab.take(size, held)) {
                Some(outgrown) => inner.slab.give(outgrown),
                None => inner.slab.account(inner.node, inner.window, true),
            }
        }
        let chunk = slot.as_mut().expect("filled above");
        let bytes = Arc::get_mut(&mut chunk.bytes).expect("made unique above");
        if chunk.len < need {
            bytes[chunk.len..need].fill(0);
            chunk.len = need;
        }
        Ok(f(&mut bytes[o..need]))
    }

    /// Declares the contents of `[offset, offset+len)` dead, as posting a
    /// buffer for receive or recycling a transmission window does: every
    /// window wholly inside the range gives its storage back and reads as
    /// zeros until written again. Ranges are clamped, never rejected.
    pub fn discard(&self, offset: usize, len: usize) {
        let inner = &*self.inner;
        let end = offset.saturating_add(len).min(inner.len);
        let (first, last) = (offset.div_ceil(inner.window), end / inner.window);
        let mut windows = inner.windows.lock();
        for slot in windows.iter_mut().take(last).skip(first) {
            if let Some(chunk) = slot.take() {
                inner.slab.account(inner.node, inner.window, false);
                inner.slab.give(chunk);
            }
        }
    }

    /// [`MemoryRegion::discard`] for each access of a run that
    /// [`MemoryRegion::locate_run`] accepted. Only a buffer that is a whole
    /// window gives storage back, and a pool's lie back to back: one span.
    pub(crate) fn discard_run(&self, offset: usize, step: usize, count: usize, len: usize) {
        if step == len && len == self.inner.window {
            return self.discard(offset, len.saturating_mul(count));
        }
        for at in run_offsets(offset, step, count) {
            self.discard(at, len);
        }
    }

    /// Captures the message `[offset, offset+len)` at post time: shares
    /// the window when the message is all it holds, copies otherwise.
    pub(crate) fn capture(&self, offset: usize, len: usize) -> Result<Payload> {
        let (w, o) = self.locate(offset, len)?;
        let windows = self.inner.windows.lock();
        let chunk = match windows.get(w) {
            Some(Some(chunk)) if o == 0 && chunk.len <= len => chunk.clone(),
            _ => self.inner.slab.take(len, written(&windows, w, o, len)),
        };
        Ok(Payload { chunk, len })
    }

    /// Lands a captured message at `offset`. Storage that fits this
    /// region's windows and replaces everything the target window holds
    /// becomes the target window; anything else is copied in.
    pub(crate) fn land(&self, offset: usize, Payload { chunk, len }: Payload) -> Result<()> {
        let inner = &*self.inner;
        let (w, o) = self.locate(offset, len)?;
        let mut windows = inner.windows.lock();
        let fits = o == 0 && chunk.bytes.len() <= inner.window;
        if fits && written(&windows, w, len, usize::MAX).is_empty() {
            match slot(&mut windows, w).replace(chunk) {
                Some(replaced) => inner.slab.give(replaced),
                None => inner.slab.account(inner.node, inner.window, true),
            }
            return Ok(());
        }
        drop(windows);
        let copied = self.with_mut(offset, len, |dst| {
            let (head, tail) = dst.split_at_mut(chunk.len);
            head.copy_from_slice(&chunk.bytes[..chunk.len]);
            tail.fill(0);
        });
        inner.slab.give(chunk);
        copied
    }

    /// Reads a little-endian `u64` at `offset`.
    pub fn read_u64(&self, offset: usize) -> Result<u64> {
        self.with(offset, 8, |b| {
            u64::from_le_bytes(b.try_into().expect("8 bytes"))
        })
    }

    /// Writes a little-endian `u64` at `offset`.
    pub fn write_u64(&self, offset: usize, v: u64) -> Result<()> {
        self.write(offset, &v.to_le_bytes())
    }

    /// Discards all pending update notifications. A poller calls this
    /// before re-checking its condition so stale notifications cannot make
    /// the subsequent wait spin.
    pub fn drain_updates(&self) {
        while self.inner.update_gate.try_recv().is_some() {}
    }

    /// Blocks until a remote RDMA Write lands anywhere in this region or
    /// `timeout` elapses; returns whether an update arrived. Models a
    /// consumer polling local memory for updates made by a passive remote
    /// writer: the wakeup carries the polling latency and comes *early*, on
    /// the write (this is what makes polled ring buffers latency-neutral in
    /// the simulator).
    pub fn wait_update_timeout(&self, ctx: &SimContext, timeout: SimDuration) -> bool {
        matches!(
            self.inner.update_gate.recv_timeout(ctx, timeout),
            rshuffle_simnet::RecvTimeout::Value(())
        )
    }

    pub(crate) fn signal_update(&self) {
        self.inner.update_gate.push(());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(len: usize) -> MemoryRegion {
        MemoryRegion::new_for_tests(&Kernel::new(), 0, 1, len)
    }

    fn pool() -> (MemoryRegion, Arc<Slab>) {
        let slab = Arc::<Slab>::default();
        (
            MemoryRegion::new(&Kernel::new(), &slab, (0, 1), (64, 4)),
            slab,
        )
    }

    #[test]
    fn write_read_roundtrip() {
        let mr = region(64);
        mr.write(8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mr.read(8, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(mr.read(0, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn u64_roundtrip() {
        let mr = region(16);
        mr.write_u64(8, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(mr.read_u64(8).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let mr = region(16);
        assert!(matches!(
            mr.write(12, &[0; 8]),
            Err(VerbsError::OutOfBounds { .. })
        ));
        assert!(mr.read(16, 1).is_err());
        // Overflowing offsets must not panic.
        assert!(mr.read(usize::MAX, 2).is_err());
    }

    #[test]
    fn boundary_access_is_allowed() {
        let mr = region(16);
        assert!(mr.write(8, &[0; 8]).is_ok());
        assert!(mr.read(0, 16).is_ok());
        assert!(mr.read(16, 0).is_ok());
    }

    #[test]
    fn with_mut_mutates_in_place() {
        let mr = region(4);
        mr.with_mut(0, 4, |b| b.copy_from_slice(&[9, 9, 9, 9]))
            .unwrap();
        assert_eq!(mr.read(0, 4).unwrap(), vec![9; 4]);
    }

    #[test]
    fn unwritten_and_discarded_windows_read_zeros_and_windows_do_not_overlap() {
        let (mr, slab) = pool();
        assert_eq!(mr.read(64, 64).unwrap(), vec![0; 64]);
        assert_eq!(slab.resident(0), (0, 0), "reading allocates nothing");
        mr.write(70, &[5; 8]).unwrap();
        let mut expect = vec![0; 64];
        expect[6..14].fill(5);
        assert_eq!(mr.read(64, 64).unwrap(), expect, "gap and tail are zeros");
        // Half a window is not dead; the whole window is.
        mr.discard(64, 32);
        assert_eq!(mr.read(70, 8).unwrap(), vec![5; 8]);
        mr.discard(64, 64);
        assert_eq!(mr.read(64, 64).unwrap(), vec![0; 64]);
        // The recycled storage comes back clean.
        mr.write(130, &[9]).unwrap();
        assert_eq!(mr.read(128, 4).unwrap(), vec![0, 0, 9, 0]);
        assert_eq!(slab.resident(0), (64, 64));
        // Wire-derived garbage is clamped.
        mr.discard(usize::MAX - 1, 64);
        mr.discard(192, usize::MAX);
        // An access that straddles two windows is typed, never a panic.
        for access in [mr.write(60, &[1; 8]), mr.read(60, 8).map(drop)] {
            assert!(matches!(access, Err(VerbsError::OutOfBounds { .. })));
        }
        assert!(mr.with_mut(0, 65, |_| ()).is_err());
        assert!(mr.capture(100, 64).is_err());
        assert!(mr.write(56, &[1; 8]).is_ok(), "up to the boundary is fine");
    }

    #[test]
    fn storage_is_shared_with_clones_and_messages_and_returns_to_the_slab() {
        let (src, slab) = pool();
        let dst = MemoryRegion::new(&Kernel::new(), &slab, (0, 2), (64, 4));
        let free = |slab: &Slab| slab.free.lock().values().map(Vec::len).sum::<usize>();
        src.clone().write(64, b"header+rows").unwrap();
        assert_eq!(src.read(64, 6).unwrap(), b"header", "clones share storage");
        let msg = src.capture(64, 11).unwrap();
        // The sender rewrites its window while the message is in flight.
        src.write(64, b"H").unwrap();
        let storage = msg.chunk.bytes.clone();
        dst.land(128, msg).unwrap();
        let landed = dst.inner.windows.lock()[2].clone().expect("landed");
        assert!(Arc::ptr_eq(&landed.bytes, &storage), "lands without a copy");
        assert_eq!(dst.read(128, 12).unwrap(), b"header+rows\0");
        assert_eq!(src.read(64, 11).unwrap(), b"Header+rows");
        // Part of a window is copied out; a window holding more, copied into.
        assert_eq!(src.capture(70, 4).unwrap().chunk.bytes[..], *b"+row");
        dst.write(40, &[7]).unwrap();
        dst.land(0, src.capture(64, 11).unwrap()).unwrap();
        assert_eq!(dst.read(0, 11).unwrap(), b"Header+rows");
        assert_eq!(dst.read(40, 1).unwrap(), vec![7]);
        // The last holder to let go returns the storage, a drop included.
        drop((landed, storage));
        assert_eq!((slab.resident(0), free(&slab)), ((192, 192), 0));
        src.discard(64, 64);
        assert_eq!((slab.resident(0), free(&slab)), ((128, 192), 1));
        drop((src, dst));
        assert_eq!((slab.resident(0), free(&slab)), ((0, 192), 3));
    }
}
