//! RDMA transmission buffers and the on-wire message header.
//!
//! Every message an endpoint transmits is a fixed-capacity window of a
//! registered [`MemoryRegion`] with a small metadata header in front of the
//! tuple payload, exactly as Algorithm 3 of the paper "encode\[s\]
//! (destarr, state, source, addr) as metadata in buffer". All endpoint
//! implementations share this layout so the operators above are oblivious
//! to the transport.
//!
//! Header layout (little-endian, [`HEADER_LEN`] = 32 bytes):
//!
//! | bytes   | field                                                    |
//! |---------|----------------------------------------------------------|
//! | 0..4    | source endpoint id                                       |
//! | 4       | message kind (data / credit)                             |
//! | 5       | stream state (`MoreData` / `Depleted`)                   |
//! | 6..8    | flow epoch (bumped on partial retry; receivers discard   |
//! |         | stale-epoch arrivals)                                    |
//! | 8..12   | payload length in bytes                                  |
//! | 12..14  | source worker thread id (keys the recovery flow ledger)  |
//! | 14..16  | reserved                                                 |
//! | 16..24  | total data messages sent to this destination (valid when |
//! |         | state is `Depleted`; drives UD termination counting) or  |
//! |         | absolute credit value for credit messages                |
//! | 24..32  | sender-side buffer address (offset; lets the RDMA Read   |
//! |         | receiver RELEASE the right remote buffer)                |

use parking_lot::Mutex;
use rshuffle_verbs::MemoryRegion;

use crate::error::{Result, ShuffleError};

/// Size of the message header at the start of every transmission buffer.
pub const HEADER_LEN: usize = 32;

/// Whether more data follows on this stream (§4.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StreamState {
    /// More buffers will follow.
    MoreData,
    /// This is the final buffer from this endpoint.
    Depleted,
}

/// What a message carries.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Tuple payload.
    Data,
    /// A flow-control credit update (UD endpoints write credit back as
    /// datagrams on the shared queue pair).
    Credit,
}

/// Decoded message header.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MsgHeader {
    /// Source endpoint id.
    pub src: u32,
    /// Message kind.
    pub kind: MsgKind,
    /// Stream state.
    pub state: StreamState,
    /// Flow epoch this message belongs to. Healthy queries run entirely
    /// in epoch 0; a partial retry rebuilds the exchange with a bumped
    /// epoch so receivers can discard stale in-flight arrivals from the
    /// aborted attempt (exactly-once delivery without a global barrier).
    pub epoch: u16,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Worker thread id that produced the payload; keys the recovery
    /// layer's per-flow ledger `(src node, src thread, dst node)`.
    pub src_tid: u16,
    /// Total data messages sent (Depleted) or absolute credit (Credit).
    pub counter: u64,
    /// Sender-side buffer offset (RDMA Read endpoints).
    pub remote_addr: u64,
}

impl MsgHeader {
    /// Encodes the header into `dst` (which must be at least
    /// [`HEADER_LEN`] bytes).
    pub fn encode(&self, dst: &mut [u8]) {
        assert!(dst.len() >= HEADER_LEN);
        dst[0..4].copy_from_slice(&self.src.to_le_bytes());
        dst[4] = match self.kind {
            MsgKind::Data => 0,
            MsgKind::Credit => 1,
        };
        dst[5] = match self.state {
            StreamState::MoreData => 0,
            StreamState::Depleted => 1,
        };
        dst[6..8].copy_from_slice(&self.epoch.to_le_bytes());
        dst[8..12].copy_from_slice(&self.payload_len.to_le_bytes());
        dst[12..14].copy_from_slice(&self.src_tid.to_le_bytes());
        dst[14..16].copy_from_slice(&[0; 2]);
        dst[16..24].copy_from_slice(&self.counter.to_le_bytes());
        dst[24..32].copy_from_slice(&self.remote_addr.to_le_bytes());
    }

    /// Decodes a header from `src`.
    ///
    /// Header bytes travel over the (simulated) wire, so a short slice
    /// or an invalid enum tag is treated as data corruption and
    /// surfaces as [`ShuffleError::Corrupt`] — the query restarts
    /// rather than aborting the process.
    pub fn decode(src: &[u8]) -> Result<Self> {
        if src.len() < HEADER_LEN {
            return Err(ShuffleError::Corrupt(format!(
                "message header truncated: {} of {HEADER_LEN} bytes",
                src.len()
            )));
        }
        Ok(MsgHeader {
            src: u32::from_le_bytes(src[0..4].try_into().expect("4 bytes")),
            kind: match src[4] {
                0 => MsgKind::Data,
                1 => MsgKind::Credit,
                k => {
                    return Err(ShuffleError::Corrupt(format!(
                        "message header kind tag {k} is not a MsgKind"
                    )))
                }
            },
            state: match src[5] {
                0 => StreamState::MoreData,
                1 => StreamState::Depleted,
                s => {
                    return Err(ShuffleError::Corrupt(format!(
                        "message header state tag {s} is not a StreamState"
                    )))
                }
            },
            epoch: u16::from_le_bytes(src[6..8].try_into().expect("2 bytes")),
            payload_len: u32::from_le_bytes(src[8..12].try_into().expect("4 bytes")),
            src_tid: u16::from_le_bytes(src[12..14].try_into().expect("2 bytes")),
            counter: u64::from_le_bytes(src[16..24].try_into().expect("8 bytes")),
            remote_addr: u64::from_le_bytes(src[24..32].try_into().expect("8 bytes")),
        })
    }
}

/// A fixed-capacity transmission buffer: a window of a registered memory
/// region holding a header plus tuple payload.
///
/// Obtained from [`SendEndpoint::get_free`](crate::endpoint::SendEndpoint::get_free)
/// and consumed by [`SendEndpoint::send`](crate::endpoint::SendEndpoint::send);
/// on the receive side, delivered by
/// [`ReceiveEndpoint::get_data`](crate::endpoint::ReceiveEndpoint::get_data)
/// and returned with
/// [`ReceiveEndpoint::release`](crate::endpoint::ReceiveEndpoint::release).
#[derive(Clone)]
pub struct Buffer {
    mr: MemoryRegion,
    /// Offset of the header within the region.
    offset: usize,
    /// Total window size including the header.
    window: usize,
    /// Payload bytes currently written.
    len: usize,
    /// Worker thread id the operator stamps before filling the buffer;
    /// copied into the header's `src_tid` field by the endpoints.
    tag: u16,
}

impl Buffer {
    /// Creates a buffer over `[offset, offset + window)` of `mr`.
    ///
    /// # Panics
    ///
    /// Panics if the window is smaller than the header or out of bounds.
    /// Use [`Buffer::try_new`] when the offset is derived from wire data
    /// (a completion's `wr_id`, a ring-slot entry) rather than local
    /// pool bookkeeping.
    pub fn new(mr: MemoryRegion, offset: usize, window: usize) -> Self {
        assert!(window > HEADER_LEN, "buffer window must exceed the header");
        assert!(offset + window <= mr.len(), "buffer window out of bounds");
        Buffer {
            mr,
            offset,
            window,
            len: 0,
            tag: 0,
        }
    }

    /// Fallible [`Buffer::new`] for offsets that arrive over the wire: a
    /// window that is too small or out of bounds surfaces as
    /// [`ShuffleError::Corrupt`] so the query restarts instead of
    /// aborting.
    pub fn try_new(mr: MemoryRegion, offset: usize, window: usize) -> Result<Self> {
        if window <= HEADER_LEN {
            return Err(ShuffleError::Corrupt(format!(
                "buffer window of {window} bytes cannot hold the {HEADER_LEN}-byte header"
            )));
        }
        if offset.checked_add(window).is_none_or(|end| end > mr.len()) {
            return Err(ShuffleError::Corrupt(format!(
                "buffer window [{offset}, {offset}+{window}) outside region of {} bytes",
                mr.len()
            )));
        }
        Ok(Buffer {
            mr,
            offset,
            window,
            len: 0,
            tag: 0,
        })
    }

    /// The worker-thread tag stamped by [`Buffer::set_tag`] (zero until
    /// stamped).
    pub fn tag(&self) -> u16 {
        self.tag
    }

    /// Stamps the worker thread id that fills this buffer; the endpoints
    /// copy it into the wire header so receivers can attribute rows to
    /// the `(src node, src thread)` flow they came from.
    pub fn set_tag(&mut self, tag: u16) {
        self.tag = tag;
    }

    /// Payload capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.window - HEADER_LEN
    }

    /// Payload bytes currently written.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no payload has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remaining payload capacity.
    pub fn remaining(&self) -> usize {
        self.capacity() - self.len
    }

    /// Offset of the buffer window within its memory region.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Total window size (header + payload capacity).
    pub fn window(&self) -> usize {
        self.window
    }

    /// The backing memory region.
    pub fn region(&self) -> &MemoryRegion {
        &self.mr
    }

    /// Appends `bytes` to the payload.
    ///
    /// Returns [`ShuffleError::Config`] if the payload would overflow; the
    /// operators check [`Buffer::remaining`] before writing.
    pub fn push(&mut self, bytes: &[u8]) -> Result<()> {
        if bytes.len() > self.remaining() {
            return Err(ShuffleError::Config(format!(
                "payload overflow: {} bytes into {} remaining",
                bytes.len(),
                self.remaining()
            )));
        }
        self.mr.write(self.offset + HEADER_LEN + self.len, bytes)?;
        self.len += bytes.len();
        Ok(())
    }

    /// Copies the payload out.
    pub fn payload(&self) -> Result<Vec<u8>> {
        Ok(self.mr.read(self.offset + HEADER_LEN, self.len)?)
    }

    /// Runs `f` over the payload without copying.
    pub fn with_payload<R>(&self, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        Ok(self.mr.with(self.offset + HEADER_LEN, self.len, f)?)
    }

    /// Resets the payload length to zero (contents are left in place).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Writes `header` into the buffer's header area.
    pub fn write_header(&self, header: &MsgHeader) -> Result<()> {
        Ok(self
            .mr
            .with_mut(self.offset, HEADER_LEN, |b| header.encode(b))?)
    }

    /// Reads and decodes the buffer's header area. Invalid wire bytes
    /// surface as [`ShuffleError::Corrupt`].
    pub fn read_header(&self) -> Result<MsgHeader> {
        self.mr.with(self.offset, HEADER_LEN, MsgHeader::decode)?
    }

    /// Sets the payload length after bytes arrived in place (receive
    /// path). The length comes from a wire header, so a value exceeding
    /// the window's capacity is rejected as [`ShuffleError::Corrupt`]
    /// rather than trusted.
    pub(crate) fn set_len(&mut self, len: usize) -> Result<()> {
        if len > self.capacity() {
            return Err(ShuffleError::Corrupt(format!(
                "received payload of {len} bytes exceeds buffer capacity {}",
                self.capacity()
            )));
        }
        self.len = len;
        Ok(())
    }

    /// Wire size of the message currently in the buffer (header + payload).
    pub fn message_len(&self) -> usize {
        HEADER_LEN + self.len
    }
}

/// A recycle pool of fixed-size transmission windows over one registered
/// [`MemoryRegion`].
///
/// The windows are carved once at setup; afterwards the steady state is
/// allocation-free: [`BufferPool::try_take`] pops a recycled window and
/// [`BufferPool::recycle_offset`] re-arms the window a completion or a
/// released delivery names — validating the wire-derived offset exactly
/// like [`Buffer::try_new`], but without constructing anything new. The
/// free list is LIFO and the pool itself never advances virtual time, so
/// same-seed runs stay byte-identical. A recycled window's contents are dead
/// ([`MemoryRegion::discard`]): it costs the host no memory until refilled.
pub struct BufferPool {
    mr: MemoryRegion,
    window: usize,
    free: Mutex<Vec<Buffer>>,
    capacity: usize,
}

impl BufferPool {
    /// Carves `count` contiguous windows of `window` bytes starting at
    /// `base` and arms them all as free.
    ///
    /// # Panics
    ///
    /// Panics (via [`Buffer::new`]) if any window is smaller than the
    /// header or out of bounds — pool geometry is local configuration,
    /// not wire data.
    pub fn carve(mr: MemoryRegion, base: usize, window: usize, count: usize) -> Self {
        let mut free = Vec::with_capacity(count);
        // Reverse the fill so try_take hands out ascending offsets.
        for i in (0..count).rev() {
            free.push(Buffer::new(mr.clone(), base + i * window, window));
        }
        BufferPool {
            mr,
            window,
            free: Mutex::new(free),
            capacity: count,
        }
    }

    /// Pops a free window, reset to an empty payload and a zero tag —
    /// indistinguishable from a freshly constructed [`Buffer`]. Returns
    /// `None` when every window is in flight.
    pub fn try_take(&self) -> Option<Buffer> {
        let mut buf = self.free.lock().pop()?;
        buf.len = 0;
        buf.tag = 0;
        Some(buf)
    }

    /// Re-arms the window starting at `offset` (a value that typically
    /// arrived over the wire in a completion's `wr_id` or a ring slot).
    /// Bounds and alignment are validated before the window rejoins the
    /// free list; garbage surfaces as [`ShuffleError::Corrupt`].
    pub fn recycle_offset(&self, offset: usize) -> Result<()> {
        if offset
            .checked_add(self.window)
            .is_none_or(|end| end > self.mr.len())
        {
            return Err(ShuffleError::Corrupt(format!(
                "recycled window [{offset}, {offset}+{}) outside region of {} bytes",
                self.window,
                self.mr.len()
            )));
        }
        let mut free = self.free.lock();
        if free.len() >= self.capacity {
            return Err(ShuffleError::Corrupt(format!(
                "recycle of offset {offset} would overfill a pool of {} windows",
                self.capacity
            )));
        }
        self.mr.discard(offset, self.window);
        free.push(Buffer {
            mr: self.mr.clone(),
            offset,
            window: self.window,
            len: 0,
            tag: 0,
        });
        Ok(())
    }

    /// Returns a buffer to the pool (local bookkeeping, no validation).
    pub fn recycle(&self, mut buf: Buffer) {
        buf.len = 0;
        buf.tag = 0;
        buf.mr.discard(buf.offset, buf.window);
        self.free.lock().push(buf);
    }

    /// Windows currently free.
    pub fn free_len(&self) -> usize {
        self.free.lock().len()
    }

    /// Total windows carved at setup.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Window size in bytes (header + payload capacity).
    pub fn window(&self) -> usize {
        self.window
    }

    /// The backing memory region.
    pub fn region(&self) -> &MemoryRegion {
        &self.mr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rshuffle_simnet::Kernel;

    fn mr(len: usize) -> MemoryRegion {
        // Construct through the verbs test hook: a standalone region.
        rshuffle_verbs::MemoryRegion::new_for_tests(&Kernel::new(), 0, 1, len)
    }

    #[test]
    fn header_roundtrip() {
        let h = MsgHeader {
            src: 42,
            kind: MsgKind::Data,
            state: StreamState::Depleted,
            epoch: 3,
            payload_len: 1234,
            src_tid: 5,
            counter: 0xABCD_EF01_2345_6789,
            remote_addr: 65536,
        };
        let mut bytes = [0u8; HEADER_LEN];
        h.encode(&mut bytes);
        assert_eq!(MsgHeader::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn credit_header_roundtrip() {
        let h = MsgHeader {
            src: 7,
            kind: MsgKind::Credit,
            state: StreamState::MoreData,
            epoch: 0,
            payload_len: 0,
            src_tid: 0,
            counter: 99,
            remote_addr: 0,
        };
        let mut bytes = [0u8; HEADER_LEN];
        h.encode(&mut bytes);
        assert_eq!(MsgHeader::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn corrupt_headers_are_rejected_not_panicked() {
        let short = [0u8; HEADER_LEN - 1];
        assert!(matches!(
            MsgHeader::decode(&short),
            Err(ShuffleError::Corrupt(_))
        ));
        let mut bytes = [0u8; HEADER_LEN];
        bytes[4] = 9; // invalid kind tag
        assert!(matches!(
            MsgHeader::decode(&bytes),
            Err(ShuffleError::Corrupt(_))
        ));
        bytes[4] = 0;
        bytes[5] = 7; // invalid state tag
        assert!(matches!(
            MsgHeader::decode(&bytes),
            Err(ShuffleError::Corrupt(_))
        ));
    }

    #[test]
    fn push_and_payload_roundtrip() {
        let mr = mr(4096);
        let mut buf = Buffer::new(mr, 0, 1024);
        assert_eq!(buf.capacity(), 1024 - HEADER_LEN);
        buf.push(b"abc").unwrap();
        buf.push(b"defg").unwrap();
        assert_eq!(buf.len(), 7);
        assert_eq!(buf.payload().unwrap(), b"abcdefg".to_vec());
    }

    #[test]
    fn try_new_rejects_wire_derived_garbage() {
        assert!(matches!(
            Buffer::try_new(mr(4096), 0, HEADER_LEN),
            Err(ShuffleError::Corrupt(_))
        ));
        assert!(matches!(
            Buffer::try_new(mr(4096), 4000, 1024),
            Err(ShuffleError::Corrupt(_))
        ));
        assert!(matches!(
            Buffer::try_new(mr(4096), usize::MAX - 64, 1024),
            Err(ShuffleError::Corrupt(_))
        ));
        assert!(Buffer::try_new(mr(4096), 1024, 1024).is_ok());
    }

    #[test]
    fn oversized_set_len_is_rejected() {
        let mut buf = Buffer::new(mr(4096), 0, 256);
        assert!(buf.set_len(256 - HEADER_LEN).is_ok());
        assert!(matches!(
            buf.set_len(256 - HEADER_LEN + 1),
            Err(ShuffleError::Corrupt(_))
        ));
    }

    #[test]
    fn push_overflow_is_rejected() {
        let mr = mr(4096);
        let mut buf = Buffer::new(mr, 0, HEADER_LEN + 8);
        assert!(buf.push(&[0; 8]).is_ok());
        assert!(matches!(buf.push(&[0; 1]), Err(ShuffleError::Config(_))));
    }

    #[test]
    fn header_and_payload_do_not_overlap() {
        let mr = mr(4096);
        let mut buf = Buffer::new(mr, 128, 256);
        buf.push(&[0xAA; 16]).unwrap();
        let h = MsgHeader {
            src: 1,
            kind: MsgKind::Data,
            state: StreamState::MoreData,
            epoch: 1,
            payload_len: 16,
            src_tid: 2,
            counter: 0,
            remote_addr: 128,
        };
        buf.write_header(&h).unwrap();
        assert_eq!(buf.read_header().unwrap(), h);
        assert_eq!(buf.payload().unwrap(), vec![0xAA; 16]);
    }

    #[test]
    fn clear_resets_length_only() {
        let mr = mr(4096);
        let mut buf = Buffer::new(mr, 0, 256);
        buf.push(&[1, 2, 3]).unwrap();
        buf.clear();
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.remaining(), buf.capacity());
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn window_smaller_than_header_panics() {
        let mr = mr(4096);
        let _ = Buffer::new(mr, 0, HEADER_LEN);
    }

    #[test]
    fn pool_hands_out_ascending_offsets_then_recycles_lifo() {
        let pool = BufferPool::carve(mr(4096), 0, 512, 4);
        assert_eq!(pool.capacity(), 4);
        assert_eq!(pool.free_len(), 4);
        let a = pool.try_take().unwrap();
        let b = pool.try_take().unwrap();
        assert_eq!(a.offset(), 0);
        assert_eq!(b.offset(), 512);
        pool.recycle(a);
        // LIFO: the most recently recycled window comes back first.
        assert_eq!(pool.try_take().unwrap().offset(), 0);
    }

    #[test]
    fn pool_take_resets_payload_and_tag() {
        let pool = BufferPool::carve(mr(4096), 0, 512, 1);
        let mut buf = pool.try_take().unwrap();
        buf.push(&[1, 2, 3]).unwrap();
        buf.set_tag(9);
        pool.recycle(buf);
        let again = pool.try_take().unwrap();
        assert_eq!(again.len(), 0);
        assert_eq!(again.tag(), 0);
        assert!(pool.try_take().is_none());
    }

    #[test]
    fn pool_recycle_offset_validates_wire_garbage() {
        let pool = BufferPool::carve(mr(4096), 0, 512, 2);
        let taken = pool.try_take().unwrap();
        assert!(matches!(
            pool.recycle_offset(4000),
            Err(ShuffleError::Corrupt(_))
        ));
        assert!(matches!(
            pool.recycle_offset(usize::MAX - 64),
            Err(ShuffleError::Corrupt(_))
        ));
        pool.recycle_offset(taken.offset()).unwrap();
        assert_eq!(pool.free_len(), 2);
        // Overfilling (a duplicate recycle) is wire garbage too.
        assert!(matches!(
            pool.recycle_offset(0),
            Err(ShuffleError::Corrupt(_))
        ));
    }
}
