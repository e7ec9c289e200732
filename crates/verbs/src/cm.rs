//! Connection management.
//!
//! Setting up RDMA communication is far more involved than a TCP socket:
//! Queue Pairs must be created, routing information exchanged out of band
//! and the QPs walked through the state machine (§2.2.3, §4.2). The paper
//! measures this cost in Figure 12. The helpers here perform the state
//! transitions and charge the modelled per-QP setup time to the calling
//! thread; the out-of-band exchange is folded into that constant (the
//! simulated processes share an address space, so the exchange itself is
//! trivial).

use rshuffle_simnet::SimContext;

use crate::error::Result;
use crate::qp::{AddressHandle, QueuePair};
use crate::types::QpType;

/// Stateless helpers for bringing Queue Pairs to a usable state.
pub struct ConnectionManager;

impl ConnectionManager {
    /// Brings an RC QP from RESET to RTS, connected to `peer`, charging the
    /// per-QP connection cost. The peer side must run the same call with
    /// this QP's address handle.
    pub fn connect_rc(sim: &SimContext, qp: &QueuePair, peer: AddressHandle) -> Result<()> {
        debug_assert_eq!(qp.qp_type(), QpType::Rc);
        // Modelled cost: QP creation attributes, out-of-band exchange and
        // the three modify_qp calls.
        sim.sleep(qp.profile_rc_setup());
        Self::activate_untimed(qp, Some(peer))
    }

    /// Tears an RC QP down (any state → RESET, discarding queued work)
    /// and re-establishes it to `peer`, charging the full per-QP
    /// connection cost again. This is the recovery path after a QP
    /// failure: the peer side must run the same call with this QP's
    /// address handle before traffic can flow.
    pub fn reconnect_rc(sim: &SimContext, qp: &QueuePair, peer: AddressHandle) -> Result<()> {
        debug_assert_eq!(qp.qp_type(), QpType::Rc);
        qp.reset()?;
        Self::connect_rc(sim, qp, peer)
    }

    /// Brings a QP to RTS without charging any setup time. For tests and
    /// for setup outside a measured window.
    pub fn activate_untimed(qp: &QueuePair, peer: Option<AddressHandle>) -> Result<()> {
        qp.modify_to_init()?;
        if let Some(p) = peer {
            qp.connect(p)?;
        }
        qp.modify_to_rtr()?;
        qp.modify_to_rts()?;
        Ok(())
    }
}
