//! Connection management.
//!
//! Setting up RDMA communication is far more involved than a TCP socket:
//! Queue Pairs must be created, routing information exchanged out of band
//! and the QPs walked through the state machine (§2.2.3, §4.2). The paper
//! measures this cost in Figure 12. The helper here performs the state
//! transitions without charging time: `Exchange::build` wires every QP
//! untimed and charges the modelled per-QP setup cost separately
//! (`Exchange::charge_setup`); the out-of-band exchange is folded into
//! that constant (the simulated processes share an address space, so the
//! exchange itself is trivial).

use crate::error::Result;
use crate::qp::{AddressHandle, QueuePair};

/// Stateless helpers for bringing Queue Pairs to a usable state.
pub struct ConnectionManager;

impl ConnectionManager {
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
