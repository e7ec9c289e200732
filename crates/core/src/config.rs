//! The six shuffling-algorithm designs and their Table 1 properties.
//!
//! Two orthogonal choices (§4.5): the number of endpoints per operator
//! (SE = one shared, ME = one per thread) and the endpoint implementation
//! (SQ/SR = single UD Queue Pair with Send/Receive, MQ/SR = per-peer RC
//! Queue Pairs with Send/Receive, MQ/RD = per-peer RC Queue Pairs with
//! one-sided RDMA Read).

use std::fmt;

/// Endpoints per operator.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum EndpointMode {
    /// All threads share one endpoint ("SE").
    Single,
    /// One endpoint per thread ("ME").
    Multi,
}

/// Endpoint implementation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum EndpointImpl {
    /// Single UD Queue Pair, RDMA Send/Receive ("SQ/SR").
    SqSr,
    /// Per-peer RC Queue Pairs, RDMA Send/Receive ("MQ/SR").
    MqSr,
    /// Per-peer RC Queue Pairs, one-sided RDMA Read ("MQ/RD").
    MqRd,
    /// Per-peer RC Queue Pairs, one-sided RDMA Write ("MQ/WR") — the
    /// extension the paper lists as future work (§7).
    MqWr,
}

/// One of the paper's shuffling-algorithm designs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ShuffleAlgorithm {
    /// Endpoints per operator.
    pub mode: EndpointMode,
    /// Endpoint implementation.
    pub imp: EndpointImpl,
}

impl ShuffleAlgorithm {
    /// MEMQ/RD — multi-endpoint, RDMA Read over RC.
    pub const MEMQ_RD: ShuffleAlgorithm = ShuffleAlgorithm {
        mode: EndpointMode::Multi,
        imp: EndpointImpl::MqRd,
    };
    /// MEMQ/SR — multi-endpoint, Send/Receive over RC.
    pub const MEMQ_SR: ShuffleAlgorithm = ShuffleAlgorithm {
        mode: EndpointMode::Multi,
        imp: EndpointImpl::MqSr,
    };
    /// MESQ/SR — multi-endpoint, Send/Receive over UD (the paper's winner).
    pub const MESQ_SR: ShuffleAlgorithm = ShuffleAlgorithm {
        mode: EndpointMode::Multi,
        imp: EndpointImpl::SqSr,
    };
    /// SEMQ/RD — single-endpoint, RDMA Read over RC.
    pub const SEMQ_RD: ShuffleAlgorithm = ShuffleAlgorithm {
        mode: EndpointMode::Single,
        imp: EndpointImpl::MqRd,
    };
    /// SEMQ/SR — single-endpoint, Send/Receive over RC.
    pub const SEMQ_SR: ShuffleAlgorithm = ShuffleAlgorithm {
        mode: EndpointMode::Single,
        imp: EndpointImpl::MqSr,
    };
    /// SESQ/SR — single-endpoint, Send/Receive over UD.
    pub const SESQ_SR: ShuffleAlgorithm = ShuffleAlgorithm {
        mode: EndpointMode::Single,
        imp: EndpointImpl::SqSr,
    };

    /// The six designs of the paper, in Table 1 order.
    pub const ALL: [ShuffleAlgorithm; 6] = [
        Self::MEMQ_RD,
        Self::MEMQ_SR,
        Self::SEMQ_RD,
        Self::SEMQ_SR,
        Self::MESQ_SR,
        Self::SESQ_SR,
    ];

    /// Parses names like `"MESQ/SR"` (case-insensitive; the separator may
    /// be `/`, `_` as in the constants' names, or absent).
    pub fn parse(name: &str) -> Option<Self> {
        let n = name.to_ascii_uppercase().replace(['/', '_'], "");
        match n.as_str() {
            "MEMQRD" => Some(Self::MEMQ_RD),
            "MEMQSR" => Some(Self::MEMQ_SR),
            "MESQSR" => Some(Self::MESQ_SR),
            "SEMQRD" => Some(Self::SEMQ_RD),
            "SEMQSR" => Some(Self::SEMQ_SR),
            "SESQSR" => Some(Self::SESQ_SR),
            "MEMQWR" => Some(ShuffleAlgorithm {
                mode: EndpointMode::Multi,
                imp: EndpointImpl::MqWr,
            }),
            "SEMQWR" => Some(ShuffleAlgorithm {
                mode: EndpointMode::Single,
                imp: EndpointImpl::MqWr,
            }),
            _ => None,
        }
    }

    /// Endpoints per operator for a fragment with `threads` threads.
    pub fn endpoints(&self, threads: usize) -> usize {
        match self.mode {
            EndpointMode::Single => 1,
            EndpointMode::Multi => threads,
        }
    }

    /// Open connections (Queue Pairs) per node for point-to-point
    /// communication in an `n`-node cluster with `t` threads per fragment
    /// (Table 1, counting one operator's send side).
    pub fn qps_per_node(&self, n: usize, t: usize) -> usize {
        let lanes = self.endpoints(t);
        match self.imp {
            EndpointImpl::SqSr => lanes,
            EndpointImpl::MqSr | EndpointImpl::MqRd | EndpointImpl::MqWr => {
                lanes * n.saturating_sub(1).max(1)
            }
        }
    }

    /// Thread-contention class from Table 1.
    pub fn contention(&self) -> Contention {
        match (self.mode, self.imp) {
            (EndpointMode::Multi, _) => Contention::None,
            (EndpointMode::Single, EndpointImpl::SqSr) => Contention::Excessive,
            (EndpointMode::Single, _) => Contention::Moderate,
        }
    }

    /// Whether the transport guarantees delivery in hardware.
    pub fn reliable_transport(&self) -> bool {
        !matches!(self.imp, EndpointImpl::SqSr)
    }

    /// Whether data moves through one-sided operations.
    pub fn one_sided(&self) -> bool {
        matches!(self.imp, EndpointImpl::MqRd | EndpointImpl::MqWr)
    }

    /// Maximum message size of the transport (Table 1).
    pub fn max_message(&self, mtu: usize, max_rc: usize) -> usize {
        match self.imp {
            EndpointImpl::SqSr => mtu,
            _ => max_rc,
        }
    }
}

/// Thread-contention classes of Table 1.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Contention {
    /// Dedicated endpoints: no contention.
    None,
    /// One endpoint, multiple QPs: moderate contention.
    Moderate,
    /// One endpoint, one QP: excessive contention.
    Excessive,
}

impl fmt::Display for ShuffleAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match self.mode {
            EndpointMode::Single => "SE",
            EndpointMode::Multi => "ME",
        };
        let imp = match self.imp {
            EndpointImpl::SqSr => "SQ/SR",
            EndpointImpl::MqSr => "MQ/SR",
            EndpointImpl::MqRd => "MQ/RD",
            EndpointImpl::MqWr => "MQ/WR",
        };
        write!(f, "{mode}{imp}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_qp_counts() {
        // Table 1, n = 16 nodes, t = 14 threads (QPs for one operator's
        // point-to-point connectivity; peers = n − 1).
        let (n, t) = (16, 14);
        assert_eq!(ShuffleAlgorithm::MEMQ_RD.qps_per_node(n, t), 15 * 14);
        assert_eq!(ShuffleAlgorithm::MEMQ_SR.qps_per_node(n, t), 15 * 14);
        assert_eq!(ShuffleAlgorithm::SEMQ_RD.qps_per_node(n, t), 15);
        assert_eq!(ShuffleAlgorithm::SEMQ_SR.qps_per_node(n, t), 15);
        assert_eq!(ShuffleAlgorithm::MESQ_SR.qps_per_node(n, t), 14);
        assert_eq!(ShuffleAlgorithm::SESQ_SR.qps_per_node(n, t), 1);
    }

    #[test]
    fn table1_contention() {
        assert_eq!(ShuffleAlgorithm::MEMQ_SR.contention(), Contention::None);
        assert_eq!(ShuffleAlgorithm::MESQ_SR.contention(), Contention::None);
        assert_eq!(ShuffleAlgorithm::SEMQ_SR.contention(), Contention::Moderate);
        assert_eq!(ShuffleAlgorithm::SEMQ_RD.contention(), Contention::Moderate);
        assert_eq!(
            ShuffleAlgorithm::SESQ_SR.contention(),
            Contention::Excessive
        );
    }

    #[test]
    fn table1_transport_properties() {
        // UD: half-trip messaging, ≤4 KiB, error control in software.
        assert!(!ShuffleAlgorithm::MESQ_SR.reliable_transport());
        assert_eq!(ShuffleAlgorithm::MESQ_SR.max_message(4096, 1 << 30), 4096);
        // RC: round-trip, up to 1 GiB, error control in hardware.
        assert!(ShuffleAlgorithm::MEMQ_SR.reliable_transport());
        assert_eq!(
            ShuffleAlgorithm::SEMQ_RD.max_message(4096, 1 << 30),
            1 << 30
        );
        // Read is not supported by InfiniBand over UD: no such combination
        // exists in ALL.
        assert!(ShuffleAlgorithm::ALL
            .iter()
            .all(|a| !a.one_sided() || a.reliable_transport()));
    }

    #[test]
    fn parse_round_trips_display() {
        for a in ShuffleAlgorithm::ALL {
            assert_eq!(ShuffleAlgorithm::parse(&a.to_string()), Some(a));
        }
        assert_eq!(
            ShuffleAlgorithm::parse("mesq/sr"),
            Some(ShuffleAlgorithm::MESQ_SR)
        );
        assert_eq!(
            ShuffleAlgorithm::parse("MEMQ_RD"),
            Some(ShuffleAlgorithm::MEMQ_RD)
        );
        assert!(
            ShuffleAlgorithm::parse("SESQRD").is_none(),
            "UD cannot do RDMA Read"
        );
    }
}
