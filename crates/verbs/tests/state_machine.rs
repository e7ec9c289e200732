//! QP state-machine conformance: the RESET→INIT→RTR→RTS ladder must be
//! walked in order, RC must be connected before RTR, and illegal
//! transitions are rejected with precise errors.

use std::sync::Arc;

use rshuffle_simnet::{Cluster, DeviceProfile};
use rshuffle_verbs::{AddressHandle, QpNum, QpState, QpType, VerbsError, VerbsRuntime};

fn runtime() -> Arc<VerbsRuntime> {
    VerbsRuntime::new(Cluster::new(2, DeviceProfile::edr()))
}

#[test]
fn happy_path_walks_the_ladder() {
    let rt = runtime();
    let ctx = rt.context(0);
    let cq = ctx.create_cq();
    let qp = ctx.create_qp(QpType::Rc, cq.clone(), cq);
    assert_eq!(qp.state(), QpState::Reset);
    qp.modify_to_init().unwrap();
    assert_eq!(qp.state(), QpState::Init);
    qp.connect(AddressHandle {
        node: 1,
        qpn: QpNum(99),
    })
    .unwrap();
    qp.modify_to_rtr().unwrap();
    assert_eq!(qp.state(), QpState::ReadyToReceive);
    qp.modify_to_rts().unwrap();
    assert_eq!(qp.state(), QpState::ReadyToSend);
}

#[test]
fn rtr_requires_connection_on_rc() {
    let rt = runtime();
    let ctx = rt.context(0);
    let cq = ctx.create_cq();
    let qp = ctx.create_qp(QpType::Rc, cq.clone(), cq);
    qp.modify_to_init().unwrap();
    assert!(matches!(
        qp.modify_to_rtr().unwrap_err(),
        VerbsError::NotConnected(_)
    ));
}

#[test]
fn ud_does_not_connect() {
    let rt = runtime();
    let ctx = rt.context(0);
    let cq = ctx.create_cq();
    let qp = ctx.create_qp(QpType::Ud, cq.clone(), cq);
    qp.modify_to_init().unwrap();
    assert!(matches!(
        qp.connect(AddressHandle {
            node: 1,
            qpn: QpNum(1)
        })
        .unwrap_err(),
        VerbsError::UnsupportedOp { .. }
    ));
    // UD reaches RTR/RTS without a peer.
    qp.modify_to_rtr().unwrap();
    qp.modify_to_rts().unwrap();
}

#[test]
fn transitions_cannot_be_skipped_or_repeated() {
    let rt = runtime();
    let ctx = rt.context(0);
    let cq = ctx.create_cq();
    let qp = ctx.create_qp(QpType::Ud, cq.clone(), cq);
    // Skip INIT.
    assert!(matches!(
        qp.modify_to_rtr().unwrap_err(),
        VerbsError::InvalidState { .. }
    ));
    qp.modify_to_init().unwrap();
    // Repeat INIT.
    assert!(matches!(
        qp.modify_to_init().unwrap_err(),
        VerbsError::InvalidState { .. }
    ));
    qp.modify_to_rtr().unwrap();
    qp.modify_to_rts().unwrap();
    // Repeat RTS.
    assert!(matches!(
        qp.modify_to_rts().unwrap_err(),
        VerbsError::InvalidState { .. }
    ));
}

#[test]
fn connect_after_init_only() {
    let rt = runtime();
    let ctx = rt.context(0);
    let cq = ctx.create_cq();
    let qp = ctx.create_qp(QpType::Rc, cq.clone(), cq);
    // Too early (RESET).
    assert!(matches!(
        qp.connect(AddressHandle {
            node: 1,
            qpn: QpNum(1)
        })
        .unwrap_err(),
        VerbsError::InvalidState { .. }
    ));
}

#[test]
fn qpns_are_unique_across_nodes() {
    let rt = runtime();
    let mut seen = std::collections::HashSet::new();
    for node in 0..2 {
        let ctx = rt.context(node);
        for _ in 0..8 {
            let cq = ctx.create_cq();
            let qp = ctx.create_qp(QpType::Ud, cq.clone(), cq);
            assert!(seen.insert(qp.qpn()), "duplicate {:?}", qp.qpn());
        }
    }
}
