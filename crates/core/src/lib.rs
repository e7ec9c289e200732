//! RDMA-aware data shuffling operators for parallel database systems.
//!
//! A Rust reproduction of Liu, Yin and Blanas, *"Design and Evaluation of
//! an RDMA-aware Data Shuffling Operator for Parallel Database Systems"*
//! (EuroSys 2017), over a simulated InfiniBand fabric
//! ([`rshuffle_simnet`] / [`rshuffle_verbs`]).
//!
//! The crate provides:
//!
//! * the [`TransmissionGroups`] abstraction for repartition / multicast /
//!   broadcast patterns (§4.1),
//! * the thread-safe communication-endpoint abstraction
//!   ([`SendEndpoint`] / [`ReceiveEndpoint`], §4.2) with four
//!   implementations — Send/Receive over RC (§4.4.1), Send/Receive over UD
//!   (§4.4.2), one-sided RDMA Read over RC (§4.4.3) and the future-work
//!   RDMA Write endpoint (§7),
//! * the pull-based, vectorized [`ShuffleOperator`] and
//!   [`ReceiveOperator`] (§4.3),
//! * the [`ShuffleAlgorithm`] design matrix of Table 1 and the
//!   [`Exchange`] builder that wires a cluster-wide shuffle.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use rshuffle::{Exchange, ExchangeConfig, ShuffleAlgorithm};
//! use rshuffle_simnet::{Cluster, DeviceProfile};
//! use rshuffle_verbs::VerbsRuntime;
//!
//! let cluster = Cluster::new(4, DeviceProfile::edr());
//! let runtime = VerbsRuntime::new(cluster);
//! let config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, 4, 2);
//! let exchange = Exchange::build(&runtime, &config).unwrap();
//! assert_eq!(exchange.lanes, 2); // multi-endpoint: one lane per thread
//! ```

#![warn(missing_docs)]

pub mod advisor;
pub mod buffer;
pub mod config;
pub mod endpoint;
pub mod error;
pub mod exchange;
pub mod group;
pub mod ledger;
pub mod operator;
pub mod phase;
#[cfg(feature = "saboteur")]
pub mod sabotage;

pub use advisor::{Advice, AdvisorSignals, AlgorithmAdvisor};
pub use buffer::{Buffer, MsgHeader, MsgKind, StreamState, HEADER_LEN};
pub use config::{Contention, EndpointImpl, EndpointMode, ShuffleAlgorithm};
pub use endpoint::{Delivery, EndpointId, ReceiveEndpoint, SendEndpoint};
pub use error::{Result, ShuffleError};
pub use exchange::{Exchange, ExchangeConfig};
pub use group::TransmissionGroups;
pub use ledger::FlowLedger;
pub use operator::{
    default_partition_hash, CostModel, Operator, ReceiveOperator, RowBatch, ShuffleOperator,
};
pub use phase::{Phase, PhasePolicy, PhaseRunner, PhaseSchedule, HEAVY_SOURCE_FACTOR};
