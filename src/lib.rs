//! Umbrella crate re-exporting the whole reproduction.
pub use rshuffle;
pub use rshuffle_audit as audit;
pub use rshuffle_baselines as baselines;
pub use rshuffle_engine as engine;
pub use rshuffle_sched as sched;
pub use rshuffle_simnet as simnet;
pub use rshuffle_tpch as tpch;
pub use rshuffle_verbs as verbs;
