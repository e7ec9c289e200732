//! Adaptive Exchange selection: picks a shuffle design (and phase
//! policy) per query from *observable* signals only.
//!
//! The paper's evaluation (Figures 9–13) shows no design dominates:
//! RDMA READ wins small clusters with big messages, the UD design wins
//! at scale and under memory pressure, single-endpoint variants trade
//! throughput for Queue-Pair state. The advisor encodes those crossovers
//! as rules over signals a planner can actually see *before* running
//! the query — cluster shape, message size, fan-out, co-runner load,
//! registered-memory headroom, topology oversubscription — and returns
//! a short ranked list of finalists. Callers that can afford it (the
//! `adaptive` bench) break ties with a one-shot calibrate-style
//! microprobe over the finalists; callers that cannot just take
//! [`Advice::pick`].
//!
//! Every rule that fires leaves a `(signal, decision)` line in
//! [`Advice::rationale`], so `diag` can dump the full signal → decision
//! table.

use crate::config::{EndpointImpl, EndpointMode, ShuffleAlgorithm};
use crate::phase::PhasePolicy;

/// The §7 one-sided WRITE variant of MEMQ (not one of the six named
/// constants, so spelled out rather than parsed on the advice path).
const MEMQ_WR: ShuffleAlgorithm = ShuffleAlgorithm {
    mode: EndpointMode::Multi,
    imp: EndpointImpl::MqWr,
};

/// Observable inputs to the advisor. Everything here is known before
/// the query transmits a single row: shape from the plan, load from the
/// scheduler, topology from the fabric description.
#[derive(Clone, Debug)]
pub struct AdvisorSignals {
    /// Cluster size (nodes).
    pub nodes: usize,
    /// Worker threads per node.
    pub threads: usize,
    /// Configured message size for the RC designs (bytes).
    pub message_size: usize,
    /// Any transmission group with more than one member (multicast)?
    pub broadcast: bool,
    /// Other queries running or queued on the same scheduler.
    pub co_runners: usize,
    /// Smallest per-node registered-memory headroom under the
    /// scheduler's budget, in bytes (`None` = ungoverned).
    pub mem_headroom: Option<usize>,
    /// Topology oversubscription ratio (1.0 = full bisection).
    pub oversubscription: f64,
    /// Does the fabric model incast collapse on congested ports?
    pub incast: bool,
    /// Declared skew of the per-node send volumes
    /// (max / mean, 1.0 = uniform; from the plan's statistics).
    pub skew: f64,
}

impl AdvisorSignals {
    /// Uniform, unloaded, full-bisection baseline for `nodes` ×
    /// `threads` with `message_size`-byte messages.
    pub fn baseline(nodes: usize, threads: usize, message_size: usize) -> AdvisorSignals {
        AdvisorSignals {
            nodes,
            threads,
            message_size,
            broadcast: false,
            co_runners: 0,
            mem_headroom: None,
            oversubscription: 1.0,
            incast: false,
            skew: 1.0,
        }
    }
}

/// The advisor's output: ranked finalists plus the phase policy and the
/// signal → decision table that produced them.
#[derive(Clone, Debug)]
pub struct Advice {
    /// Candidate designs, rules-best first. Never empty; a microprobe
    /// may reorder it, [`Advice::pick`] takes the head.
    pub ranked: Vec<ShuffleAlgorithm>,
    /// Phase policy to run the winner under.
    pub phase: PhasePolicy,
    /// `(signal, decision)` lines, in firing order.
    pub rationale: Vec<(String, String)>,
}

impl Advice {
    /// The rules-based pick (the head of [`Advice::ranked`]).
    pub fn pick(&self) -> ShuffleAlgorithm {
        self.ranked[0]
    }
}

/// Scale at which Queue-Pair state (one QP per thread pair for the ME
/// RC designs) starts to dominate: past this the NIC context cache
/// thrashes and the connectionless UD design pulls ahead (Figure 13).
const LARGE_CLUSTER: usize = 48;

/// Message size past which one-sided READ amortizes its descriptor
/// round trip and beats Send/Receive on small clusters (Figure 9a).
const LARGE_MESSAGE: usize = 8 * 1024;

/// Per-node registered memory below which the RC designs' per-peer
/// pools no longer fit comfortably and the MTU-pooled UD design is the
/// safe choice.
const TIGHT_HEADROOM: usize = 8 << 20;

/// The stateless rule engine.
pub struct AlgorithmAdvisor;

impl AlgorithmAdvisor {
    /// Ranks the shuffle designs for `signals`. Pure and deterministic:
    /// same signals, same advice.
    pub fn advise(signals: &AdvisorSignals) -> Advice {
        let s = signals;
        let mut why: Vec<(String, String)> = Vec::new();

        // Multicast first: the UD transport replicates a datagram to a
        // group in one send, the RC designs send per member.
        if s.broadcast {
            why.push((
                "broadcast groups".to_string(),
                "UD multicast replicates in one send; RC designs pay per member".to_string(),
            ));
            return Advice {
                ranked: vec![
                    ShuffleAlgorithm::MESQ_SR,
                    ShuffleAlgorithm::SESQ_SR,
                    ShuffleAlgorithm::MEMQ_SR,
                ],
                // Phasing needs singleton groups; never under multicast.
                phase: PhasePolicy::Off,
                rationale: why,
            };
        }

        let mem_tight = s.mem_headroom.is_some_and(|h| h < TIGHT_HEADROOM) || s.co_runners >= 2;
        let ranked = if s.nodes >= LARGE_CLUSTER {
            why.push((
                format!("{} nodes ≥ {LARGE_CLUSTER}", s.nodes),
                "QP state scales per peer for RC; connectionless UD wins at scale".to_string(),
            ));
            vec![
                ShuffleAlgorithm::MESQ_SR,
                ShuffleAlgorithm::SESQ_SR,
                ShuffleAlgorithm::MEMQ_SR,
            ]
        } else if mem_tight {
            why.push((
                match s.mem_headroom {
                    Some(h) if h < TIGHT_HEADROOM => {
                        format!("{} B headroom < {TIGHT_HEADROOM} B", h)
                    }
                    _ => format!("{} co-runners", s.co_runners),
                },
                "registered memory is contended; prefer the MTU-pooled UD designs".to_string(),
            ));
            vec![
                ShuffleAlgorithm::MESQ_SR,
                ShuffleAlgorithm::SESQ_SR,
                ShuffleAlgorithm::SEMQ_SR,
            ]
        } else if s.message_size >= LARGE_MESSAGE {
            why.push((
                format!("{} B messages ≥ {LARGE_MESSAGE} B", s.message_size),
                "one-sided READ amortizes its descriptor round trip on big messages".to_string(),
            ));
            vec![
                ShuffleAlgorithm::MEMQ_RD,
                MEMQ_WR,
                ShuffleAlgorithm::MEMQ_SR,
            ]
        } else if s.threads >= 8 && s.nodes <= 16 {
            why.push((
                format!("{} threads on {} nodes", s.threads, s.nodes),
                "send-queue contention punishes single-endpoint designs; go multi-endpoint"
                    .to_string(),
            ));
            vec![
                ShuffleAlgorithm::MEMQ_SR,
                ShuffleAlgorithm::MEMQ_RD,
                ShuffleAlgorithm::MESQ_SR,
            ]
        } else {
            why.push((
                format!(
                    "{} nodes, {} threads, {} B messages",
                    s.nodes, s.threads, s.message_size
                ),
                "small uncontended cluster; RC Send/Receive is the balanced default".to_string(),
            ));
            vec![
                ShuffleAlgorithm::MEMQ_SR,
                ShuffleAlgorithm::MESQ_SR,
                ShuffleAlgorithm::MEMQ_RD,
            ]
        };

        // Phase policy: scheduled rounds only pay off when the fabric
        // actually collapses under fan-in — an oversubscribed tree with
        // incast modeled. On a work-conserving full-bisection fabric a
        // barrier is pure overhead.
        let phase = if s.incast && s.oversubscription > 1.0 {
            if s.skew > 1.25 {
                why.push((
                    format!(
                        "incast on {:.1}:1 tree, skew {:.2}",
                        s.oversubscription, s.skew
                    ),
                    "phase the all-to-all; balance rounds around the declared skew".to_string(),
                ));
                PhasePolicy::SkewAware
            } else {
                why.push((
                    format!("incast on {:.1}:1 tree", s.oversubscription),
                    "phase the all-to-all in rotation order".to_string(),
                ));
                PhasePolicy::Naive
            }
        } else {
            why.push((
                if s.incast {
                    "full-bisection fabric".to_string()
                } else {
                    "no incast collapse modeled".to_string()
                },
                "unphased; the fabric is work-conserving so barriers only cost".to_string(),
            ));
            PhasePolicy::Off
        };

        // A phased transfer needs endpoints that can actually drain at
        // a super-round boundary. The UD impl quiesces its send ring
        // toward each destination of the super-round before the barrier
        // (`sr_ud::quiesce_dest`); the RC impls have no such drain yet,
        // so their residue leaks past the schedule and re-creates the
        // very fan-in the phases were built to remove — at fabric-bound
        // volumes they measurably lose to the drainable designs.
        // Restrict the finalists accordingly.
        let ranked = if phase.enabled() {
            let ud: Vec<ShuffleAlgorithm> = ranked
                .iter()
                .copied()
                .filter(|a| peer_independent_state(*a))
                .collect();
            why.push((
                "phased transfer".to_string(),
                "only the UD endpoints drain at phase boundaries; RC residue defeats the schedule"
                    .to_string(),
            ));
            if ud.is_empty() {
                vec![ShuffleAlgorithm::MESQ_SR, ShuffleAlgorithm::SESQ_SR]
            } else {
                ud
            }
        } else {
            ranked
        };

        Advice {
            ranked,
            phase,
            rationale: why,
        }
    }

    /// Renders the signal → decision table of `advice` for the `diag`
    /// tool (one `signal | decision` line per fired rule, then the
    /// ranking).
    pub fn table(signals: &AdvisorSignals, advice: &Advice) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "signals: nodes={} threads={} msg={}B broadcast={} \
             co-runners={} headroom={} oversub={:.1} incast={} skew={:.2}\n",
            signals.nodes,
            signals.threads,
            signals.message_size,
            signals.broadcast,
            signals.co_runners,
            signals
                .mem_headroom
                .map_or("none".to_string(), |h| format!("{h}B")),
            signals.oversubscription,
            signals.incast,
            signals.skew,
        ));
        for (signal, decision) in &advice.rationale {
            out.push_str(&format!("  {signal:<40} -> {decision}\n"));
        }
        let names: Vec<String> = advice.ranked.iter().map(|a| a.to_string()).collect();
        out.push_str(&format!(
            "  ranking: {} (phase: {})\n",
            names.join(" > "),
            advice.phase.label()
        ));
        out
    }
}

/// True when `algorithm` keeps per-node state independent of the peer
/// count (the UD designs) — the property the memory and scale rules key
/// on.
pub fn peer_independent_state(algorithm: ShuffleAlgorithm) -> bool {
    algorithm.imp == EndpointImpl::SqSr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_clusters_go_connectionless() {
        let s = AdvisorSignals::baseline(128, 8, 2048);
        let advice = AlgorithmAdvisor::advise(&s);
        assert_eq!(advice.pick(), ShuffleAlgorithm::MESQ_SR);
        assert!(peer_independent_state(advice.pick()));
        assert_eq!(advice.phase, PhasePolicy::Off);
    }

    #[test]
    fn big_messages_on_small_clusters_go_read() {
        let s = AdvisorSignals::baseline(8, 4, 64 * 1024);
        let advice = AlgorithmAdvisor::advise(&s);
        assert_eq!(advice.pick(), ShuffleAlgorithm::MEMQ_RD);
    }

    #[test]
    fn memory_pressure_prefers_ud() {
        let mut s = AdvisorSignals::baseline(16, 4, 16 * 1024);
        s.mem_headroom = Some(1 << 20);
        let advice = AlgorithmAdvisor::advise(&s);
        assert!(peer_independent_state(advice.pick()));
        // Without the pressure the same shape would pick READ.
        s.mem_headroom = None;
        assert_eq!(
            AlgorithmAdvisor::advise(&s).pick(),
            ShuffleAlgorithm::MEMQ_RD
        );
    }

    #[test]
    fn co_runners_count_as_pressure() {
        let mut s = AdvisorSignals::baseline(16, 4, 16 * 1024);
        s.co_runners = 3;
        assert!(peer_independent_state(AlgorithmAdvisor::advise(&s).pick()));
    }

    #[test]
    fn broadcast_forces_ud_and_disables_phasing() {
        let mut s = AdvisorSignals::baseline(8, 4, 2048);
        s.broadcast = true;
        s.incast = true;
        s.oversubscription = 4.0;
        let advice = AlgorithmAdvisor::advise(&s);
        assert_eq!(advice.pick(), ShuffleAlgorithm::MESQ_SR);
        assert_eq!(advice.phase, PhasePolicy::Off);
    }

    #[test]
    fn incast_with_skew_phases_skew_aware() {
        let mut s = AdvisorSignals::baseline(128, 8, 2048);
        s.oversubscription = 4.0;
        s.incast = true;
        s.skew = 2.0;
        let advice = AlgorithmAdvisor::advise(&s);
        assert_eq!(advice.phase, PhasePolicy::SkewAware);
        s.skew = 1.0;
        assert_eq!(AlgorithmAdvisor::advise(&s).phase, PhasePolicy::Naive);
        s.incast = false;
        assert_eq!(AlgorithmAdvisor::advise(&s).phase, PhasePolicy::Off);
    }

    #[test]
    fn phased_advice_restricts_finalists_to_drainable_endpoints() {
        // Big messages on a small congested cluster: the message-size
        // rule ranks the RC one-sided designs, but once the phase rule
        // fires every finalist must be able to drain at a phase
        // boundary — only the UD impls can today.
        let mut s = AdvisorSignals::baseline(8, 4, 64 * 1024);
        s.oversubscription = 4.0;
        s.incast = true;
        s.skew = 2.0;
        let advice = AlgorithmAdvisor::advise(&s);
        assert_eq!(advice.phase, PhasePolicy::SkewAware);
        assert!(!advice.ranked.is_empty());
        assert!(advice.ranked.iter().all(|&a| peer_independent_state(a)));
        // Unphased, the same shape keeps its RC ranking.
        s.incast = false;
        assert_eq!(
            AlgorithmAdvisor::advise(&s).pick(),
            ShuffleAlgorithm::MEMQ_RD
        );
    }

    #[test]
    fn advice_is_deterministic_and_tabulable() {
        let s = AdvisorSignals::baseline(64, 8, 4096);
        let a = AlgorithmAdvisor::advise(&s);
        let b = AlgorithmAdvisor::advise(&s);
        assert_eq!(a.ranked, b.ranked);
        assert_eq!(a.phase, b.phase);
        let table = AlgorithmAdvisor::table(&s, &a);
        assert!(table.contains("ranking:"));
        assert!(table.contains("->"));
    }
}
