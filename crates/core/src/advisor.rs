//! Adaptive Exchange selection: picks a shuffle design (and phase
//! policy) per query from *observable* signals only.
//!
//! The paper finds MESQ/SR robust across every configuration it
//! measures, and `bench adaptive`, which grades the advice against an
//! oracle that runs every design, agrees on every repartition row. Two
//! rules are what that exam supports:
//!
//! - a **broadcast** ranks MESQ/SR and SEMQ/SR, unphased (phasing needs
//!   singleton groups); a caller that can afford it breaks the tie with
//!   a calibrate-style microprobe over the two;
//! - **everything else** is MESQ/SR alone, phased `SkewAware` only when
//!   the fabric both oversubscribes and models incast collapse.
//!
//! Every rule that fires leaves a `(signal, decision)` line in
//! [`Advice::rationale`], so `diag` can dump the signal → decision
//! table.

use crate::config::ShuffleAlgorithm;
use crate::phase::PhasePolicy;

/// Observable inputs to the advisor. Everything here is known before
/// the query transmits a single row: the groups from the plan, the
/// topology from the fabric description.
#[derive(Clone, Debug)]
pub struct AdvisorSignals {
    /// Any transmission group with more than one member (multicast)?
    pub broadcast: bool,
    /// Topology oversubscription ratio (1.0 = full bisection).
    pub oversubscription: f64,
    /// Does the fabric model incast collapse on congested ports?
    pub incast: bool,
}

impl AdvisorSignals {
    /// A repartition on a full-bisection fabric without incast.
    pub fn baseline() -> AdvisorSignals {
        AdvisorSignals {
            broadcast: false,
            oversubscription: 1.0,
            incast: false,
        }
    }
}

/// The advisor's output: the finalists plus the phase policy and the
/// signal → decision table that produced them.
#[derive(Clone, Debug)]
pub struct Advice {
    /// Candidate designs, MESQ/SR first. Never empty; a caller probes
    /// them only when there is more than one.
    pub ranked: Vec<ShuffleAlgorithm>,
    /// Phase policy to run the winner under.
    pub phase: PhasePolicy,
    /// `(signal, decision)` lines, in firing order.
    pub rationale: Vec<(String, String)>,
}

/// The stateless rule engine.
pub struct AlgorithmAdvisor;

impl AlgorithmAdvisor {
    /// Advises a design for `signals`. Pure and deterministic: same
    /// signals, same advice.
    pub fn advise(signals: &AdvisorSignals) -> Advice {
        let s = signals;
        let line = |signal: &str, decision: &str| (signal.to_string(), decision.to_string());

        if s.broadcast {
            return Advice {
                ranked: vec![ShuffleAlgorithm::MESQ_SR, ShuffleAlgorithm::SEMQ_SR],
                phase: PhasePolicy::Off,
                rationale: vec![line(
                    "broadcast groups",
                    "probe UD multicast against one shared RC endpoint per node; \
                     unphased, phasing needs singleton groups",
                )],
            };
        }

        // Scheduled rounds only pay off when the fabric actually
        // collapses under fan-in — an oversubscribed tree with incast
        // modeled. On a work-conserving fabric a barrier is pure cost.
        let (fabric, phase) = if s.incast && s.oversubscription > 1.0 {
            (
                line(
                    &format!("incast on {:.1}:1 tree", s.oversubscription),
                    "phase the all-to-all in rotation order; heavy sources stream unphased",
                ),
                PhasePolicy::SkewAware,
            )
        } else {
            (
                line(
                    if s.incast {
                        "full-bisection fabric"
                    } else {
                        "no incast collapse modeled"
                    },
                    "unphased; the fabric is work-conserving so barriers only cost",
                ),
                PhasePolicy::Off,
            )
        };
        Advice {
            ranked: vec![ShuffleAlgorithm::MESQ_SR],
            phase,
            rationale: vec![
                line(
                    "repartition",
                    "MESQ/SR, robust on every measured shape; no probe",
                ),
                fabric,
            ],
        }
    }

    /// Renders the signal → decision table of `advice` for the `diag`
    /// tool (one `signal | decision` line per fired rule, then the
    /// finalists).
    pub fn table(signals: &AdvisorSignals, advice: &Advice) -> String {
        let mut out = format!(
            "signals: broadcast={} oversub={:.1} incast={}\n",
            signals.broadcast, signals.oversubscription, signals.incast,
        );
        for (signal, decision) in &advice.rationale {
            out.push_str(&format!("  {signal:<40} -> {decision}\n"));
        }
        let names: Vec<String> = advice.ranked.iter().map(|a| a.to_string()).collect();
        out.push_str(&format!(
            "  finalists: {} (phase: {})\n",
            names.join(", "),
            advice.phase.label()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shapes the deleted scale, message-size, memory and thread
    /// rules keyed on are no signal any more: each reaches the advisor as
    /// a repartition, here each on a different fabric. Then the two
    /// rules' own cases.
    #[test]
    fn two_rules_cover_every_shape() {
        let mesq = [ShuffleAlgorithm::MESQ_SR].as_slice();
        let both = [ShuffleAlgorithm::MESQ_SR, ShuffleAlgorithm::SEMQ_SR].as_slice();
        let (off, skew_aware) = (PhasePolicy::Off, PhasePolicy::SkewAware);
        let table = [
            ("128 nodes", false, 1.0, false, mesq, off),
            ("64 KiB messages", false, 4.0, false, mesq, off),
            ("1 MiB headroom", false, 1.0, true, mesq, off),
            ("3 co-runners", false, 4.0, false, mesq, off),
            ("8 threads on 16 nodes", false, 1.0, true, mesq, off),
            ("incast on a 4:1 tree", false, 4.0, true, mesq, skew_aware),
            ("broadcast", true, 1.0, false, both, off),
            ("broadcast on an incast tree", true, 4.0, true, both, off),
        ];
        for (shape, broadcast, oversubscription, incast, ranked, phase) in table {
            let advice = AlgorithmAdvisor::advise(&AdvisorSignals {
                broadcast,
                oversubscription,
                incast,
            });
            assert_eq!(advice.ranked, ranked, "{shape}");
            assert_eq!(advice.phase, phase, "{shape}");
        }
    }

    #[test]
    fn advice_is_deterministic_and_tabulable() {
        let s = AdvisorSignals {
            incast: true,
            oversubscription: 4.0,
            ..AdvisorSignals::baseline()
        };
        let a = AlgorithmAdvisor::advise(&s);
        let b = AlgorithmAdvisor::advise(&s);
        assert_eq!(a.ranked, b.ranked);
        assert_eq!(a.phase, b.phase);
        let table = AlgorithmAdvisor::table(&s, &a);
        assert!(table.contains("finalists:"));
        assert!(table.contains("->"));
    }
}
