//! `tpch_mix`: TPC-H Q4, Q3 and Q10 in sequence over MESQ/SR on the EDR
//! cluster, random placement, answers checked against the host-side
//! reference. The engine's operators do most of the work here and the
//! shuffle little — the opposite of the synthetic rows.
//!
//! `tpch::run_query` owns its cluster and runtime, so nothing inside it
//! can be wrapped from out here: the obs-sourced and operator rows read 0
//! on this workload until a later PR exposes them on `QueryResult`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rshuffle::ShuffleAlgorithm;
use rshuffle_simnet::DeviceProfile;
use rshuffle_tpch::queries::reference;
use rshuffle_tpch::{run_query, Dataset, GenConfig, Placement, QueryId, QueryTransport};

use super::{Ctx, Iteration, Workload};
use crate::host::Usage;
use crate::ops::mix;

pub const NODES: usize = 8;
/// Scale factor per node (1.0 = 6 M lineitems in all).
pub const SF_PER_NODE: f64 = 0.05;

const QUERIES: [(QueryId, &str); 3] = [
    (QueryId::Q4, "tpch.q4_virt_ms"),
    (QueryId::Q3, "tpch.q3_virt_ms"),
    (QueryId::Q10, "tpch.q10_virt_ms"),
];

pub fn generate(scale: f64, placement: Placement, seed: u64) -> Dataset {
    Dataset::generate(&GenConfig {
        scale,
        nodes: NODES,
        placement,
        seed: mix(seed, 0x7C9),
    })
}

#[derive(Default)]
pub struct TpchMix {
    /// Reference answers, keyed by the volume divisor they were computed
    /// for: the dataset is a pure function of (seed, scale), so they are
    /// computed once, outside set-up and the measured section.
    answers: HashMap<usize, (Vec<HashMap<u64, i64>>, f64)>,
}

impl Workload for TpchMix {
    fn iteration(&mut self, seed: u64, ctx: &Ctx<'_>) -> Iteration {
        let tracer = ctx.tracer;
        let mut it = Iteration {
            ops: QUERIES.len() as u64,
            ..Iteration::default()
        };
        let scale = SF_PER_NODE * NODES as f64 / ctx.volume_div as f64;
        let (dataset, gen_s) = tracer.span("tpch.generate", None, || {
            generate(scale, Placement::Random, seed)
        });
        it.setup_s = gen_s;

        let (answers, reference_s) = self.answers.entry(ctx.volume_div).or_insert_with(|| {
            tracer.span("tpch.reference", None, || {
                QUERIES
                    .iter()
                    .map(|(q, _)| reference(&dataset, *q))
                    .collect()
            })
        });

        let profile = DeviceProfile::edr();
        let threads = profile.threads_per_node;
        let transport = QueryTransport::Rdma(ShuffleAlgorithm::MESQ_SR);
        let mut results = Vec::new();
        let before = Usage::now();
        let run = tracer.begin("simnet.run", None);
        for (query, _) in QUERIES {
            let (r, _) = tracer.span(&format!("tpch.run_query.{query:?}"), Some(&run), || {
                catch_unwind(AssertUnwindSafe(|| {
                    run_query(profile.clone(), &dataset, query, transport, threads)
                }))
            });
            results.push(r);
        }
        it.wall_s = tracer.end(&run);
        it.usage = Usage::now().since(&before);

        tracer.span("verify", None, || {
            for (i, ((query, metric), result)) in QUERIES.iter().zip(&mut results).enumerate() {
                match result {
                    Ok(r) => {
                        it.virt_ns += r.response_time.as_nanos();
                        it.layers.insert(metric, r.response_time.as_millis_f64());
                        if ctx.sabotage && i == 0 {
                            // Lose one row: one order drops out of Q4's count.
                            if let Some(count) = r.groups.values_mut().next() {
                                *count -= 1;
                            }
                        }
                        if r.groups != answers[i] {
                            it.failed += 1;
                            it.notes
                                .push(format!("{query:?}: merged groups differ from reference"));
                        }
                    }
                    Err(_) => {
                        it.failed += 1;
                        it.notes.push(format!("{query:?}: the query panicked"));
                    }
                }
            }
        });
        let lineitem_mib = (dataset.lineitem_rows() * rshuffle_tpch::gen::LINEITEM_ROW) as f64
            / (1u64 << 20) as f64;
        it.payload_mib = lineitem_mib;
        it.layers.insert("tpch.gen_s", gen_s);
        it.layers.insert("tpch.reference_s", *reference_s);
        it
    }
}
