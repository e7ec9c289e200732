//! The synthetic shuffle of §5.1 — table R(a, b), two long integers,
//! shuffled on R.a — in the four shapes the benchmark pins down, plus the
//! cell runner the MEMQ/WR layer driver shares.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rshuffle::{
    CostModel, Exchange, ExchangeConfig, Operator, PhasePolicy, PhaseSchedule, ReceiveOperator,
    ShuffleAlgorithm, ShuffleOperator, TransmissionGroups,
};
use rshuffle_engine::{drive_to_sink, Generator};
use rshuffle_simnet::{Cluster, DeviceProfile, IncastModel, SimDuration, SimTime, Topology};
use rshuffle_verbs::{FaultConfig, VerbsRuntime};

use super::{obs_layers, Ctx, Iteration, Workload};
use crate::host::Usage;
use crate::ops::{
    mismatched_fragments, mix, new_expected, CheckedSource, Dispatch, Jitter, Sinks, Timed,
};

/// Bytes per row of R(a, b).
pub const ROW_BYTES: usize = 16;
/// Rows per RECEIVE output batch: 32 KiB, the L1-sized batch.
const BATCH_ROWS: usize = 2048;
/// Per-batch OS-scheduling jitter bound at the receiving fragment.
const RECEIVER_JITTER: SimDuration = SimDuration::from_micros(3);
/// Bound of the per-node query-dispatch skew at the sending fragment, ns.
const DISPATCH_SKEW_NS: u64 = 4_000;

/// One pinned shuffle configuration.
pub struct ShuffleSpec {
    pub profile: DeviceProfile,
    pub nodes: usize,
    pub threads: usize,
    pub algorithm: ShuffleAlgorithm,
    pub broadcast: bool,
    pub bytes_per_node: usize,
    pub message_size: usize,
    pub topology: Topology,
    /// Zipf exponent of the per-node volume split; `None` = even.
    pub zipf_theta: Option<f64>,
    pub phase: PhasePolicy,
    pub ud_send_buffers: usize,
    pub ud_recv_window: usize,
}

impl ShuffleSpec {
    /// The paper's defaults: 64 KiB messages, one switch, even volumes,
    /// no phasing. `bytes_per_node` is for the caller to set.
    pub fn new(profile: DeviceProfile, nodes: usize, algorithm: ShuffleAlgorithm) -> Self {
        ShuffleSpec {
            threads: profile.threads_per_node,
            profile,
            nodes,
            algorithm,
            broadcast: false,
            bytes_per_node: 0,
            message_size: 64 * 1024,
            topology: Topology::SingleSwitch,
            zipf_theta: None,
            phase: PhasePolicy::Off,
            ud_send_buffers: 16,
            ud_recv_window: 16,
        }
    }
}

/// MESQ/SR, EDR, N = 8, repartition, 4 KiB datagrams: the paper's
/// headline design. Wire-bound on the virtual clock, message-rate-bound
/// on the host clock.
pub fn repart_ud() -> ShuffleSpec {
    ShuffleSpec {
        bytes_per_node: 8 << 20,
        message_size: 4096,
        ..ShuffleSpec::new(DeviceProfile::edr(), 8, ShuffleAlgorithm::MESQ_SR)
    }
}

/// MEMQ/SR with 4 KiB RC messages: the same message size through the
/// credit-based transport, where per-message protocol cost sets virtual
/// time.
pub fn repart_rc_small() -> ShuffleSpec {
    ShuffleSpec {
        bytes_per_node: 8 << 20,
        message_size: 4096,
        ..ShuffleSpec::new(DeviceProfile::edr(), 8, ShuffleAlgorithm::MEMQ_SR)
    }
}

/// MEMQ/RD broadcast on FDR, N = 16, 64 KiB messages: group sends,
/// one-sided reads over FreeArr/ValidArr rings, the small FDR QP cache.
pub fn bcast_rd_fdr16() -> ShuffleSpec {
    ShuffleSpec {
        broadcast: true,
        bytes_per_node: 2 << 20,
        ..ShuffleSpec::new(DeviceProfile::fdr(), 16, ShuffleAlgorithm::MEMQ_RD)
    }
}

/// MESQ/SR on the 64-node 4:1 fat tree with incast, Zipf-skewed volumes
/// and the skew-aware phase schedule (the `adaptive` cell): 512 OS
/// threads, fabric queueing, phase barriers, UD quiesce.
pub fn fattree64_phased() -> ShuffleSpec {
    ShuffleSpec {
        threads: 4,
        bytes_per_node: 1 << 20,
        topology: Topology::fat_tree(16, 4.0).with_incast(IncastModel::new(4)),
        zipf_theta: Some(0.5),
        phase: PhasePolicy::SkewAware,
        // Deep UD rings: with the shallow defaults the sender is
        // credit-bound long before it is fabric-bound and the incast
        // penalty that phasing removes never shows.
        ud_send_buffers: 256,
        ud_recv_window: 64,
        ..ShuffleSpec::new(DeviceProfile::edr(), 64, ShuffleAlgorithm::MESQ_SR)
    }
}

/// Splits `total_rows` over `parts` by Zipf(`theta`), heavy ranks placed
/// on a seeded permutation (largest-remainder apportionment, so the
/// counts sum exactly). The shape of `crates/bench`'s
/// `zipf_partition_rows`, copied because that file is slated for merging.
pub fn zipf_partition_rows(total_rows: u64, parts: usize, theta: f64, seed: u64) -> Vec<u64> {
    let raw: Vec<f64> = (1..=parts).map(|k| (k as f64).powf(-theta)).collect();
    let norm: f64 = raw.iter().sum();
    let share: Vec<f64> = raw.iter().map(|w| w / norm * total_rows as f64).collect();
    let mut rows: Vec<u64> = share.iter().map(|s| s.floor() as u64).collect();
    let mut by_remainder: Vec<usize> = (0..parts).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (share[a] - rows[a] as f64, share[b] - rows[b] as f64);
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let leftover = (total_rows - rows.iter().sum::<u64>()) as usize;
    for &rank in by_remainder.iter().take(leftover) {
        rows[rank] += 1;
    }
    let mut placement: Vec<usize> = (0..parts).collect();
    for i in (1..parts).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        placement.swap(i, j);
    }
    let mut out = vec![0u64; parts];
    for (rank, &part) in placement.iter().enumerate() {
        out[part] = rows[rank];
    }
    out
}

/// The `Timed` wrappers of a traced iteration, by role and node, kept so
/// that their per-thread records can be filed after the run.
struct Timers<'a> {
    ctx: &'a Ctx<'a>,
    threads: usize,
    all: Vec<(&'static str, usize, Arc<Timed>)>,
}

impl Timers<'_> {
    /// Wraps `op` when this iteration is traced; hands it back otherwise.
    fn wrap(
        &mut self,
        role: &'static str,
        node: usize,
        op: Arc<dyn Operator>,
    ) -> Arc<dyn Operator> {
        if !self.ctx.traced {
            return op;
        }
        let timed = Timed::new(op, self.threads, self.ctx.tracer.origin());
        self.all.push((role, node, timed.clone()));
        timed
    }

    /// Thread CPU seconds inside every wrapper of `role`, children included.
    fn cpu_s(&self, role: &str) -> f64 {
        let of_role = self.all.iter().filter(|(r, _, _)| *r == role);
        of_role.map(|(_, _, t)| t.cpu_s()).sum()
    }
}

impl Workload for ShuffleSpec {
    fn iteration(&mut self, seed: u64, ctx: &Ctx<'_>) -> Iteration {
        run_cell(self, seed, ctx)
    }
}

/// Sets one shuffle query up, runs it and checks every receive fragment.
pub fn run_cell(spec: &ShuffleSpec, seed: u64, ctx: &Ctx<'_>) -> Iteration {
    let tracer = ctx.tracer;
    let (nodes, threads) = (spec.nodes, spec.threads);
    let mut it = Iteration {
        ops: nodes as u64,
        ..Iteration::default()
    };

    let setup = tracer.begin("setup", None);
    let (cluster, _) = tracer.span("simnet.cluster_new", Some(&setup), || {
        Cluster::with_topology(nodes, spec.profile.clone(), spec.topology.clone())
    });
    let (runtime, _) = tracer.span("verbs.runtime_new", Some(&setup), || {
        VerbsRuntime::with_faults(
            cluster,
            FaultConfig {
                ud_reorder_probability: 0.05,
                seed: mix(seed, 0xFA),
                ..FaultConfig::default()
            },
        )
    });
    let groups: Vec<TransmissionGroups> = (0..nodes)
        .map(|me| {
            if spec.broadcast {
                TransmissionGroups::broadcast(me, nodes)
            } else {
                TransmissionGroups::repartition(me, nodes)
            }
        })
        .collect();
    let rows_per_node = (spec.bytes_per_node / ctx.volume_div / ROW_BYTES) as u64;
    let node_rows: Vec<u64> = match spec.zipf_theta {
        Some(theta) => {
            zipf_partition_rows(rows_per_node * nodes as u64, nodes, theta, mix(seed, 0x21))
        }
        None => vec![rows_per_node; nodes],
    };

    let mut xcfg = ExchangeConfig::with_groups(spec.algorithm, threads, groups.clone());
    xcfg.message_size = spec.message_size;
    xcfg.ud_send_buffers = spec.ud_send_buffers;
    xcfg.ud_recv_window = spec.ud_recv_window;
    xcfg.phase = spec.phase;
    if spec.phase.enabled() {
        // The skew-aware schedule sees what a planner's table statistics
        // would predict: the per-node byte totals of the split.
        let totals: Vec<u64> = node_rows.iter().map(|r| r * ROW_BYTES as u64).collect();
        xcfg.phase_bytes = Some(Arc::new(PhaseSchedule::estimate_from_source_totals(
            &totals,
        )));
    }
    let (built, build_s) = tracer.span("core.exchange_build", Some(&setup), || {
        Exchange::build(&runtime, &xcfg)
    });
    let exchange = match built {
        Ok(exchange) => exchange,
        Err(e) => {
            it.setup_s = tracer.end(&setup);
            it.failed = it.ops;
            it.notes.push(format!("Exchange::build: {e}"));
            return it;
        }
    };
    let registered = exchange.registered_bytes(0);

    let spawn = tracer.begin("engine.spawn_fragments", Some(&setup));
    let cost = CostModel::from_profile(runtime.profile());
    // Zero copy is the default on the reliable designs: tuples are staged
    // in place and only hashing stays on the sender's critical path.
    let send_cost = if spec.algorithm.reliable_transport() {
        CostModel {
            memcpy_bandwidth: 1e18,
            ..cost.clone()
        }
    } else {
        cost.clone()
    };
    let expected: Vec<_> = (0..nodes).map(|_| new_expected(nodes)).collect();
    let sinks = Sinks::new(nodes, ctx.sabotage);
    let mut stats = Vec::new();
    let mut timers = Timers {
        ctx,
        threads,
        all: Vec::new(),
    };
    for node in 0..nodes {
        let generator: Arc<dyn Operator> = Arc::new(Generator::new(
            node_rows[node] as usize / threads,
            threads,
            mix(seed, 0x6E00 + node as u64),
        ));
        let source = timers.wrap("engine.source", node, generator);
        let checked = Arc::new(CheckedSource::new(
            source,
            groups[node].clone(),
            expected[node].clone(),
        ));
        let checked = timers.wrap("bench.checked_source", node, checked);
        let mut shuffle = ShuffleOperator::with_lanes(
            checked,
            exchange.send[node].clone(),
            groups[node].clone(),
            threads,
            send_cost.clone(),
        );
        if let Some(runner) = &exchange.phases {
            shuffle = shuffle.with_phases(runner.clone(), node);
        }
        let shuffle = timers.wrap("core.send", node, Arc::new(shuffle));
        let dispatched = Arc::new(Dispatch::new(
            shuffle,
            threads,
            SimDuration::from_nanos(mix(seed, 0xD15 + node as u64) % DISPATCH_SKEW_NS),
        ));
        stats.push(drive_to_sink(
            runtime.cluster(),
            node,
            &format!("shuffle-{node}"),
            dispatched,
            threads,
            |_, _| {},
        ));

        let receive = Arc::new(ReceiveOperator::with_lanes(
            exchange.recv[node].clone(),
            ROW_BYTES,
            BATCH_ROWS,
            threads,
            cost.clone(),
        ));
        let receive = timers.wrap("core.receive", node, receive);
        let jittered = Arc::new(Jitter::new(
            receive,
            RECEIVER_JITTER,
            mix(seed, 0xBEEF00 + node as u64),
        ));
        let sink = sinks.clone();
        stats.push(drive_to_sink(
            runtime.cluster(),
            node,
            &format!("receive-{node}"),
            jittered,
            threads,
            move |_, batch| sink.drain(node, batch),
        ));
    }
    tracer.end(&spawn);
    it.setup_s = tracer.end(&setup);

    // The measured section: the one call that advances virtual time.
    let before = Usage::now();
    let run = tracer.begin("simnet.run", None);
    let ran = catch_unwind(AssertUnwindSafe(|| runtime.cluster().run()));
    it.wall_s = tracer.end(&run);
    it.usage = Usage::now().since(&before);
    let horizon = runtime.kernel().now();
    it.virt_ns = (horizon - SimTime::ZERO).as_nanos();

    tracer.span("verify", None, || {
        let mut delivered = 0u64;
        for s in &stats {
            let s = s.lock();
            delivered += s.bytes;
            for e in &s.errors {
                it.notes.push(e.to_string());
            }
        }
        it.payload_mib = delivered as f64 / (1u64 << 20) as f64;
        if ran.is_err() {
            it.notes.push("a simulated thread panicked".to_string());
        }
        it.failed = if it.notes.is_empty() {
            mismatched_fragments(&expected, &sinks)
        } else {
            // A typed error or a panic fails every operation of the query.
            it.ops
        };
        if it.failed > 0 && it.notes.is_empty() {
            it.notes.push(format!(
                "{} fragment(s) drained other rows than were sent",
                it.failed
            ));
        }
    });

    if tracer.on() {
        let (snapshot, snapshot_s) =
            tracer.span("obs.snapshot", None, || runtime.obs().metrics.snapshot());
        let l = &mut it.layers;
        obs_layers(&snapshot, (nodes * threads) as u64, it.virt_ns, l);
        l.insert("obs.snapshot_s", snapshot_s);
        l.insert("core.exchange.build_s", build_s);
        l.insert(
            "core.exchange.registered_mib_per_node",
            registered as f64 / (1u64 << 20) as f64,
        );
        let fabric = runtime.cluster().fabric();
        let mean = |f: &dyn Fn(usize) -> f64| (0..nodes).map(f).sum::<f64>() / nodes as f64;
        l.insert(
            "simnet.net.ingress_util",
            mean(&|n| fabric.ingress_utilization(n, horizon)),
        );
        l.insert(
            "simnet.net.egress_util",
            mean(&|n| fabric.egress_utilization(n, horizon)),
        );
        let per_node_bytes = it.payload_mib * (1u64 << 20) as f64 / nodes as f64;
        l.insert(
            "core.virt_gibps_per_node",
            per_node_bytes / (1u64 << 30) as f64 / (it.virt_ns as f64 / 1e9),
        );
        if ctx.traced {
            // Self times: the sender's child is the checked source, whose
            // child is the generator.
            let source = timers.cpu_s("engine.source");
            let checked = timers.cpu_s("bench.checked_source");
            l.insert("engine.source_cpu_s", source);
            l.insert("bench.check_cpu_s", checked - source);
            l.insert(
                "core.operator.send_cpu_s",
                timers.cpu_s("core.send") - checked,
            );
            l.insert("core.operator.recv_cpu_s", timers.cpu_s("core.receive"));
            for (role, node, timed) in &timers.all {
                timed.record_threads(tracer, role, *node, &run);
            }
        }
    }
    it
}
