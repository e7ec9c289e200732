//! Criterion microbenchmarks for the hot host-side primitives of the
//! shuffle path, plus a small end-to-end simulated shuffle.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

use rshuffle::{
    default_partition_hash, Exchange, ExchangeConfig, MsgHeader, MsgKind, Operator, RowBatch,
    ShuffleAlgorithm, StreamState, HEADER_LEN,
};
use rshuffle_engine::{drive_exchange, Generator};
use rshuffle_simnet::lru::LruSet;
use rshuffle_simnet::{Cluster, DeviceProfile};
use rshuffle_verbs::VerbsRuntime;

fn bench_header_codec(c: &mut Criterion) {
    let header = MsgHeader {
        src: 7,
        kind: MsgKind::Data,
        state: StreamState::MoreData,
        payload_len: 4064,
        counter: 123_456,
        remote_addr: 65_536,
        epoch: 1,
        src_tid: 3,
    };
    let mut buf = [0u8; HEADER_LEN];
    c.bench_function("msg_header_encode_decode", |b| {
        b.iter(|| {
            header.encode(&mut buf);
            black_box(MsgHeader::decode(&buf))
        })
    });
}

fn bench_partition_hash(c: &mut Criterion) {
    let rows: Vec<[u8; 16]> = (0..1024u64)
        .map(|i| {
            let mut r = [0u8; 16];
            r[0..8].copy_from_slice(&i.to_le_bytes());
            r
        })
        .collect();
    let mut g = c.benchmark_group("partition_hash");
    g.throughput(Throughput::Elements(rows.len() as u64));
    g.bench_function("hash_1024_tuples", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for r in &rows {
                acc ^= default_partition_hash(black_box(r));
            }
            acc
        })
    });
    g.finish();
}

fn bench_row_batch(c: &mut Criterion) {
    let row = [0xABu8; 16];
    let mut g = c.benchmark_group("row_batch");
    g.throughput(Throughput::Bytes(16 * 1024));
    g.bench_function("push_1024_rows", |b| {
        b.iter(|| {
            let mut batch = RowBatch::new(16, 1024);
            for _ in 0..1024 {
                batch.push_row(black_box(&row));
            }
            batch
        })
    });
    g.finish();
}

fn bench_qp_cache(c: &mut Criterion) {
    c.bench_function("lru_touch_hit", |b| {
        let mut lru = LruSet::new(640);
        for q in 0..400u64 {
            lru.touch(q);
        }
        let mut q = 0u64;
        b.iter(|| {
            q = (q + 1) % 400;
            black_box(lru.touch(q))
        })
    });
    c.bench_function("lru_touch_thrash", |b| {
        let mut lru = LruSet::new(28);
        let mut q = 0u64;
        b.iter(|| {
            q = (q + 1) % 64;
            black_box(lru.touch(q))
        })
    });
}

fn bench_end_to_end_shuffle(c: &mut Criterion) {
    // Wall-clock cost of simulating a complete small MESQ/SR repartition;
    // this tracks the simulator's own overhead per simulated byte.
    c.bench_function("simulate_mesq_sr_2node_1mib", |b| {
        b.iter(|| {
            let nodes = 2;
            let threads = 2;
            let cluster = Cluster::new(nodes, DeviceProfile::edr());
            let runtime = VerbsRuntime::new(cluster);
            let config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, nodes, threads);
            let exchange = Exchange::build(&runtime, &config).expect("builds");
            let source =
                |node| Arc::new(Generator::new(16_384, threads, node as u64)) as Arc<dyn Operator>;
            drive_exchange(&runtime, &exchange, 16, 2048, source, |_, _, _| {});
            runtime.cluster().run();
            black_box(exchange.bytes_received(0))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_header_codec,
        bench_partition_hash,
        bench_row_batch,
        bench_qp_cache,
        bench_end_to_end_shuffle
);
criterion_main!(benches);
