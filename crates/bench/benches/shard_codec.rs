//! Benchmarks of the shard codec: `serde_json` encoding and decoding of
//! one quick-shaped `PathData` (2 traces × 40 epochs, the payload of one
//! `quick` shard), the layer every analysis pays once per shard it
//! reads. The payload is synthetic, so `cargo bench` needs no dataset
//! cache.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tputpred_testbed::PathData;

mod common;
use common::synthetic_dataset;

fn bench_shard_codec(c: &mut Criterion) {
    let path = synthetic_dataset().paths.swap_remove(0);
    let text = serde_json::to_string(&path).expect("a PathData serializes");
    let mut group = c.benchmark_group("shard_codec");
    group.bench_function("encode_quick_path", |b| {
        b.iter(|| black_box(serde_json::to_string(black_box(&path)).map(|t| t.len())))
    });
    group.bench_function("decode_quick_path", |b| {
        b.iter(|| black_box(serde_json::from_str::<PathData>(black_box(&text)).is_ok()))
    });
    group.finish();
}

criterion_group!(benches, bench_shard_codec);
criterion_main!(benches);
