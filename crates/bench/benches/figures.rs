//! Benchmarks of the figure-regeneration *analysis* stage: with the
//! dataset cached, how fast every table/figure of the paper can be
//! recomputed. (The registry entries in `src/figures/` do the same
//! work; this harness times the shared analysis kernels on a synthetic
//! dataset so `cargo bench` needs no dataset cache.)

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tputpred_bench::{a_priori, cov_per_trace, fb_config, hw_lso, rmsre_per_trace};
use tputpred_core::fb::FbPredictor;
use tputpred_core::metrics::{evaluate, relative_error_floored};

mod common;
use common::synthetic_dataset;

fn bench_figures(c: &mut Criterion) {
    let ds = synthetic_dataset();
    let mut group = c.benchmark_group("figures");
    group.sample_size(20);
    group.bench_function("fig02_fb_errors_full_dataset", |b| {
        let fb = FbPredictor::new(fb_config(&ds.preset));
        b.iter(|| {
            let errors: Vec<f64> = ds
                .complete_epochs()
                .map(|(_, _, rec)| relative_error_floored(fb.predict(&a_priori(&rec)), rec.r_large))
                .collect();
            black_box(errors.len())
        })
    });
    group.bench_function("fig16_rmsre_per_trace_hw_lso", |b| {
        b.iter(|| black_box(rmsre_per_trace(&ds, || hw_lso())))
    });
    group.bench_function("fig20_cov_per_trace", |b| {
        b.iter(|| black_box(cov_per_trace(&ds)))
    });
    group.bench_function("fig23_downsampled_rmsre", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for p in &ds.paths {
                for t in &p.traces {
                    let series = tputpred_core::metrics::downsample(&t.throughput_series(), 8);
                    let mut pred = hw_lso();
                    if let Some(r) = evaluate(&mut pred, &series).rmsre() {
                        total += r;
                    }
                }
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
