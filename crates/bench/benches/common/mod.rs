//! The synthetic dataset shared by the benchmarks that need one, so
//! `cargo bench` runs without a dataset cache.

use tputpred_testbed::{catalog_2004, Dataset, EpochRecord, PathData, Preset, TraceData};

/// A synthetic dataset with the quick preset's shape (35 paths × 2
/// traces × 40 epochs) and plausible values — no simulation needed.
pub fn synthetic_dataset() -> Dataset {
    let preset = Preset::quick();
    let catalog = catalog_2004(preset.paths, preset.seed);
    let paths = catalog
        .into_iter()
        .enumerate()
        .map(|(pi, config)| {
            let traces = (0..preset.traces_per_path)
                .map(|ti| TraceData {
                    records: (0..preset.epochs_per_trace)
                        .map(|ei| {
                            let phase = (pi * 31 + ti * 17 + ei) as f64;
                            let r = 2e6
                                + 1.5e6 * (phase * 0.7).sin().abs()
                                + if ei % 13 == 0 { 6e6 } else { 0.0 };
                            EpochRecord {
                                status: Default::default(),
                                faults: Default::default(),
                                a_hat: Some(5e6 + 2e6 * (phase * 0.3).cos()),
                                t_hat: Some(0.04 + 0.01 * (phase * 0.2).sin().abs()),
                                p_hat: Some(if pi % 3 == 0 { 0.01 } else { 0.0 }),
                                t_tilde: Some(0.05),
                                p_tilde: Some(0.02),
                                r_large: Some(r),
                                r_small: Some(r / 4.0),
                                r_prefix_quarter: Some(r * 0.9),
                                r_prefix_half: Some(r * 0.95),
                                flow_loss_events: 3,
                                flow_retx_rate: 0.01,
                                flow_rtt: 0.05,
                                true_avail_bw: 5e6,
                            }
                        })
                        .collect(),
                })
                .collect();
            PathData { config, traces }
        })
        .collect();
    Dataset { preset, paths }
}
