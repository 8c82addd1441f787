//! **Ablation (paper §2, related work)** — NWS-style probe-based
//! prediction versus the paper's two approaches.
//!
//! The Network Weather Service \[16\] predicted transfer throughput from
//! *small probe transfers* (64 KB with a 32 KB socket buffer). Vazhkudai
//! et al. \[14\] showed such probes badly underestimate bulk-transfer
//! throughput — the probe lives in slow start and under a tiny window.
//! This ablation reproduces that comparison end to end on three
//! controlled paths:
//!
//! * `nws`  — predict the next bulk transfer's throughput as the MA(10)
//!   of recent 64 KB/32 KB probe throughputs (probe sent just before
//!   each target transfer, as NWS's sensors did);
//! * `fb`   — Eq. 3 from a-priori measurements (using the epoch's
//!   recorded estimates);
//! * `hb`   — HW-LSO over previous *bulk* transfer throughputs.
//!
//! Expected shape: NWS probes are fast to measure but systematically low
//! for bulk targets, giving large underestimation; HB over real
//! transfers wins.

use super::{add_cross_traffic, dumbbell};
use crate::{Args, Artifact};
use tputpred_core::fb::{FbConfig, FbPredictor, PathEstimates};
use tputpred_core::hb::{HoltWinters, MovingAverage, Predictor};
use tputpred_core::lso::Lso;
use tputpred_core::metrics::{relative_error_floored, rmsre};
use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::{Route, Time};
use tputpred_probes::BulkTransfer;
use tputpred_stats::render;
use tputpred_tcp::{connect_sized, TcpConfig};

struct PathSpec {
    name: &'static str,
    capacity: f64,
    one_way_ms: u64,
    buffer: u32,
    cross: f64,
}

fn run_path(spec: &PathSpec, epochs: usize) -> (f64, f64, f64, f64, f64) {
    let one_way = Time::from_millis(spec.one_way_ms);
    let (mut sim, fwd, rev) = dumbbell(16, LinkConfig::new(spec.capacity, one_way, spec.buffer));
    if spec.cross > 0.0 {
        add_cross_traffic(&mut sim, fwd, spec.cross, None);
    }
    let rtt = 2.0 * spec.one_way_ms as f64 / 1e3;
    let fb = FbPredictor::new(FbConfig::default());
    let fb_est = PathEstimates {
        rtt,
        loss_rate: 0.0,
        avail_bw: spec.capacity - spec.cross,
    };

    let mut nws = MovingAverage::new(10);
    let mut hb = Lso::new(HoltWinters::new(0.8, 0.2));
    let mut e_nws = Vec::new();
    let mut e_fb = Vec::new();
    let mut e_hb = Vec::new();
    let mut probe_ratio = Vec::new();
    let mut t = Time::from_secs(5);
    for _ in 0..epochs {
        // 1. NWS probe: 64 KB over a 32 KB-buffer connection.
        let probe_cfg = TcpConfig {
            max_window: 32 * 1024,
            ..TcpConfig::default()
        };
        let (_, _, probe) = connect_sized(
            &mut sim,
            probe_cfg,
            Route::direct(fwd),
            Route::direct(rev),
            t,
            t + Time::from_secs(20),
            64 * 1024,
        );
        sim.run_until(t + Time::from_secs(20));
        let probe_tput = {
            let s = probe.borrow();
            match s.finished_at {
                Some(done) => s.bytes_delivered as f64 * 8.0 / (done - t).as_secs_f64(),
                None => 1e3,
            }
        };
        nws.update(probe_tput);

        // 2. The bulk target transfer.
        let start = sim.now() + Time::from_secs(1);
        let stop = start + Time::from_secs(15);
        let target = BulkTransfer::launch(
            &mut sim,
            TcpConfig::default(),
            Route::direct(fwd),
            Route::direct(rev),
            start,
            stop,
        );
        sim.run_until(stop + Time::from_secs(2));
        let actual = target.throughput().max(1e3);
        probe_ratio.push(probe_tput / actual);

        e_nws.extend(nws.forecast().map(|p| relative_error_floored(p, actual)));
        e_fb.push(relative_error_floored(fb.predict(&fb_est), actual));
        e_hb.extend(hb.forecast().map(|p| relative_error_floored(p, actual)));
        hb.update(actual);
        t = sim.now() + Time::from_secs(2);
    }
    let mean_ratio = probe_ratio.iter().sum::<f64>() / probe_ratio.len() as f64;
    let under = e_nws.iter().filter(|&&e| e < 0.0).count() as f64 / e_nws.len() as f64;
    (
        rmsre(&e_nws).unwrap_or(f64::NAN),
        rmsre(&e_fb).unwrap_or(f64::NAN),
        rmsre(&e_hb).unwrap_or(f64::NAN),
        mean_ratio,
        under,
    )
}

pub fn run(_args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let specs = [
        PathSpec {
            name: "quiet-20M",
            capacity: 20e6,
            one_way_ms: 30,
            buffer: 100,
            cross: 5e6,
        },
        PathSpec {
            name: "loaded-10M",
            capacity: 10e6,
            one_way_ms: 25,
            buffer: 40,
            cross: 6e6,
        },
        PathSpec {
            name: "dsl-1.4M",
            capacity: 1.4e6,
            one_way_ms: 30,
            buffer: 14,
            cross: 0.4e6,
        },
    ];
    out.push_str(
        "# abl_nws: NWS-style 64KB/32KB probe prediction vs FB and HB, 20 epochs per path\n",
    );
    let mut table = render::Table::new([
        "path",
        "rmsre_nws",
        "rmsre_fb",
        "rmsre_hb_hw_lso",
        "probe/bulk",
        "nws_underest_frac",
    ]);
    for spec in &specs {
        let (nws, fb, hb, ratio, under) = run_path(spec, 20);
        table.row([
            spec.name.to_string(),
            render::f(nws),
            render::f(fb),
            render::f(hb),
            render::f(ratio),
            render::f(under),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "# expected shape: probe/bulk << 1 (slow-start + 32KB window), so NWS underestimates;\n\
         # HB over real transfers is the most accurate (paper section 2 + ref [14]).\n",
    );
    Ok(vec![Artifact::new("abl_nws.txt", out)])
}
