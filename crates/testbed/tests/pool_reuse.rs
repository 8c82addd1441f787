//! Engine-buffer pooling across traces (DESIGN.md §14): recycled
//! buffers change nothing about the results, and their capacity reaches
//! a steady state instead of re-growing from zero for every trace —
//! the satellite-3 leak where a 2800-trace generation run paid the same
//! warm-up allocations 2800 times.

use tputpred_netsim::{EnginePool, Time};
use tputpred_testbed::faults::{FaultConfig, RegimeConfig};
use tputpred_testbed::path::catalog_2004;
use tputpred_testbed::preset::{CatalogKind, Preset};
use tputpred_testbed::runner::{run_trace, run_trace_pooled};

fn tiny_preset() -> Preset {
    Preset {
        name: "pool-mini".into(),
        catalog: CatalogKind::Y2004,
        paths: 1,
        traces_per_path: 1,
        epochs_per_trace: 2,
        pathload_slot: Time::from_secs(4),
        pre_ping: Time::from_secs(3),
        transfer: Time::from_secs(3),
        epoch_gap: Time::from_secs(1),
        w_large: 1 << 20,
        w_small: 20 * 1024,
        with_small_window: false,
        ping_interval: Time::from_millis(100),
        seed: 11,
        faults: FaultConfig::none(),
        regimes: RegimeConfig::none(),
    }
}

#[test]
fn pooled_traces_replay_identically_with_steady_state_capacity() {
    let preset = tiny_preset();
    let path = {
        let mut p = catalog_2004(3, 42).remove(2);
        p.capacity_bps = 10e6;
        p.cross.elastic_flows = 1;
        p
    };

    let mut pool = EnginePool::new();
    let first = run_trace_pooled(&path, 0, &preset, &mut pool);
    let warm = pool.capacity();
    assert!(warm.arrival_entries > 0, "{warm:?}");
    // The cross traffic ends at sinks nobody observes, so its arrivals
    // are elided and their FIFOs are pooled too.
    assert!(warm.elided_entries > 0, "{warm:?}");
    assert!(warm.link_states >= 2, "fwd + rev pooled: {warm:?}");
    assert!(warm.wheel_slot_entries > 0, "{warm:?}");

    // Identical workload through the same pool: identical results, and
    // the capacity profile stops growing after the warm-up trace.
    let second = run_trace_pooled(&path, 0, &preset, &mut pool);
    assert_eq!(second, first, "pooling is capacity-only");
    let steady = pool.capacity();
    let third = run_trace_pooled(&path, 0, &preset, &mut pool);
    assert_eq!(third, first);
    assert_eq!(pool.capacity(), steady, "capacity reached steady state");

    // The implicit thread-local pool path is the same computation.
    assert_eq!(run_trace(&path, 0, &preset), first);
}
