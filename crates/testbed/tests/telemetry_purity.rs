//! The telemetry layer's determinism guard (DESIGN.md §11): datasets
//! generated with telemetry disabled and enabled must be **bit-identical**
//! — observation must never feed back into simulation. Compared both as
//! structured values and as serialized JSON, so a float that survives
//! `PartialEq` but differs in bits would still be caught.
//!
//! Everything runs inside one `#[test]` because the obs registry is
//! process-global: a second test toggling `set_enabled` concurrently
//! would race the first. (The obs crate's own unit tests serialize on a
//! lock for the same reason.)

use tputpred_netsim::Time;
use tputpred_obs as obs;
use tputpred_testbed::{generate, CatalogKind, FaultConfig, Preset, RegimeConfig};

fn purity_preset() -> Preset {
    Preset {
        name: "purity".into(),
        catalog: CatalogKind::Y2004,
        paths: 3,
        traces_per_path: 1,
        epochs_per_trace: 2,
        pathload_slot: Time::from_secs(6),
        pre_ping: Time::from_secs(5),
        transfer: Time::from_secs(4),
        epoch_gap: Time::from_secs(2),
        w_large: 1 << 20,
        w_small: 20 * 1024,
        with_small_window: true,
        ping_interval: Time::from_millis(100),
        seed: 1234,
        // Faults on: the degraded code paths must be observation-only
        // too (they have their own telemetry counters).
        faults: FaultConfig::default(),
        // Regimes on too: the correlated-outage chain must be
        // observation-free as well (its tallies are counters only).
        regimes: RegimeConfig::flaky(),
    }
}

#[test]
fn generation_is_bit_identical_with_telemetry_on_and_off() {
    let preset = purity_preset();

    obs::set_enabled(false);
    let plain = generate(&preset);

    let (profiled, telemetry) = obs::with_profiling(|| generate(&preset));
    assert!(
        !obs::enabled(),
        "with_profiling restores the disabled state"
    );

    assert_eq!(plain, profiled, "telemetry changed simulation output");
    let plain_json = serde_json::to_string(&plain).expect("dataset serializes");
    let profiled_json = serde_json::to_string(&profiled).expect("dataset serializes");
    assert_eq!(
        plain_json, profiled_json,
        "telemetry changed serialized dataset bytes"
    );

    // The profiled run must actually have observed the pipeline: a
    // report full of zeros would make purity trivially true.
    let events = telemetry.counter("netsim.events").unwrap_or(0);
    assert!(events > 0, "no simulator events recorded");
    let epochs = telemetry.counter("testbed.epochs").unwrap_or(0);
    assert_eq!(
        epochs,
        (preset.paths * preset.traces_per_path * preset.epochs_per_trace) as u64,
        "every epoch tallied"
    );
    assert!(
        telemetry.counter("tcp.transfers").unwrap_or(0) > 0,
        "transfer stats tallied"
    );
    assert!(
        telemetry.timer_total_s("testbed.generate_wall") > 0.0,
        "generation wall clock recorded"
    );
    assert!(
        telemetry.timer_total_s("testbed.trace_wall") > 0.0,
        "per-trace wall clock recorded"
    );

    // And a disabled re-run records nothing new.
    obs::reset();
    let again = generate(&preset);
    assert_eq!(again, plain, "replay is deterministic");
    let silent = obs::snapshot();
    assert_eq!(
        silent.counter("netsim.events").unwrap_or(0),
        0,
        "disabled instruments must not record"
    );
}
