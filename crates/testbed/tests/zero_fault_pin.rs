//! The fault layer's determinism guard: with every fault probability at
//! zero, generation must be **bit-identical** to the pre-fault-layer
//! code. The pinned fingerprint below was computed by the same hash over
//! the same preset *before* `testbed::faults` existed (when every
//! `EpochRecord` field was a plain `f64`); the fault plan draws on its
//! own RNG stream precisely so this value never moves.

use tputpred_netsim::Time;
use tputpred_testbed::{generate, CatalogKind, EpochStatus, FaultConfig, Preset, RegimeConfig};

/// Measurement fingerprint of `pin_preset()` generation, captured from
/// the pre-fault-layer tree. If this test fails, the fault layer leaked
/// into the zero-fault code path (e.g. a draw from the simulator RNG or
/// a changed phase boundary).
const PRE_FAULT_LAYER_FINGERPRINT: u64 = 0xb04a_5f72_dc8c_4a72;

fn pin_preset() -> Preset {
    Preset {
        name: "pin".into(),
        catalog: CatalogKind::Y2004,
        paths: 3,
        traces_per_path: 1,
        epochs_per_trace: 3,
        pathload_slot: Time::from_secs(6),
        pre_ping: Time::from_secs(5),
        transfer: Time::from_secs(4),
        epoch_gap: Time::from_secs(2),
        w_large: 1 << 20,
        w_small: 20 * 1024,
        with_small_window: true,
        ping_interval: Time::from_millis(100),
        seed: 99,
        faults: FaultConfig::none(),
        regimes: RegimeConfig::none(),
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

#[test]
fn zero_fault_generation_matches_pre_fault_layer_fingerprint() {
    let ds = generate(&pin_preset());
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (_, _, r) in ds.epochs() {
        assert_eq!(r.status, EpochStatus::Ok, "zero-fault epochs are clean");
        let c = r.complete().expect("zero-fault epochs are complete");
        for v in [
            c.a_hat,
            c.t_hat,
            c.p_hat,
            c.t_tilde,
            c.p_tilde,
            c.r_large,
            c.r_small.unwrap_or(-1.0),
            c.r_prefix_quarter,
            c.r_prefix_half,
            c.flow_retx_rate,
            c.flow_rtt,
            c.true_avail_bw,
        ] {
            fnv1a(&mut h, &v.to_bits().to_le_bytes());
        }
        fnv1a(&mut h, &c.flow_loss_events.to_le_bytes());
    }
    assert_eq!(
        h, PRE_FAULT_LAYER_FINGERPRINT,
        "zero-fault generation no longer bit-identical to pre-fault-layer code: {h:#018x}"
    );
}
