//! # tcp-throughput-predictability
//!
//! A from-scratch Rust reproduction of He, Dovrolis, Ammar,
//! *On the predictability of large transfer TCP throughput*
//! (SIGCOMM 2005; extended version in Computer Networks 51, 2007).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] ([`tputpred_core`]) — the paper's contribution: formula-based
//!   (FB) predictors built on TCP throughput models (Mathis, PFTK, revised
//!   PFTK) and history-based (HB) predictors (Moving Average, EWMA,
//!   Holt-Winters) with the paper's level-shift/outlier (LSO) heuristics,
//!   plus the error metrics (relative error `E`, RMSRE, segment-weighted
//!   CoV).
//! * [`netsim`] ([`tputpred_netsim`]) — a deterministic packet-level
//!   discrete-event network simulator (the RON-testbed substitute).
//! * [`tcp`] ([`tputpred_tcp`]) — packet-level TCP Reno on the simulator.
//! * [`probes`] ([`tputpred_probes`]) — ping, pathload-style avail-bw
//!   estimation, and IPerf-style bulk transfers.
//! * [`testbed`] ([`tputpred_testbed`]) — the synthetic RON: path catalog,
//!   measurement epochs, trace datasets, presets.
//! * [`stats`] ([`tputpred_stats`]) — empirical CDFs, quantiles,
//!   correlations, and the text rendering used by the figure binaries.
//!
//! ## Quick start
//!
//! ```
//! use tcp_throughput_predictability::core::fb::{FbPredictor, PathEstimates};
//! use tcp_throughput_predictability::core::hb::{HoltWinters, Predictor};
//! use tcp_throughput_predictability::core::lso::Lso;
//!
//! // Formula-based: predict from a-priori path measurements (Eq. 3).
//! let est = PathEstimates {
//!     rtt: 0.080,             // 80 ms measured with ping before the flow
//!     loss_rate: 0.01,        // 1% ping loss before the flow
//!     avail_bw: 20e6,         // pathload estimate, bits/s
//! };
//! let fb = FbPredictor::default();
//! let r_hat = fb.predict(&est);
//! assert!(r_hat > 0.0);
//!
//! // History-based: Holt-Winters with level-shift/outlier detection.
//! let mut hb = Lso::new(HoltWinters::new(0.8, 0.2));
//! for r in [10e6, 11e6, 9.5e6, 10.2e6] {
//!     hb.update(r);
//! }
//! let next = hb.forecast().unwrap();
//! assert!(next > 8e6 && next < 12e6);
//! ```
//!
//! See `examples/` for realistic end-to-end scenarios (overlay route
//! selection, parallel downloads, grid transfer scheduling) and
//! `crates/bench/src/figures/` for the registry entries that regenerate
//! every figure of the paper's evaluation (run them with the `repro`
//! binary).

pub use tputpred_core as core;
pub use tputpred_netsim as netsim;
pub use tputpred_probes as probes;
pub use tputpred_stats as stats;
pub use tputpred_tcp as tcp;
pub use tputpred_testbed as testbed;
