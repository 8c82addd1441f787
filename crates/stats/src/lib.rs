//! Empirical statistics and plain-text rendering used throughout the
//! reproduction of *On the predictability of large transfer TCP throughput*
//! (He, Dovrolis, Ammar — SIGCOMM 2005 / Computer Networks 2007).
//!
//! The paper's evaluation reports empirical CDFs (Figs. 2–6, 13, 14, 16–18,
//! 19, 23), per-path quantile summaries (Fig. 7), scatter plots with
//! correlation coefficients (Figs. 8–10, 20), and bar groups (Figs. 12, 15,
//! 21, 22). This crate provides exactly those primitives:
//!
//! * [`Cdf`] — an empirical cumulative distribution function with quantile
//!   lookup and fixed-grid evaluation, the backbone of every CDF figure.
//! * [`quantile()`](quantile::quantile), [`median`] — R-7 style linear-interpolation quantiles.
//! * [`pearson`] — the correlation coefficient quoted in §6.1.3/§6.1.4.
//! * [`Summary`] — streaming mean/variance/min/max (Welford's algorithm).
//! * [`RollingCov`] — sliding-window coefficient of variation, the gate
//!   signal of the RTT-CV hybrid predictor.
//! * [`render`] — fixed-width text tables and series so every figure binary
//!   prints the same rows/series the paper plots.
//!
//! All routines treat `NaN` as a programming error and say so in their docs;
//! the simulator never produces `NaN` measurements. Fault injection
//! (DESIGN.md §10) *can* leave a figure binary with an empty sample,
//! so [`Cdf::try_from_samples`] reports degenerate inputs as a typed
//! [`CdfError`] instead of panicking, and the figure binaries filter or
//! refuse accordingly.

pub mod cdf;
pub mod corr;
pub mod quantile;
pub mod render;
pub mod rolling;
pub mod summary;

pub use cdf::{Cdf, CdfError};
pub use corr::{pearson, spearman};
pub use quantile::{median, quantile};
pub use rolling::RollingCov;
pub use summary::Summary;
