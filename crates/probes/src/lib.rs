//! # tputpred-probes — measurement tools on the simulator
//!
//! The paper's measurement epoch (Fig. 1) uses three tools, each rebuilt
//! here as simulator endpoints:
//!
//! * [`ping::PingProber`] — the "homespun ping utility": a 41-byte probe
//!   every 100 ms, echoed by a [`tputpred_netsim::sources::Reflector`].
//!   Produces the a-priori RTT/loss estimates `T̂`, `p̂` and the
//!   during-flow estimates `T̃`, `p̃` via windowed summaries.
//! * [`pathload::Pathload`] — a pathload-style available-bandwidth
//!   estimator: SLoPS rate bracketing. Streams of small packets are sent
//!   at a trial rate; the receiver checks the one-way-delay trend
//!   (PCT/PDT metrics); an increasing trend means the trial rate exceeds
//!   the avail-bw, and a grow-then-bisect search converges to `Â`.
//! * [`iperf::BulkTransfer`] — the IPerf-style target flow: a bulk TCP
//!   Reno transfer of fixed duration with a configurable socket buffer
//!   `W`, measured by delivered bytes.
//! * [`pathchirp::PathChirp`] — the alternative avail-bw estimator the
//!   paper cites (ref. \[21\]): exponentially spaced chirp trains with
//!   excursion-point analysis; `abl_availbw` compares it against
//!   pathload as an FB input.
//!
//! ## Retention
//!
//! A probe keeps only what it has yet to evaluate, so a trace's probe
//! memory is proportional to one epoch, not to the trace (DESIGN.md
//! §14, "Per-trace memory"). Pathload and pathChirp take a stream's or
//! chirp's one-way delays out of their log when they evaluate it;
//! probes that land later fall into the emptied entry, which nothing
//! reads. [`ping::PingStats`] keeps its records until
//! [`ping::PingStats::forget_before`] drops them: a caller summarizes a
//! window first and forgets it after, and the totals stay exact.

pub mod iperf;
pub mod pathchirp;
pub mod pathload;
pub mod ping;

pub use iperf::BulkTransfer;
pub use pathchirp::{PathChirp, PathChirpConfig, PathChirpHandle};
pub use pathload::{Pathload, PathloadConfig, PathloadHandle};
pub use ping::{PingProber, PingStats, PingStatsHandle, PingSummary, ProbeMask};
