//! Pathload-style available-bandwidth estimation (SLoPS).
//!
//! Self-Loading Periodic Streams (Jain & Dovrolis, the paper's ref. \[20\]):
//! send a short stream of small packets at a trial rate `R`; if
//! `R > avail-bw`, the stream backs up at the bottleneck and its one-way
//! delays (OWDs) show an **increasing trend**; if `R < avail-bw` they do
//! not. A grow-then-bisect search over `R` brackets the avail-bw.
//!
//! Trend detection follows pathload's two metrics over the medians of
//! `⌈√K⌉` groups of the stream's OWDs:
//!
//! * **PCT** (pairwise comparison test): the fraction of consecutive
//!   group-median increases;
//! * **PDT** (pairwise difference test): net increase over total
//!   variation.
//!
//! A stream that loses a large fraction of its packets is itself evidence
//! the trial rate exceeds the avail-bw.
//!
//! Simplifications relative to the real tool (recorded in DESIGN.md):
//! one stream per trial rate by default (configurable), verdicts are
//! binary (the ambiguous "grey region" folds into *not increasing*), and
//! the sender reads the receiver's OWD log through shared state rather
//! than a return control channel — the measurement traffic itself is
//! simulated faithfully.

use std::cell::RefCell;
use std::rc::Rc;
use tputpred_netsim::sources::GapMemo;
use tputpred_netsim::{
    Ctx, Endpoint, EndpointId, Packet, Payload, ProbeMeta, Route, Simulator, Time,
};

/// Pathload parameters.
#[derive(Debug, Clone, Copy)]
pub struct PathloadConfig {
    /// Probe packet wire size (small, to sample the queue without filling
    /// it).
    pub packet_size: u32,
    /// Packets per stream (`K`) at rates where the stream fits in
    /// [`PathloadConfig::max_stream_duration`]; low trial rates shrink
    /// the stream (never below 12 packets) so the measurement's wall
    /// time stays bounded.
    pub packets_per_stream: u32,
    /// Upper bound on one stream's duration; caps `K·size·8/rate`.
    pub max_stream_duration: Time,
    /// Streams sent per trial rate; the rate's verdict is the majority
    /// of the streams, which samples several phases of bursty cross
    /// traffic. (Some residual overestimation on bursty paths remains —
    /// the bias the paper itself observed in pathload, §4.2.1.)
    pub streams_per_rate: u32,
    /// Lowest trial rate; also the estimate on a saturated path.
    pub min_rate: f64,
    /// Highest trial rate; also the estimate when no rate loads the path.
    pub max_rate: f64,
    /// Bisection stops when `hi − lo ≤ resolution_fraction · hi`.
    pub resolution_fraction: f64,
    /// Idle gap after a stream before evaluating it (lets the queue
    /// drain and stragglers arrive).
    pub eval_wait: Time,
    /// Hard cap on streams per measurement (the measurement returns its
    /// current bracket midpoint when exhausted).
    pub max_streams: u32,
}

impl Default for PathloadConfig {
    fn default() -> Self {
        PathloadConfig {
            packet_size: 200,
            packets_per_stream: 300,
            max_stream_duration: Time::from_millis(200),
            streams_per_rate: 3,
            min_rate: 50e3,
            max_rate: 200e6,
            resolution_fraction: 0.10,
            eval_wait: Time::from_millis(200),
            max_streams: 48,
        }
    }
}

/// Outcome of one avail-bw measurement.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PathloadResult {
    /// The estimate `Â` in bits/s, once available.
    pub estimate: Option<f64>,
    /// Streams actually sent.
    pub streams_used: u32,
    /// True once the search has converged or exhausted its budget.
    pub done: bool,
    /// Current search bracket `(lo, hi)` in bits/s, updated after every
    /// stream — lets a driver whose measurement slot expires mid-search
    /// take the bracket midpoint as its best guess.
    pub bracket: (f64, f64),
}

impl PathloadResult {
    /// The converged estimate, or the current bracket midpoint if the
    /// search is still running. `None` before the first verdict.
    pub fn best_guess(&self) -> Option<f64> {
        self.estimate
            .or_else(|| (self.bracket.1 > 0.0).then(|| (self.bracket.0 + self.bracket.1) / 2.0))
    }
}

/// Shared handle to a measurement's result.
pub type PathloadHandle = Rc<RefCell<PathloadResult>>;

/// Per-stream `(seq, one-way delay)` log, written by the receiving
/// [`OwdSink`].
pub(crate) type OwdLog = Rc<RefCell<Vec<Vec<(u64, Time)>>>>;

/// Takes stream `stream`'s samples out of `log` for evaluation, leaving
/// its entry empty: an evaluated stream holds nothing for the rest of
/// the trace. Probes that arrive later land in the emptied entry, which
/// nothing reads.
pub(crate) fn take_samples(log: &OwdLog, stream: u32) -> Vec<(u64, Time)> {
    log.borrow_mut()
        .get_mut(stream as usize)
        .map(std::mem::take)
        .unwrap_or_default()
}

/// The verdict of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trend {
    Increasing,
    NotIncreasing,
}

/// PCT/PDT trend detection over a stream's (seq, OWD) samples, which
/// it sorts in place by sequence number.
fn detect_trend(samples: &mut [(u64, Time)], sent: u32) -> Trend {
    // Loss within the stream is overload evidence: a rate below the
    // avail-bw leaves the queue with room for 200-byte probes, so even a
    // few percent of in-stream loss means the trial rate (plus cross
    // traffic) exceeds the spare capacity.
    if (samples.len() as f64) < 0.95 * sent as f64 {
        return Trend::Increasing;
    }
    if samples.len() < 8 {
        return Trend::NotIncreasing;
    }
    samples.sort_by_key(|&(seq, _)| seq);
    let mut owds: Vec<f64> = samples.iter().map(|&(_, d)| d.as_secs_f64()).collect();
    let n = owds.len();
    let groups = (n as f64).sqrt().ceil() as usize;
    let per = n / groups;
    let mut medians = Vec::with_capacity(groups);
    for g in 0..groups {
        let start = g * per;
        let end = if g == groups - 1 { n } else { start + per };
        let chunk = &mut owds[start..end];
        chunk.sort_by(f64::total_cmp);
        medians.push(chunk[chunk.len() / 2]);
    }
    let mut increases = 0usize;
    let mut total_var = 0.0f64;
    for w in medians.windows(2) {
        if w[1] > w[0] {
            increases += 1;
        }
        total_var += (w[1] - w[0]).abs();
    }
    let pct = increases as f64 / (medians.len() - 1) as f64;
    let pdt = if total_var > 0.0 {
        (medians[medians.len() - 1] - medians[0]) / total_var
    } else {
        0.0
    };
    // Two accepting conditions:
    //
    // * PCT and PDT agree — a genuine overload ramp is strongly monotone
    //   and drives both toward 1. (PCT alone fires on ~1/3 of pure-noise
    //   streams: P(≥4 of 6 random increases) ≈ 0.34.)
    // * PDT alone is very high — a *plateaued* queue (shallow buffer
    //   fills early in the stream, OWDs ramp then flatten at the buffer
    //   ceiling) defeats PCT because most group-to-group steps are flat,
    //   but the net drift still dominates the total variation.
    if (pct > 0.66 && pdt > 0.40) || pdt > 0.70 {
        Trend::Increasing
    } else {
        Trend::NotIncreasing
    }
}

/// Search phase.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Exponential growth until a rate loads the path. `last_good` is
    /// the highest rate already verified as *not increasing*, which
    /// seeds the lower bisection bound (falling back to `min_rate` when
    /// the very first stream already loads the path).
    Grow { last_good: Option<f64> },
    /// Bisection between `lo` (not increasing) and `hi` (increasing).
    Bisect { lo: f64, hi: f64 },
}

const TOKEN_SEND: u64 = 1;
const TOKEN_EVAL: u64 = 2;

/// The sending side of a pathload measurement. Drives the whole search;
/// bootstrapped by a `TOKEN_SEND` timer (see [`Pathload::deploy`]).
pub struct Pathload {
    config: PathloadConfig,
    route: Route,
    dst: EndpointId,
    owds: OwdLog,
    result: PathloadHandle,

    phase: Phase,
    rate: f64,
    stream_idx: u32,
    pkt_idx: u32,
    /// Packets in the stream currently being sent (rate-dependent).
    stream_pkts: u32,
    /// Verdicts of the streams sent at the current rate.
    verdicts: Vec<Trend>,
    /// Memoized probe gap at the current trial rate.
    gap_memo: GapMemo,
}

/// The receiving side of pathload and pathChirp: logs each probe's
/// one-way delay under its stream (pathChirp: chirp) index.
pub(crate) struct OwdSink {
    owds: OwdLog,
}

impl OwdSink {
    /// Adds a sink to `sim`; returns its endpoint id (the probes'
    /// destination) and the log the prober reads.
    pub(crate) fn deploy(sim: &mut Simulator) -> (EndpointId, OwdLog) {
        let owds = OwdLog::default();
        let sink = OwdSink {
            owds: Rc::clone(&owds),
        };
        (sim.add_endpoint(Box::new(sink)), owds)
    }
}

impl Endpoint for OwdSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if let Payload::Probe(meta) = packet.payload {
            let mut log = self.owds.borrow_mut();
            let stream = meta.stream as usize;
            if log.len() <= stream {
                log.resize_with(stream + 1, Vec::new);
            }
            log[stream].push((meta.seq, ctx.now.saturating_sub(meta.sent_at)));
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

impl Pathload {
    /// Installs a pathload measurement into `sim`: a sink endpoint at the
    /// far end of `route` and the probing endpoint, bootstrapped at
    /// `start`. Returns the shared result handle.
    ///
    /// Run the simulation forward and read the handle once `done` (the
    /// search needs on the order of
    /// `max_streams × (stream duration + eval_wait)` of simulated time;
    /// with defaults, well under a minute).
    pub fn deploy(
        sim: &mut Simulator,
        config: PathloadConfig,
        route: Route,
        start: Time,
    ) -> PathloadHandle {
        Self::install(sim, config, route, start).0
    }

    /// [`Pathload::deploy`], also returning the OWD log the prober
    /// evaluates.
    pub(crate) fn install(
        sim: &mut Simulator,
        config: PathloadConfig,
        route: Route,
        start: Time,
    ) -> (PathloadHandle, OwdLog) {
        let (sink_id, owds) = OwdSink::deploy(sim);
        let result = PathloadHandle::default();
        // The grow phase starts a few doublings below max_rate rather
        // than at min_rate: real pathload likewise begins near a coarse
        // first guess, and starting extremely low would waste the
        // measurement slot on near-idle streams.
        let start_rate = (config.max_rate / 64.0).max(config.min_rate);
        let mut prober = Pathload {
            rate: start_rate,
            config,
            route,
            dst: sink_id,
            owds: Rc::clone(&owds),
            result: Rc::clone(&result),
            phase: Phase::Grow { last_good: None },
            stream_idx: 0,
            pkt_idx: 0,
            stream_pkts: 0,
            verdicts: Vec::new(),
            gap_memo: GapMemo::EMPTY,
        };
        prober.stream_pkts = prober.packets_for_rate();
        let prober_id = sim.add_endpoint(Box::new(prober));
        sim.schedule_timer(prober_id, TOKEN_SEND, start);
        (result, owds)
    }

    fn finish(&mut self, estimate: f64) {
        let mut r = self.result.borrow_mut();
        r.estimate = Some(estimate);
        r.streams_used = self.stream_idx;
        r.done = true;
        r.bracket = (estimate, estimate);
    }

    fn publish_bracket(&self) {
        let bracket = match self.phase {
            Phase::Grow { last_good } => (
                last_good.unwrap_or(self.config.min_rate),
                self.rate.max(self.config.min_rate * 2.0),
            ),
            Phase::Bisect { lo, hi } => (lo, hi),
        };
        let mut r = self.result.borrow_mut();
        r.bracket = bracket;
        r.streams_used = self.stream_idx;
    }

    fn send_gap(&mut self) -> Time {
        self.gap_memo.tx_time(self.config.packet_size, self.rate)
    }

    /// Stream length at the current rate: the configured `K`, shrunk so
    /// the stream never exceeds `max_stream_duration` (floor 12 packets).
    fn packets_for_rate(&self) -> u32 {
        let by_duration = (self.rate * self.config.max_stream_duration.as_secs_f64()
            / (8.0 * self.config.packet_size as f64)) as u32;
        by_duration.clamp(12, self.config.packets_per_stream)
    }

    /// Verdict for the current rate: the majority of its streams.
    fn rate_verdict(&self) -> Trend {
        let inc = self
            .verdicts
            .iter()
            .filter(|&&v| v == Trend::Increasing)
            .count();
        if 2 * inc > self.verdicts.len() {
            Trend::Increasing
        } else {
            Trend::NotIncreasing
        }
    }

    fn advance_search(&mut self, ctx: &mut Ctx<'_>) {
        let verdict = self.rate_verdict();
        self.verdicts.clear();
        match self.phase {
            Phase::Grow { last_good } => match verdict {
                Trend::NotIncreasing => {
                    if self.rate >= self.config.max_rate {
                        self.finish(self.config.max_rate);
                        return;
                    }
                    self.phase = Phase::Grow {
                        last_good: Some(self.rate),
                    };
                    self.rate = (self.rate * 2.0).min(self.config.max_rate);
                }
                Trend::Increasing => {
                    if self.rate <= self.config.min_rate {
                        // Even the lowest rate loads the path.
                        self.finish(self.config.min_rate);
                        return;
                    }
                    // Bisect between the last VERIFIED non-increasing
                    // rate and this one. If the very first stream loaded
                    // the path (the grow phase starts above min_rate),
                    // the bracket floor is min_rate, not an untested
                    // half-rate.
                    let lo = last_good.unwrap_or(self.config.min_rate);
                    self.phase = Phase::Bisect { lo, hi: self.rate };
                    self.rate = (lo + self.rate) / 2.0;
                }
            },
            Phase::Bisect { lo, hi } => {
                let (lo, hi) = match verdict {
                    Trend::Increasing => (lo, self.rate),
                    Trend::NotIncreasing => (self.rate, hi),
                };
                if hi - lo <= self.config.resolution_fraction * hi {
                    self.finish((lo + hi) / 2.0);
                    return;
                }
                self.phase = Phase::Bisect { lo, hi };
                self.rate = (lo + hi) / 2.0;
            }
        }
        if self.stream_idx >= self.config.max_streams {
            // Budget exhausted: report the current bracket midpoint.
            let estimate = match self.phase {
                Phase::Grow { .. } => self.rate,
                Phase::Bisect { lo, hi } => (lo + hi) / 2.0,
            };
            self.finish(estimate);
            return;
        }
        // Launch the next stream.
        self.publish_bracket();
        self.pkt_idx = 0;
        self.stream_pkts = self.packets_for_rate();
        ctx.set_timer_after(TOKEN_SEND, Time::ZERO);
    }
}

impl Endpoint for Pathload {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.result.borrow().done {
            return;
        }
        match token {
            TOKEN_SEND => {
                if self.pkt_idx < self.stream_pkts {
                    let meta = ProbeMeta {
                        seq: self.pkt_idx as u64,
                        stream: self.stream_idx,
                        sent_at: ctx.now,
                        is_reply: false,
                    };
                    ctx.send(
                        self.route,
                        self.dst,
                        self.config.packet_size,
                        Payload::Probe(meta),
                    );
                    self.pkt_idx += 1;
                    let gap = self.send_gap();
                    ctx.set_timer_after(TOKEN_SEND, gap);
                } else {
                    ctx.set_timer_after(TOKEN_EVAL, self.config.eval_wait);
                }
            }
            TOKEN_EVAL => {
                let mut samples = take_samples(&self.owds, self.stream_idx);
                let trend = detect_trend(&mut samples, self.stream_pkts);
                self.verdicts.push(trend);
                self.stream_idx += 1;
                if (self.verdicts.len() as u32) < self.config.streams_per_rate
                    && self.stream_idx < self.config.max_streams
                {
                    // Another stream at the same rate.
                    self.pkt_idx = 0;
                    self.stream_pkts = self.packets_for_rate();
                    ctx.set_timer_after(TOKEN_SEND, Time::ZERO);
                } else {
                    self.advance_search(ctx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tputpred_netsim::link::LinkConfig;
    use tputpred_netsim::sources::{CbrSource, PoissonSource, Sink, SourceConfig};
    use tputpred_netsim::{RateSchedule, Simulator};

    /// Runs a measurement to completion on a `capacity` link carrying
    /// `cross` bits/s of Poisson cross traffic (170-packet buffer,
    /// probing from 2 s) or, with `cbr`, of constant-rate cross traffic
    /// (the oracle test's world: 100-packet buffer, probing from 0 s).
    /// Returns the result and the OWD log.
    fn run(capacity: f64, cross: f64, cbr: bool, seed: u64) -> (PathloadResult, OwdLog) {
        let mut sim = Simulator::new(seed);
        let buffer = if cbr { 100 } else { 170 };
        let fwd = sim.add_link(LinkConfig::new(capacity, Time::from_millis(20), buffer));
        if cross > 0.0 {
            let (sink, _) = Sink::new();
            let sink_id = sim.add_endpoint(Box::new(sink));
            let config = SourceConfig {
                route: Route::direct(fwd),
                dst: sink_id,
                packet_size: 1000,
                base_rate_bps: cross,
                schedule: RateSchedule::constant(1.0),
                stop: Time::MAX,
            };
            if cbr {
                sim.add_source(CbrSource::new(config), Time::ZERO);
            } else {
                sim.add_source(PoissonSource::new(config), Time::ZERO);
            }
        }
        // Let Poisson cross traffic reach steady state first.
        let start = if cbr { Time::ZERO } else { Time::from_secs(2) };
        let (handle, log) = Pathload::install(
            &mut sim,
            PathloadConfig::default(),
            Route::direct(fwd),
            start,
        );
        sim.run_until(Time::from_secs(120));
        let r = *handle.borrow();
        assert!(r.done, "search must converge within the horizon");
        (r, log)
    }

    /// Runs a measurement on a `capacity` link carrying `cross` bits/s of
    /// Poisson cross traffic; returns the estimate.
    fn measure(capacity: f64, cross: f64, seed: u64) -> f64 {
        let (r, _) = run(capacity, cross, false, seed);
        r.estimate.expect("estimate present when done")
    }

    #[test]
    fn idle_path_estimates_near_capacity() {
        let est = measure(10e6, 0.0, 31);
        assert!(
            (7e6..13e6).contains(&est),
            "idle 10 Mbps path: {:.2} Mbps",
            est / 1e6
        );
    }

    #[test]
    fn half_loaded_path_estimates_the_residual() {
        let est = measure(10e6, 5e6, 32);
        assert!(
            (3e6..7.5e6).contains(&est),
            "expected ≈5 Mbps residual, got {:.2} Mbps",
            est / 1e6
        );
    }

    #[test]
    fn heavily_loaded_path_estimates_small() {
        let est = measure(10e6, 9e6, 33);
        assert!(
            est < 3e6,
            "expected ≲1 Mbps residual, got {:.2} Mbps",
            est / 1e6
        );
    }

    #[test]
    fn slow_dsl_path_is_measurable() {
        let est = measure(1e6, 0.0, 34);
        assert!(
            (0.6e6..1.5e6).contains(&est),
            "idle 1 Mbps DSL: {:.2} Mbps",
            est / 1e6
        );
    }

    #[test]
    fn trend_detector_flags_monotone_owds() {
        let mut samples: Vec<(u64, Time)> = (0..60)
            .map(|i| (i, Time::from_micros(1000 + 50 * i)))
            .collect();
        assert_eq!(detect_trend(&mut samples, 60), Trend::Increasing);
    }

    #[test]
    fn trend_detector_accepts_flat_owds() {
        let mut samples: Vec<(u64, Time)> = (0..60).map(|i| (i, Time::from_micros(1000))).collect();
        assert_eq!(detect_trend(&mut samples, 60), Trend::NotIncreasing);
    }

    #[test]
    fn trend_detector_ignores_noise_without_trend() {
        let mut samples: Vec<(u64, Time)> = (0..60)
            .map(|i| (i, Time::from_micros(1000 + (i * 7919) % 200)))
            .collect();
        assert_eq!(detect_trend(&mut samples, 60), Trend::NotIncreasing);
    }

    #[test]
    fn heavy_stream_loss_reads_as_overload() {
        let mut samples: Vec<(u64, Time)> = (0..20).map(|i| (i, Time::from_micros(1000))).collect();
        assert_eq!(detect_trend(&mut samples, 60), Trend::Increasing);
    }

    #[test]
    fn slight_stream_loss_also_reads_as_overload() {
        // 56/60 delivered (6.7% loss): above the 5% gate.
        let mut samples: Vec<(u64, Time)> = (0..56).map(|i| (i, Time::from_micros(1000))).collect();
        assert_eq!(detect_trend(&mut samples, 60), Trend::Increasing);
    }

    #[test]
    fn plateaued_queue_reads_as_overload() {
        // OWDs ramp for the first third, then sit at the buffer ceiling:
        // PCT is low (flat majority) but the net drift dominates.
        let mut samples: Vec<(u64, Time)> = (0..60)
            .map(|i| {
                let owd = if i < 20 { 1000 + 800 * i } else { 17_000 };
                (i, Time::from_micros(owd))
            })
            .collect();
        assert_eq!(detect_trend(&mut samples, 60), Trend::Increasing);
    }

    #[test]
    fn measurement_is_deterministic() {
        assert_eq!(measure(10e6, 5e6, 77), measure(10e6, 5e6, 77));
    }

    #[test]
    fn evaluated_streams_leave_no_samples_behind() {
        // Estimate bits as the copying evaluation produced them: the
        // Poisson worlds of the tests above and the CBR worlds of
        // `tests/oracles.rs`.
        let worlds = [
            (10e6, 0.0, false, 31, 0x4162_a05f_2000_0000_u64),
            (10e6, 5e6, false, 32, 0x4155_9b4f_a000_0000),
            (10e6, 9e6, false, 33, 0x413f_8e00_c000_0000),
            (1e6, 0.0, false, 34, 0x412d_6295_4000_0000),
            (10e6, 0.0, true, 11, 0x4162_a05f_2000_0000),
            (10e6, 2e6, true, 11, 0x415f_4add_4000_0000),
            (10e6, 5e6, true, 11, 0x4152_a05f_2000_0000),
            (10e6, 8e6, true, 11, 0x413f_8e00_c000_0000),
            (100e6, 40e6, true, 11, 0x418c_4fec_c000_0000),
            (1e6, 0.5e6, true, 11, 0x411e_e935_4000_0000),
        ];
        for (capacity, cross, cbr, seed, bits) in worlds {
            let (r, log) = run(capacity, cross, cbr, seed);
            let label = format!("C = {capacity}, x = {cross}, cbr = {cbr}");
            assert_eq!(r.estimate.map(f64::to_bits), Some(bits), "{label}");
            let log = log.borrow();
            assert!(!log.is_empty(), "{label}: probes arrived");
            assert!(log.len() <= r.streams_used as usize, "{label}");
            // Only stragglers remain: probes that landed after their
            // stream was evaluated, so later than `eval_wait` after the
            // stream's last send.
            let eval_wait = PathloadConfig::default().eval_wait;
            let late = log.iter().flatten().filter(|&&(_, owd)| owd > eval_wait);
            assert_eq!(
                late.count(),
                log.iter().map(Vec::len).sum::<usize>(),
                "{label}: evaluated samples kept"
            );
        }
    }
}
