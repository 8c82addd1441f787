//! pathChirp-style available-bandwidth estimation (the paper's ref.
//! \[21\]: Ribeiro et al., PAM 2003).
//!
//! Where pathload sends constant-rate streams and bisects, pathChirp
//! sends **chirps**: short trains whose inter-packet gaps shrink
//! exponentially, so a single train sweeps a whole range of
//! instantaneous rates. The receiver looks for the *excursion point* —
//! the packet index from which one-way delays rise persistently — and
//! reads the avail-bw off the instantaneous rate at that point. Several
//! chirps are averaged (median here) for one estimate.
//!
//! Simplifications relative to the real tool (recorded in DESIGN.md):
//! the full excursion-segmentation of the original is reduced to the
//! last persistent-increase suffix of the delay profile, and the
//! estimate aggregation is a median rather than the per-packet weighted
//! average. The probing traffic itself — exponentially spaced small UDP
//! packets through the real queue — is simulated faithfully.

use crate::pathload::{take_samples, OwdLog, OwdSink};
use std::cell::RefCell;
use std::rc::Rc;
use tputpred_netsim::{
    Ctx, Endpoint, EndpointId, Packet, Payload, ProbeMeta, Route, Simulator, Time,
};

/// pathChirp parameters.
#[derive(Debug, Clone, Copy)]
pub struct PathChirpConfig {
    /// Probe packet wire size.
    pub packet_size: u32,
    /// Packets per chirp.
    pub packets_per_chirp: u32,
    /// Instantaneous rate of the first inter-packet gap, bits/s.
    pub min_rate: f64,
    /// Instantaneous rate of the last inter-packet gap, bits/s.
    pub max_rate: f64,
    /// Chirps per measurement; the estimate is their median.
    pub chirps: u32,
    /// Idle gap between chirps (queue drain + straggler arrival).
    pub inter_chirp_gap: Time,
    /// Fraction of a chirp's tail that must show rising delays for an
    /// excursion to count (persistence filter).
    pub persistence: f64,
}

impl Default for PathChirpConfig {
    fn default() -> Self {
        PathChirpConfig {
            // Full-size probes: the chirp's own queue buildup at
            // above-avail rates must stand out against cross-traffic
            // noise, and buildup per packet scales with packet size.
            packet_size: 1000,
            packets_per_chirp: 32,
            min_rate: 100e3,
            max_rate: 200e6,
            chirps: 9,
            inter_chirp_gap: Time::from_millis(250),
            persistence: 0.55,
        }
    }
}

/// Outcome of a pathChirp measurement.
#[derive(Debug, Clone, Default)]
pub struct PathChirpResult {
    /// Median of the per-chirp estimates, once all chirps are evaluated.
    pub estimate: Option<f64>,
    /// Per-chirp estimates, in chirp order.
    pub per_chirp: Vec<f64>,
    /// True once all chirps are in.
    pub done: bool,
}

/// Shared handle to a measurement's result.
pub type PathChirpHandle = Rc<RefCell<PathChirpResult>>;

/// Instantaneous rate preceding packet `k` (gap between packets k−1, k).
fn rate_at(config: &PathChirpConfig, k: u32) -> f64 {
    // Geometric sweep from min_rate (first gap) to max_rate (last gap).
    let n = config.packets_per_chirp.max(2);
    let ratio = (config.max_rate / config.min_rate).powf(1.0 / (n - 2).max(1) as f64);
    config.min_rate * ratio.powi(k.saturating_sub(1) as i32)
}

/// Per-chirp estimate from its OWD profile: the instantaneous rate at the
/// start of the final persistent delay excursion.
fn chirp_estimate(config: &PathChirpConfig, samples: &[(u64, Time)], sent: u32) -> f64 {
    // Missing packets at the tail mean the chirp's top rates overflowed
    // the queue: treat the first missing index as the excursion point.
    let mut owds = vec![None; sent as usize];
    for &(seq, owd) in samples {
        if (seq as usize) < owds.len() {
            owds[seq as usize] = Some(owd.as_secs_f64());
        }
    }
    let first_missing = owds.iter().position(|o| o.is_none());
    let usable: Vec<f64> = owds.iter().map_while(|o| *o).collect();
    if usable.len() < 4 {
        return config.min_rate;
    }
    let n = usable.len();
    // Light 3-point median smoothing so a single noisy sample cannot
    // masquerade as (or hide) the final climb.
    let smooth: Vec<f64> = (0..n)
        .map(|i| {
            let lo = i.saturating_sub(1);
            let hi = (i + 2).min(n);
            let mut w: Vec<f64> = usable[lo..hi].to_vec();
            w.sort_by(f64::total_cmp);
            w[w.len() / 2]
        })
        .collect();
    // The excursion point is the *last valley before the final climb*:
    // the largest index whose (smoothed) delay is a minimum of its own
    // suffix. From there the delays must rise persistently — at least
    // `persistence` of the steps increasing with a positive net drift —
    // or the chirp never loaded the path.
    let mut excursion = None;
    let mut suffix_min = f64::INFINITY;
    let mut valley = None;
    for i in (0..n - 1).rev() {
        if smooth[i] <= suffix_min {
            suffix_min = smooth[i];
            valley = Some(i);
        }
    }
    if let Some(v) = valley {
        // Largest index still equal to the running suffix minimum.
        let last_valley = (v..n - 1)
            .rev()
            .find(|&i| smooth[i] <= suffix_min + 1e-12)
            .unwrap_or(v);
        let suffix = &smooth[last_valley..];
        if suffix.len() >= 3 {
            let steps = suffix.len() - 1;
            let ups = suffix.windows(2).filter(|w| w[1] > w[0]).count();
            let net = suffix[suffix.len() - 1] - suffix[0];
            if ups as f64 >= config.persistence * steps as f64 && net > 0.0 {
                excursion = Some((last_valley + 1) as u32);
            }
        }
    }
    match (excursion, first_missing) {
        (Some(k), _) => rate_at(config, k),
        // No rising suffix but losses: the loss point is the excursion.
        (None, Some(m)) if m >= 2 => rate_at(config, m as u32),
        (None, Some(_)) => config.min_rate,
        // The chirp never loaded the path: avail-bw is at least max_rate.
        (None, None) => config.max_rate,
    }
}

const TOKEN_SEND: u64 = 1;
const TOKEN_EVAL: u64 = 2;

/// The sending side of a pathChirp measurement.
pub struct PathChirp {
    config: PathChirpConfig,
    route: Route,
    dst: EndpointId,
    owds: OwdLog,
    result: PathChirpHandle,
    chirp_idx: u32,
    pkt_idx: u32,
}

impl PathChirp {
    /// Installs a measurement into `sim`, bootstrapped at `start`;
    /// returns the shared result handle. Wall time is roughly
    /// `chirps × (chirp duration + inter_chirp_gap)` — a second or two
    /// with defaults.
    pub fn deploy(
        sim: &mut Simulator,
        config: PathChirpConfig,
        route: Route,
        start: Time,
    ) -> PathChirpHandle {
        Self::install(sim, config, route, start).0
    }

    /// [`PathChirp::deploy`], also returning the OWD log the prober
    /// evaluates.
    pub(crate) fn install(
        sim: &mut Simulator,
        config: PathChirpConfig,
        route: Route,
        start: Time,
    ) -> (PathChirpHandle, OwdLog) {
        let (sink_id, owds) = OwdSink::deploy(sim);
        let result = PathChirpHandle::default();
        let prober = PathChirp {
            config,
            route,
            dst: sink_id,
            owds: Rc::clone(&owds),
            result: Rc::clone(&result),
            chirp_idx: 0,
            pkt_idx: 0,
        };
        let id = sim.add_endpoint(Box::new(prober));
        sim.schedule_timer(id, TOKEN_SEND, start);
        (result, owds)
    }
}

impl Endpoint for PathChirp {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.result.borrow().done {
            return;
        }
        match token {
            TOKEN_SEND if self.pkt_idx < self.config.packets_per_chirp => {
                let meta = ProbeMeta {
                    seq: self.pkt_idx as u64,
                    stream: self.chirp_idx,
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
                if self.pkt_idx < self.config.packets_per_chirp {
                    let rate = rate_at(&self.config, self.pkt_idx);
                    ctx.set_timer_after(TOKEN_SEND, Time::tx_time(self.config.packet_size, rate));
                } else {
                    ctx.set_timer_after(TOKEN_EVAL, self.config.inter_chirp_gap);
                }
            }
            TOKEN_EVAL => {
                let samples = take_samples(&self.owds, self.chirp_idx);
                let estimate =
                    chirp_estimate(&self.config, &samples, self.config.packets_per_chirp);
                {
                    let mut r = self.result.borrow_mut();
                    r.per_chirp.push(estimate);
                    if r.per_chirp.len() as u32 >= self.config.chirps {
                        r.estimate = tputpred_stats::median(&r.per_chirp);
                        r.done = true;
                        return;
                    }
                }
                self.chirp_idx += 1;
                self.pkt_idx = 0;
                ctx.set_timer_after(TOKEN_SEND, Time::ZERO);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tputpred_netsim::link::LinkConfig;
    use tputpred_netsim::sources::{PoissonSource, Sink, SourceConfig};
    use tputpred_netsim::RateSchedule;

    /// Runs a measurement to completion on a `capacity` link carrying
    /// `cross` bits/s of Poisson cross traffic; returns the estimate and
    /// the OWD log.
    fn run(capacity: f64, cross: f64, seed: u64) -> (f64, OwdLog) {
        let mut sim = Simulator::new(seed);
        let fwd = sim.add_link(LinkConfig::new(capacity, Time::from_millis(20), 170));
        if cross > 0.0 {
            let (sink, _) = Sink::new();
            let sink_id = sim.add_endpoint(Box::new(sink));
            let src = PoissonSource::new(SourceConfig {
                route: Route::direct(fwd),
                dst: sink_id,
                packet_size: 1000,
                base_rate_bps: cross,
                schedule: RateSchedule::constant(1.0),
                stop: Time::MAX,
            });
            sim.add_source(src, Time::ZERO);
        }
        let config = PathChirpConfig {
            max_rate: capacity * 1.5,
            ..PathChirpConfig::default()
        };
        let (handle, log) =
            PathChirp::install(&mut sim, config, Route::direct(fwd), Time::from_secs(2));
        sim.run_until(Time::from_secs(30));
        let r = handle.borrow();
        assert!(r.done, "chirp train must complete");
        (r.estimate.unwrap(), log)
    }

    fn measure(capacity: f64, cross: f64, seed: u64) -> f64 {
        run(capacity, cross, seed).0
    }

    #[test]
    fn idle_path_estimates_near_capacity() {
        let est = measure(10e6, 0.0, 51);
        assert!(
            (6e6..15.5e6).contains(&est),
            "idle 10 Mbps: {:.2} Mbps",
            est / 1e6
        );
    }

    #[test]
    fn half_loaded_path_estimates_the_residual() {
        let est = measure(10e6, 5e6, 52);
        assert!(
            (2e6..9e6).contains(&est),
            "≈5 Mbps residual: {:.2} Mbps",
            est / 1e6
        );
    }

    #[test]
    fn loaded_path_estimates_well_below_idle() {
        let idle = measure(10e6, 0.0, 53);
        let loaded = measure(10e6, 8e6, 53);
        assert!(
            loaded < idle / 1.8,
            "80% load must show: idle {:.2} vs loaded {:.2} Mbps",
            idle / 1e6,
            loaded / 1e6
        );
    }

    #[test]
    fn rate_sweep_is_geometric_and_bounded() {
        let cfg = PathChirpConfig::default();
        let first = rate_at(&cfg, 1);
        let last = rate_at(&cfg, cfg.packets_per_chirp - 1);
        assert!((first / cfg.min_rate - 1.0).abs() < 1e-9);
        assert!((last / cfg.max_rate - 1.0).abs() < 0.01, "last {last}");
        for k in 1..cfg.packets_per_chirp {
            assert!(rate_at(&cfg, k) >= rate_at(&cfg, k.saturating_sub(1)) * 0.999);
        }
    }

    #[test]
    fn excursion_detection_reads_a_synthetic_profile() {
        let cfg = PathChirpConfig {
            packets_per_chirp: 20,
            min_rate: 1e6,
            max_rate: 64e6,
            ..PathChirpConfig::default()
        };
        // Flat delays up to packet 10, rising after: excursion at ~10.
        let samples: Vec<(u64, Time)> = (0..20)
            .map(|i| {
                let owd = if i < 10 { 1000 } else { 1000 + 300 * (i - 9) };
                (i, Time::from_micros(owd))
            })
            .collect();
        let est = chirp_estimate(&cfg, &samples, 20);
        let expected = rate_at(&cfg, 10);
        assert!(
            (est / expected - 1.0).abs() < 0.8,
            "estimate {est:.0} vs rate at excursion {expected:.0}"
        );
    }

    #[test]
    fn clean_profile_reports_max_rate() {
        let cfg = PathChirpConfig::default();
        let samples: Vec<(u64, Time)> = (0..cfg.packets_per_chirp as u64)
            .map(|i| (i, Time::from_micros(1000)))
            .collect();
        assert_eq!(
            chirp_estimate(&cfg, &samples, cfg.packets_per_chirp),
            cfg.max_rate
        );
    }

    #[test]
    fn tail_loss_marks_the_excursion() {
        let cfg = PathChirpConfig::default();
        // Only the first 12 of 24 packets arrive (flat delays): the top
        // rates overflowed.
        let samples: Vec<(u64, Time)> = (0..12).map(|i| (i, Time::from_micros(1000))).collect();
        let est = chirp_estimate(&cfg, &samples, cfg.packets_per_chirp);
        assert!((est / rate_at(&cfg, 12) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn measurement_is_deterministic() {
        assert_eq!(measure(10e6, 4e6, 54), measure(10e6, 4e6, 54));
    }

    #[test]
    fn evaluated_chirps_leave_no_samples_behind() {
        // Estimate bits as the copying evaluation produced them, on the
        // worlds of the tests above.
        let worlds = [
            (10e6, 0.0, 51, 0x4164_7c4f_fad3_5c2d_u64),
            (10e6, 5e6, 52, 0x4149_7431_5622_7ffd),
            (10e6, 8e6, 53, 0x412a_c324_1c5c_8424),
            (10e6, 4e6, 54, 0x4155_0168_a4b8_b9ce),
        ];
        for (capacity, cross, seed, bits) in worlds {
            let (estimate, log) = run(capacity, cross, seed);
            assert_eq!(estimate.to_bits(), bits, "x = {cross}");
            let log = log.borrow();
            assert_eq!(log.len(), PathChirpConfig::default().chirps as usize);
            assert!(log.iter().all(Vec::is_empty), "x = {cross}: samples kept");
        }
    }
}
