//! Periodic RTT/loss probing — the paper's "homespun ping utility that
//! generates a 41-byte probing packet every 100 ms" (§4.1).

use std::cell::RefCell;
use std::rc::Rc;
use tputpred_netsim::{Ctx, Endpoint, EndpointId, Packet, Payload, ProbeMeta, Route, Time};

/// One probe's fate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ProbeRecord {
    sent_at: Time,
    /// RTT if the echo came back.
    rtt: Option<Time>,
}

/// Accumulated probe records, shared with the experiment driver.
#[derive(Debug, Default)]
pub struct PingStats {
    records: Vec<ProbeRecord>,
}

/// RTT/loss summary over a probing window: the `(T̂, p̂)` or `(T̃, p̃)`
/// pair of one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingSummary {
    /// Probes sent in the window.
    pub sent: usize,
    /// Probes answered.
    pub received: usize,
    /// Mean RTT of answered probes, seconds (0.0 if none answered).
    pub rtt: f64,
    /// Loss rate: unanswered / sent (0.0 for an empty window).
    pub loss_rate: f64,
}

/// Fault windows applied when summarizing probe records — the
/// measurement-layer view of a prober outage or a reply-loss burst
/// (`tputpred-testbed::faults`). The probes themselves still traverse
/// the simulated path (41 bytes per 100 ms is negligible load); the
/// mask rewrites what the *measurement* sees.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeMask {
    /// Prober down: probes sent within `[start, end)` are treated as
    /// never sent — excluded from the summary entirely.
    pub outage: Option<(Time, Time)>,
    /// Return-path loss burst: probes sent within `[start, end)` count
    /// as lost even when their echo arrived.
    pub forced_loss: Option<(Time, Time)>,
}

impl ProbeMask {
    /// A mask that changes nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no window is set.
    pub fn is_none(&self) -> bool {
        self.outage.is_none() && self.forced_loss.is_none()
    }
}

fn within(t: Time, window: Option<(Time, Time)>) -> bool {
    window.is_some_and(|(start, end)| t >= start && t < end)
}

impl PingStats {
    /// Summarizes probes *sent* within `[from, to)`.
    ///
    /// A probe with no echo counts as lost, so call this only once the
    /// window is comfortably past (replies in flight at query time would
    /// otherwise inflate the loss rate — epochs in the testbed leave
    /// multi-second guards, and RTTs are well under a second).
    pub fn summarize(&self, from: Time, to: Time) -> PingSummary {
        self.summarize_masked(from, to, &ProbeMask::none())
    }

    /// [`PingStats::summarize`] with fault windows applied: probes in
    /// the mask's outage window are dropped from the summary, probes in
    /// its forced-loss window count as lost. With [`ProbeMask::none`]
    /// this is exactly `summarize`.
    ///
    /// Records are kept in send order, so the window is found by binary
    /// search and the cost is O(log n + window), not O(n).
    pub fn summarize_masked(&self, from: Time, to: Time, mask: &ProbeMask) -> PingSummary {
        let lo = self.records.partition_point(|r| r.sent_at < from);
        let hi = lo + self.records[lo..].partition_point(|r| r.sent_at < to);
        let window = self.records[lo..hi]
            .iter()
            .filter(|r| !within(r.sent_at, mask.outage));
        let mut sent = 0;
        let mut received = 0;
        let mut rtt_sum = 0.0;
        for r in window {
            sent += 1;
            if within(r.sent_at, mask.forced_loss) {
                continue;
            }
            if let Some(rtt) = r.rtt {
                received += 1;
                rtt_sum += rtt.as_secs_f64();
            }
        }
        PingSummary {
            sent,
            received,
            rtt: if received > 0 {
                rtt_sum / received as f64
            } else {
                0.0
            },
            loss_rate: if sent > 0 {
                (sent - received) as f64 / sent as f64
            } else {
                0.0
            },
        }
    }

    /// Total probes recorded.
    pub fn total_sent(&self) -> usize {
        self.records.len()
    }

    /// Probes whose echo never came back (replies lost, in-flight
    /// replies included until they land). Telemetry reads this once a
    /// trace is over; it is not a per-window loss estimate — use
    /// [`PingStats::summarize`] for that.
    pub fn replies_lost(&self) -> usize {
        self.records.iter().filter(|r| r.rtt.is_none()).count()
    }
}

/// Shared handle to a prober's records.
pub type PingStatsHandle = Rc<RefCell<PingStats>>;

/// The probing endpoint. Sends a probe every `interval` from its
/// bootstrap timer until `stop`; pairs echoes by sequence number.
///
/// Wire size is 41 bytes, as in the paper.
pub struct PingProber {
    route: Route,
    dst: EndpointId,
    interval: Time,
    stop: Time,
    probe_size: u32,
    next_seq: u64,
    stats: PingStatsHandle,
}

impl PingProber {
    /// The paper's probe size.
    pub const PROBE_SIZE: u32 = 41;

    /// Creates a prober toward the [`tputpred_netsim::sources::Reflector`]
    /// at `dst`, probing every `interval` until `stop`. Returns the
    /// prober and the shared record handle.
    pub fn new(
        route: Route,
        dst: EndpointId,
        interval: Time,
        stop: Time,
    ) -> (Self, PingStatsHandle) {
        let stats = PingStatsHandle::default();
        (
            PingProber {
                route,
                dst,
                interval,
                stop,
                probe_size: Self::PROBE_SIZE,
                next_seq: 0,
                stats: Rc::clone(&stats),
            },
            stats,
        )
    }
}

impl Endpoint for PingProber {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if let Payload::Probe(meta) = packet.payload {
            if meta.is_reply {
                let mut stats = self.stats.borrow_mut();
                if let Some(rec) = stats.records.get_mut(meta.seq as usize) {
                    assert_eq!(rec.sent_at, meta.sent_at, "echo timestamp mismatch");
                    rec.rtt = Some(ctx.now.saturating_sub(meta.sent_at));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if ctx.now >= self.stop {
            return;
        }
        let meta = ProbeMeta {
            seq: self.next_seq,
            stream: 0,
            sent_at: ctx.now,
            is_reply: false,
        };
        self.next_seq += 1;
        self.stats.borrow_mut().records.push(ProbeRecord {
            sent_at: ctx.now,
            rtt: None,
        });
        ctx.send(self.route, self.dst, self.probe_size, Payload::Probe(meta));
        ctx.set_timer_after(0, self.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tputpred_netsim::link::LinkConfig;
    use tputpred_netsim::sources::{PoissonSource, Reflector, Sink, SourceConfig};
    use tputpred_netsim::{RateSchedule, Simulator};

    /// One path: forward link (configurable), fast reverse link.
    fn world(fwd_rate: f64, fwd_buffer_pkts: u32) -> (Simulator, PingStatsHandle) {
        let mut sim = Simulator::new(21);
        let fwd = sim.add_link(LinkConfig::new(
            fwd_rate,
            Time::from_millis(25),
            fwd_buffer_pkts,
        ));
        let rev = sim.add_link(LinkConfig::new(1e9, Time::from_millis(25), 1000));
        let reflector = Reflector::new(Route::direct(rev));
        let refl_id = sim.add_endpoint(Box::new(reflector));
        let (prober, stats) = PingProber::new(
            Route::direct(fwd),
            refl_id,
            Time::from_millis(100),
            Time::from_secs(60),
        );
        let prober_id = sim.add_endpoint(Box::new(prober));
        sim.schedule_timer(prober_id, 0, Time::ZERO);
        (sim, stats)
    }

    #[test]
    fn idle_path_measures_base_rtt_and_zero_loss() {
        let (mut sim, stats) = world(10e6, 67);
        sim.run_until(Time::from_secs(62));
        let s = stats.borrow().summarize(Time::ZERO, Time::from_secs(60));
        assert_eq!(s.sent, 600, "one probe per 100 ms for 60 s");
        assert_eq!(s.received, 600);
        assert_eq!(s.loss_rate, 0.0);
        // 50 ms propagation + negligible serialization.
        assert!((s.rtt - 0.050).abs() < 0.001, "rtt {:.4}", s.rtt);
    }

    #[test]
    fn saturated_path_shows_loss_and_queueing() {
        let (mut sim, stats) = {
            let mut sim = Simulator::new(22);
            let fwd = sim.add_link(LinkConfig::new(2e6, Time::from_millis(25), 13));
            let rev = sim.add_link(LinkConfig::new(1e9, Time::from_millis(25), 1000));
            let reflector = Reflector::new(Route::direct(rev));
            let refl_id = sim.add_endpoint(Box::new(reflector));
            // 120% offered Poisson load on the forward link (random
            // arrivals, so the probe samples the full queue at random
            // phases — deterministic CBR would phase-lock with the
            // 100 ms probe period).
            let (sink, _) = Sink::new();
            let sink_id = sim.add_endpoint(Box::new(sink));
            let cbr = PoissonSource::new(SourceConfig {
                route: Route::direct(fwd),
                dst: sink_id,
                packet_size: 1500,
                base_rate_bps: 2.4e6,
                schedule: RateSchedule::constant(1.0),
                stop: Time::MAX,
            });
            sim.add_source(cbr, Time::ZERO);
            let (prober, stats) = PingProber::new(
                Route::direct(fwd),
                refl_id,
                Time::from_millis(100),
                Time::from_secs(60),
            );
            let prober_id = sim.add_endpoint(Box::new(prober));
            sim.schedule_timer(prober_id, 0, Time::ZERO);
            (sim, stats)
        };
        sim.run_until(Time::from_secs(65));
        let s = stats.borrow().summarize(Time::ZERO, Time::from_secs(60));
        assert!(
            s.loss_rate > 0.05,
            "overload must drop probes: {}",
            s.loss_rate
        );
        // A full 13-packet (~19.5 kB) queue at 2 Mbps adds ~78 ms.
        assert!(s.rtt > 0.100, "queueing delay visible: {:.4}", s.rtt);
    }

    #[test]
    fn windows_are_independent() {
        let (mut sim, stats) = world(10e6, 67);
        sim.run_until(Time::from_secs(62));
        let first = stats.borrow().summarize(Time::ZERO, Time::from_secs(30));
        let second = stats
            .borrow()
            .summarize(Time::from_secs(30), Time::from_secs(60));
        assert_eq!(first.sent, 300);
        assert_eq!(second.sent, 300);
    }

    #[test]
    fn prober_stops_at_deadline() {
        let (mut sim, stats) = world(10e6, 67);
        sim.run_until(Time::from_secs(120));
        assert_eq!(stats.borrow().total_sent(), 600);
    }

    #[test]
    fn masked_outage_drops_probes_from_the_summary() {
        let (mut sim, stats) = world(10e6, 67);
        sim.run_until(Time::from_secs(62));
        let mask = ProbeMask {
            outage: Some((Time::from_secs(10), Time::from_secs(20))),
            forced_loss: None,
        };
        let s = stats
            .borrow()
            .summarize_masked(Time::ZERO, Time::from_secs(60), &mask);
        assert_eq!(s.sent, 500, "100 probes fall in the outage");
        assert_eq!(s.received, 500);
        assert_eq!(s.loss_rate, 0.0, "unsent probes are not losses");
    }

    #[test]
    fn masked_forced_loss_counts_probes_as_lost() {
        let (mut sim, stats) = world(10e6, 67);
        sim.run_until(Time::from_secs(62));
        let mask = ProbeMask {
            outage: None,
            forced_loss: Some((Time::from_secs(0), Time::from_secs(6))),
        };
        let s = stats
            .borrow()
            .summarize_masked(Time::ZERO, Time::from_secs(60), &mask);
        assert_eq!(s.sent, 600);
        assert_eq!(s.received, 540, "60 echoes are discarded");
        assert!((s.loss_rate - 0.1).abs() < 1e-9);
    }

    #[test]
    fn empty_mask_matches_summarize() {
        let (mut sim, stats) = world(10e6, 67);
        sim.run_until(Time::from_secs(62));
        let stats = stats.borrow();
        let plain = stats.summarize(Time::ZERO, Time::from_secs(60));
        let masked = stats.summarize_masked(Time::ZERO, Time::from_secs(60), &ProbeMask::none());
        assert_eq!(plain, masked);
        assert!(ProbeMask::none().is_none());
    }

    /// The linear filter `summarize_masked` replaced, kept verbatim as
    /// the reference for the binary-searched window.
    fn summarize_by_filter(
        stats: &PingStats,
        from: Time,
        to: Time,
        mask: &ProbeMask,
    ) -> PingSummary {
        let window = stats
            .records
            .iter()
            .filter(|r| r.sent_at >= from && r.sent_at < to)
            .filter(|r| !within(r.sent_at, mask.outage));
        let mut sent = 0;
        let mut received = 0;
        let mut rtt_sum = 0.0;
        for r in window {
            sent += 1;
            if within(r.sent_at, mask.forced_loss) {
                continue;
            }
            if let Some(rtt) = r.rtt {
                received += 1;
                rtt_sum += rtt.as_secs_f64();
            }
        }
        PingSummary {
            sent,
            received,
            rtt: if received > 0 {
                rtt_sum / received as f64
            } else {
                0.0
            },
            loss_rate: if sent > 0 {
                (sent - received) as f64 / sent as f64
            } else {
                0.0
            },
        }
    }

    #[test]
    fn windowed_summary_is_bit_identical_to_the_linear_filter() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let window = |rng: &mut StdRng| {
            let a = Time::from_nanos(rng.random_range(0..12_000_000_000_u64));
            let b = Time::from_nanos(rng.random_range(0..12_000_000_000_u64));
            (a.min(b), a.max(b))
        };
        for _ in 0..200 {
            // Send times ascend, with repeats, as `on_timer` pushes them.
            let mut at = 0_u64;
            let records: Vec<ProbeRecord> = (0..rng.random_range(0..300_usize))
                .map(|_| {
                    at += rng.random_range(0..100_000_000_u64);
                    let rtt = rng
                        .random_bool(0.8)
                        .then(|| Time::from_nanos(rng.random_range(1..900_000_000_u64)));
                    ProbeRecord {
                        sent_at: Time::from_nanos(at),
                        rtt,
                    }
                })
                .collect();
            let stats = PingStats { records };
            for _ in 0..10 {
                let (from, to) = window(&mut rng);
                let mask = ProbeMask {
                    outage: rng.random_bool(0.5).then(|| window(&mut rng)),
                    forced_loss: rng.random_bool(0.5).then(|| window(&mut rng)),
                };
                let got = stats.summarize_masked(from, to, &mask);
                let want = summarize_by_filter(&stats, from, to, &mask);
                assert_eq!((got.sent, got.received), (want.sent, want.received));
                assert_eq!(got.rtt.to_bits(), want.rtt.to_bits());
                assert_eq!(got.loss_rate.to_bits(), want.loss_rate.to_bits());
                // A reversed window is empty, as the filter has it.
                assert_eq!(
                    stats.summarize_masked(to, from, &mask).sent,
                    summarize_by_filter(&stats, to, from, &mask).sent
                );
            }
        }
    }

    #[test]
    fn empty_window_summarizes_benignly() {
        let stats = PingStats::default();
        let s = stats.summarize(Time::ZERO, Time::from_secs(1));
        assert_eq!(s.sent, 0);
        assert_eq!(s.loss_rate, 0.0);
        assert_eq!(s.rtt, 0.0);
    }
}
