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
///
/// Records are kept until [`PingStats::forget_before`] drops them, so a
/// caller that summarizes each window once can hold its memory to one
/// window: summarize, then forget. The totals ([`PingStats::total_sent`],
/// [`PingStats::replies_lost`]) stay exact across forgetting.
#[derive(Debug, Default)]
pub struct PingStats {
    /// Retained records in send order; `records[i]` is probe `base + i`.
    records: Vec<ProbeRecord>,
    /// Sequence number of the oldest retained record: every probe
    /// before it has been forgotten.
    base: u64,
    /// Forgotten probes whose echo had not come back when they were
    /// forgotten, less the late echoes that have come back since. Each
    /// probe is echoed at most once.
    forgotten_unanswered: usize,
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

    /// Total probes recorded, forgotten ones included.
    pub fn total_sent(&self) -> usize {
        self.base as usize + self.records.len()
    }

    /// Probes whose echo never came back (replies lost, in-flight
    /// replies included until they land), forgotten ones included.
    /// Telemetry reads this once a trace is over; it is not a per-window
    /// loss estimate — use [`PingStats::summarize`] for that.
    pub fn replies_lost(&self) -> usize {
        self.forgotten_unanswered + self.records.iter().filter(|r| r.rtt.is_none()).count()
    }

    /// Drops the records of probes sent before `t`, keeping the totals
    /// exact: an echo that lands later for a dropped probe still counts
    /// as answered. Summaries of windows that reach before `t` no
    /// longer see the dropped probes, so summarize a window first and
    /// forget it after.
    pub fn forget_before(&mut self, t: Time) {
        let n = self.records.partition_point(|r| r.sent_at < t);
        self.forgotten_unanswered += self.records[..n].iter().filter(|r| r.rtt.is_none()).count();
        self.records.drain(..n);
        self.base += n as u64;
    }

    /// Records a probe sent at `at`; returns its sequence number.
    fn record_send(&mut self, at: Time) -> u64 {
        self.records.push(ProbeRecord {
            sent_at: at,
            rtt: None,
        });
        self.total_sent() as u64 - 1
    }

    /// Records the echo of probe `seq`, sent at `sent_at`, after a round
    /// trip of `rtt`.
    fn record_echo(&mut self, seq: u64, sent_at: Time, rtt: Time) {
        let Some(i) = seq.checked_sub(self.base) else {
            // A late echo of a forgotten probe.
            self.forgotten_unanswered = self.forgotten_unanswered.saturating_sub(1);
            return;
        };
        if let Some(rec) = self.records.get_mut(i as usize) {
            assert_eq!(rec.sent_at, sent_at, "echo timestamp mismatch");
            rec.rtt = Some(rtt);
        }
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
                let rtt = ctx.now.saturating_sub(meta.sent_at);
                self.stats
                    .borrow_mut()
                    .record_echo(meta.seq, meta.sent_at, rtt);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if ctx.now >= self.stop {
            return;
        }
        let meta = ProbeMeta {
            seq: self.stats.borrow_mut().record_send(ctx.now),
            stream: 0,
            sent_at: ctx.now,
            is_reply: false,
        };
        ctx.send(self.route, self.dst, self.probe_size, Payload::Probe(meta));
        ctx.set_timer_after(0, self.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
            let stats = PingStats {
                records,
                ..PingStats::default()
            };
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

    /// One probe of a scripted run: the gap after the previous send,
    /// and the round trip, or `None` when the echo is lost.
    type ScriptedProbe = (Time, Option<Time>);

    /// `n` steps of the script's 10 ms grid: sends, echoes and epoch
    /// boundaries all fall on it, so probes are often sent exactly at a
    /// boundary.
    fn ticks(n: u64) -> Time {
        Time::from_millis(10 * n)
    }

    fn script() -> impl Strategy<Value = Vec<ScriptedProbe>> {
        // Round trips reach 2.5 s, past several epoch boundaries, so
        // many echoes land after their record is forgotten.
        let probe = (0..20_u64, 1..300_u64).prop_map(|(gap_ticks, rtt_ticks)| {
            let rtt = (rtt_ticks < 250).then(|| ticks(rtt_ticks));
            (ticks(gap_ticks), rtt)
        });
        prop::collection::vec(probe, 0..400)
    }

    /// A window `[a, b)` of the span `[from, to)`, from two fractions.
    fn window_of(from: Time, to: Time, a: f64, b: f64) -> (Time, Time) {
        let at = |f: f64| from + Time::from_nanos(((to - from).as_nanos() as f64 * f) as u64);
        (at(a.min(b)), at(a.max(b)))
    }

    proptest! {
        #[test]
        fn forgetting_leaves_every_later_summary_and_total_unchanged(
            probes in script(),
            epoch_ticks in 30..500_u64,
            fracs in prop::collection::vec(
                (0.0..1.0_f64, 0.0..1.0_f64, 0.0..1.0_f64, 0.0..1.0_f64),
                1..4,
            ),
        ) {
            // Every send and echo, in time order; a send sorts before
            // an echo at the same instant.
            let mut events = Vec::new();
            let mut at = Time::ZERO;
            for (seq, &(gap, rtt)) in probes.iter().enumerate() {
                at += gap;
                events.push((at, false, seq as u64, at));
                if let Some(rtt) = rtt {
                    events.push((at + rtt, true, seq as u64, at));
                }
            }
            events.sort_by_key(|&(t, echo, seq, _)| (t, echo, seq));
            let mut forgetful = PingStats::default();
            let mut twin = PingStats::default();
            let mut next = events.iter().peekable();
            let epoch = ticks(epoch_ticks);
            let mut start = Time::ZERO;
            while next.peek().is_some() {
                // Run through `end` inclusive, as `Simulator::run_until`
                // does: a probe sent at `end` is recorded before the
                // epoch's records are forgotten, and must survive it.
                let end = start + epoch;
                while let Some(&&(t, echo, seq, sent_at)) = next.peek() {
                    if t > end {
                        break;
                    }
                    next.next();
                    for stats in [&mut forgetful, &mut twin] {
                        if echo {
                            stats.record_echo(seq, sent_at, t - sent_at);
                        } else {
                            prop_assert_eq!(stats.record_send(t), seq);
                        }
                    }
                }
                // The whole epoch, then the drawn windows.
                let whole = (0.0, 1.0, 0.0, 0.5);
                for &(a, b, c, d) in std::iter::once(&whole).chain(&fracs) {
                    let (from, to) = window_of(start, end, a, b);
                    let masks = [
                        ProbeMask::none(),
                        ProbeMask {
                            outage: Some(window_of(start, end, c, d)),
                            forced_loss: Some(window_of(start, end, a, d)),
                        },
                    ];
                    for mask in &masks {
                        let got = forgetful.summarize_masked(from, to, mask);
                        let want = twin.summarize_masked(from, to, mask);
                        prop_assert_eq!(got.sent, want.sent);
                        prop_assert_eq!(got.received, want.received);
                        prop_assert_eq!(got.rtt.to_bits(), want.rtt.to_bits());
                        prop_assert_eq!(
                            got.loss_rate.to_bits(),
                            want.loss_rate.to_bits()
                        );
                    }
                }
                prop_assert_eq!(forgetful.total_sent(), twin.total_sent());
                prop_assert_eq!(forgetful.replies_lost(), twin.replies_lost());
                forgetful.forget_before(end);
                prop_assert!(forgetful.records.iter().all(|r| r.sent_at >= end));
                prop_assert_eq!(forgetful.total_sent(), twin.total_sent());
                prop_assert_eq!(forgetful.replies_lost(), twin.replies_lost());
                start = end;
            }
            prop_assert_eq!(forgetful.total_sent(), probes.len());
        }
    }
}
