//! Piecewise-constant load modulation: the time-series pathologies of
//! §5.2, injected by construction.
//!
//! A [`RateSchedule`] multiplies a cross-traffic source's base rate by a
//! time-varying factor composed of:
//!
//! * a **base level** per segment — changing at *level-shift* instants
//!   (the paper's route/load changes that HB predictors must restart on);
//! * transient **bursts** — short intervals of extreme load (producing
//!   the *outlier* throughput measurements the ψ-heuristic discards).
//!
//! The schedule is immutable once built; generators sample it at each
//! packet emission, so the modulation resolution is the packet scale.

use crate::time::Time;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// One constant-level segment of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Segment {
    /// Segment start (segments are sorted; the first starts at 0).
    start: Time,
    /// Rate multiplier during the segment.
    level: f64,
}

/// A transient burst on top of the base level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Burst {
    start: Time,
    end: Time,
    /// Multiplier applied *instead of* the base level while active.
    level: f64,
}

/// A piecewise-constant rate-multiplier over simulated time.
///
/// # Examples
///
/// ```
/// use tputpred_netsim::{RateSchedule, Time};
/// let s = RateSchedule::constant(1.0)
///     .with_shift(Time::from_secs(100), 2.0)
///     .with_burst(Time::from_secs(50), Time::from_secs(52), 5.0);
/// assert_eq!(s.multiplier_at(Time::from_secs(10)), 1.0);
/// assert_eq!(s.multiplier_at(Time::from_secs(51)), 5.0);
/// assert_eq!(s.multiplier_at(Time::from_secs(200)), 2.0);
/// ```
/// Single-entry memo for [`RateSchedule::multiplier_at_cached`]: the
/// half-open nanosecond window `[from_ns, until_ns)` a previous lookup
/// resolved, and the constant multiplier across it. Starts empty
/// (`from_ns > until_ns`, so the first lookup always computes).
#[derive(Debug, Clone, Copy)]
pub struct ScheduleCursor {
    from_ns: u64,
    until_ns: u64,
    level: f64,
}

impl ScheduleCursor {
    /// The empty cursor (first lookup computes).
    pub const EMPTY: ScheduleCursor = ScheduleCursor {
        from_ns: 1,
        until_ns: 0,
        level: 0.0,
    };
}

#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RateSchedule {
    segments: Vec<Segment>,
    /// Sorted by start and pairwise disjoint: [`RateSchedule::with_burst`]
    /// carves each new burst's span out of whatever it overlaps
    /// (latest-added wins), so lookup can binary-search instead of
    /// scanning — schedules are sampled at every packet emission.
    bursts: Vec<Burst>,
}

impl RateSchedule {
    /// A schedule with a single constant level.
    ///
    /// # Panics
    ///
    /// Panics on a negative level.
    pub fn constant(level: f64) -> Self {
        assert!(level >= 0.0, "negative rate level");
        RateSchedule {
            segments: vec![Segment {
                start: Time::ZERO,
                level,
            }],
            bursts: Vec::new(),
        }
    }

    /// Adds a level shift: from `at` onward the base multiplier is
    /// `level`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not after the last shift, or `level` is negative.
    pub fn with_shift(mut self, at: Time, level: f64) -> Self {
        assert!(level >= 0.0, "negative rate level");
        // lint:allow(no-unwrap): builder invariant — the constructor seeds the base segment; runs at config time, not during measurement
        let last = self.segments.last().expect("schedule has a base segment");
        assert!(at > last.start, "shifts must be strictly increasing");
        self.segments.push(Segment { start: at, level });
        self
    }

    /// Adds a transient burst overriding the base level on `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics unless `start < end` and `level ≥ 0`.
    pub fn with_burst(mut self, start: Time, end: Time, level: f64) -> Self {
        assert!(start < end, "empty burst");
        assert!(level >= 0.0, "negative burst level");
        // Keep the interval set sorted and disjoint: trim or split any
        // existing burst the new span overlaps (so the newest burst wins
        // on the overlap, exactly the old last-match-scanning-backwards
        // semantics), then insert the new one in start order.
        let mut kept: Vec<Burst> = Vec::with_capacity(self.bursts.len() + 2);
        for b in self.bursts.drain(..) {
            if b.end <= start || b.start >= end {
                kept.push(b);
                continue;
            }
            if b.start < start {
                kept.push(Burst {
                    start: b.start,
                    end: start,
                    level: b.level,
                });
            }
            if b.end > end {
                kept.push(Burst {
                    start: end,
                    end: b.end,
                    level: b.level,
                });
            }
        }
        kept.push(Burst { start, end, level });
        kept.sort_by_key(|b| b.start);
        self.bursts = kept;
        self
    }

    /// The multiplier in effect at time `t`. Bursts take precedence over
    /// the base level; overlapping bursts resolve to the latest-added.
    pub fn multiplier_at(&self, t: Time) -> f64 {
        self.window_at(t).0
    }

    /// Like [`RateSchedule::multiplier_at`], but memoized through a
    /// caller-owned [`ScheduleCursor`]: a lookup inside the cursor's
    /// cached constant window returns immediately, skipping both binary
    /// searches. Pure memoization — every call returns exactly what
    /// `multiplier_at` would (generators query once per emitted packet,
    /// almost always inside the same window as the previous packet).
    // lint:hot-path
    pub fn multiplier_at_cached(&self, t: Time, cursor: &mut ScheduleCursor) -> f64 {
        let t_ns = t.as_nanos();
        if cursor.from_ns <= t_ns && t_ns < cursor.until_ns {
            return cursor.level;
        }
        let (level, from_ns, until_ns) = self.window_at(t);
        *cursor = ScheduleCursor {
            from_ns,
            until_ns,
            level,
        };
        level
    }

    /// The multiplier at `t` plus the maximal half-open window
    /// `[from, until)` of nanosecond instants around `t` over which it
    /// is constant (`u64::MAX` when unbounded above).
    fn window_at(&self, t: Time) -> (f64, u64, u64) {
        // Bursts are sorted and disjoint (`with_burst` carves overlaps),
        // so the only candidate is the last interval starting ≤ t.
        let bidx = self.bursts.partition_point(|b| b.start <= t);
        if bidx > 0 {
            let b = self.bursts[bidx - 1];
            if t < b.end {
                // Disjointness means no other burst starts before b.end,
                // so the whole burst span is one constant window.
                return (b.level, b.start.as_nanos(), b.end.as_nanos());
            }
        }
        // Segments are sorted by construction; find the last whose start
        // is ≤ t. The base level holds from the later of the segment
        // start and the end of the burst just passed, until the next
        // segment shift or the next burst begins.
        let sidx = self
            .segments
            .partition_point(|s| s.start <= t)
            .saturating_sub(1);
        let seg = self.segments[sidx];
        let mut from_ns = seg.start.as_nanos();
        if bidx > 0 {
            from_ns = from_ns.max(self.bursts[bidx - 1].end.as_nanos());
        }
        let mut until_ns = self
            .segments
            .get(sidx + 1)
            .map_or(u64::MAX, |s| s.start.as_nanos());
        if let Some(next) = self.bursts.get(bidx) {
            until_ns = until_ns.min(next.start.as_nanos());
        }
        (seg.level, from_ns, until_ns)
    }

    /// Number of level shifts (segments beyond the base one).
    pub fn shift_count(&self) -> usize {
        self.segments.len().saturating_sub(1)
    }

    /// Number of disjoint burst intervals. Overlapping `with_burst`
    /// calls may split earlier bursts, so this can exceed the number of
    /// calls.
    pub fn burst_count(&self) -> usize {
        self.bursts.len()
    }

    /// Generates a random schedule for a trace of duration `horizon`:
    ///
    /// * level shifts arrive as a Poisson process of rate
    ///   `shifts_per_trace / horizon`, each drawing a new level uniformly
    ///   in `level_range`;
    /// * bursts likewise with `bursts_per_trace`, lasting `burst_len`
    ///   each, at a level uniform in `burst_range`.
    ///
    /// Deterministic given the RNG state.
    #[allow(clippy::too_many_arguments)]
    pub fn random<R: Rng>(
        rng: &mut R,
        horizon: Time,
        shifts_per_trace: f64,
        level_range: (f64, f64),
        bursts_per_trace: f64,
        burst_len: Time,
        burst_range: (f64, f64),
    ) -> Self {
        let base = rng.random_range(level_range.0..=level_range.1);
        let mut schedule = RateSchedule::constant(base);
        if shifts_per_trace > 0.0 {
            let mean_gap = horizon.as_secs_f64() / shifts_per_trace;
            let mut t = crate::random::exponential(rng, mean_gap);
            while t < horizon.as_secs_f64() {
                let level = rng.random_range(level_range.0..=level_range.1);
                schedule = schedule.with_shift(Time::from_secs_f64(t), level);
                t += crate::random::exponential(rng, mean_gap);
            }
        }
        if bursts_per_trace > 0.0 {
            let mean_gap = horizon.as_secs_f64() / bursts_per_trace;
            let mut t = crate::random::exponential(rng, mean_gap);
            while t < horizon.as_secs_f64() {
                let level = rng.random_range(burst_range.0..=burst_range.1);
                let start = Time::from_secs_f64(t);
                schedule = schedule.with_burst(start, start + burst_len, level);
                t += burst_len.as_secs_f64() + crate::random::exponential(rng, mean_gap);
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_schedule_is_flat() {
        let s = RateSchedule::constant(0.5);
        for secs in [0, 1, 100, 10_000] {
            assert_eq!(s.multiplier_at(Time::from_secs(secs)), 0.5);
        }
        assert_eq!(s.shift_count(), 0);
    }

    #[test]
    fn shifts_change_the_base_level() {
        let s = RateSchedule::constant(1.0)
            .with_shift(Time::from_secs(10), 2.0)
            .with_shift(Time::from_secs(20), 0.25);
        assert_eq!(s.multiplier_at(Time::from_secs(9)), 1.0);
        assert_eq!(s.multiplier_at(Time::from_secs(10)), 2.0);
        assert_eq!(s.multiplier_at(Time::from_secs(19)), 2.0);
        assert_eq!(s.multiplier_at(Time::from_secs(25)), 0.25);
        assert_eq!(s.shift_count(), 2);
    }

    #[test]
    fn bursts_override_and_expire() {
        let s = RateSchedule::constant(1.0).with_burst(Time::from_secs(5), Time::from_secs(6), 9.0);
        assert_eq!(s.multiplier_at(Time::from_millis(5500)), 9.0);
        assert_eq!(s.multiplier_at(Time::from_secs(6)), 1.0, "end-exclusive");
        assert_eq!(s.multiplier_at(Time::from_secs(4)), 1.0);
    }

    #[test]
    fn burst_inside_shifted_region_still_wins() {
        let s = RateSchedule::constant(1.0)
            .with_shift(Time::from_secs(10), 3.0)
            .with_burst(Time::from_secs(15), Time::from_secs(16), 0.0);
        assert_eq!(s.multiplier_at(Time::from_millis(15_500)), 0.0);
        assert_eq!(s.multiplier_at(Time::from_secs(17)), 3.0);
    }

    #[test]
    fn overlapping_bursts_resolve_to_latest_added() {
        // New burst fully inside an old one: splits it.
        let s = RateSchedule::constant(1.0)
            .with_burst(Time::from_secs(10), Time::from_secs(20), 2.0)
            .with_burst(Time::from_secs(13), Time::from_secs(15), 7.0);
        assert_eq!(s.multiplier_at(Time::from_secs(11)), 2.0);
        assert_eq!(s.multiplier_at(Time::from_secs(14)), 7.0);
        assert_eq!(s.multiplier_at(Time::from_secs(17)), 2.0);
        assert_eq!(s.burst_count(), 3, "the old burst split around the new");

        // New burst covering an old one entirely: replaces it.
        let s = RateSchedule::constant(1.0)
            .with_burst(Time::from_secs(13), Time::from_secs(15), 7.0)
            .with_burst(Time::from_secs(10), Time::from_secs(20), 2.0);
        for secs in 10..20 {
            assert_eq!(s.multiplier_at(Time::from_secs(secs)), 2.0);
        }
        assert_eq!(s.burst_count(), 1);

        // Partial overlap on each side: old bursts are trimmed.
        let s = RateSchedule::constant(1.0)
            .with_burst(Time::from_secs(0), Time::from_secs(10), 3.0)
            .with_burst(Time::from_secs(20), Time::from_secs(30), 4.0)
            .with_burst(Time::from_secs(5), Time::from_secs(25), 9.0);
        assert_eq!(s.multiplier_at(Time::from_secs(4)), 3.0);
        assert_eq!(s.multiplier_at(Time::from_secs(5)), 9.0);
        assert_eq!(s.multiplier_at(Time::from_secs(24)), 9.0);
        assert_eq!(s.multiplier_at(Time::from_secs(25)), 4.0);
        assert_eq!(s.multiplier_at(Time::from_secs(30)), 1.0);
    }

    #[test]
    fn binary_search_lookup_matches_brute_force_reference() {
        // Pin the sorted/disjoint representation against a reference
        // that replays the with_burst call sequence and scans it
        // backwards (the latest-added-wins contract, stated directly).
        let calls: [(u64, u64, f64); 6] = [
            (100, 200, 2.0),
            (150, 160, 5.0),
            (90, 120, 3.0),
            (500, 700, 0.5),
            (650, 800, 6.0),
            (10, 900, 1.5), // swallows everything before it
        ];
        let mut s = RateSchedule::constant(1.0).with_shift(Time::from_secs(300), 2.5);
        for &(a, b, lvl) in &calls {
            s = s.with_burst(Time::from_secs(a), Time::from_secs(b), lvl);
        }
        let reference = |t: Time| -> f64 {
            for &(a, b, lvl) in calls.iter().rev() {
                if t >= Time::from_secs(a) && t < Time::from_secs(b) {
                    return lvl;
                }
            }
            if t >= Time::from_secs(300) {
                2.5
            } else {
                1.0
            }
        };
        for ms in (0..1_000_000).step_by(997) {
            let t = Time::from_millis(ms);
            assert_eq!(s.multiplier_at(t), reference(t), "at {ms} ms");
        }
    }

    #[test]
    fn cached_lookup_matches_uncached_in_any_query_order() {
        // The cursor memo must be invisible: same answers as
        // multiplier_at at every instant, for monotonic sweeps,
        // backward jumps, and repeated boundary queries, on schedules
        // with carved bursts and shifts (and on a constant one).
        let schedules = [
            RateSchedule::constant(1.0),
            RateSchedule::constant(1.0)
                .with_shift(Time::from_secs(300), 2.5)
                .with_burst(Time::from_secs(100), Time::from_secs(200), 2.0)
                .with_burst(Time::from_secs(150), Time::from_secs(160), 5.0)
                .with_burst(Time::from_secs(90), Time::from_secs(120), 3.0)
                .with_burst(Time::from_secs(500), Time::from_secs(700), 0.5),
        ];
        for s in &schedules {
            let mut cursor = ScheduleCursor::EMPTY;
            // Forward sweep across every boundary.
            for ms in (0..800_000).step_by(491) {
                let t = Time::from_millis(ms);
                assert_eq!(s.multiplier_at_cached(t, &mut cursor), s.multiplier_at(t));
            }
            // Backward and zig-zag queries through the same cursor.
            for ms in [700_000u64, 95_000, 155_000, 155_001, 95_000, 0, 799_999] {
                let t = Time::from_millis(ms);
                assert_eq!(s.multiplier_at_cached(t, &mut cursor), s.multiplier_at(t));
            }
            // Exact boundary instants (start-inclusive, end-exclusive).
            let ns = Time::from_nanos(1);
            for secs in [90u64, 100, 120, 150, 160, 200, 300, 500, 700] {
                for t in [
                    Time::from_secs(secs) - ns,
                    Time::from_secs(secs),
                    Time::from_secs(secs) + ns,
                ] {
                    assert_eq!(s.multiplier_at_cached(t, &mut cursor), s.multiplier_at(t));
                }
            }
        }
    }

    #[test]
    fn burst_boundaries_are_start_inclusive_end_exclusive() {
        // The exact-boundary semantics of `partition_point(|b| b.start
        // <= t)`: at t == start the burst is live (partition_point
        // includes the equal element, so idx-1 is this burst); at
        // t == end the `t < b.end` guard falls through to the base
        // level. One nanosecond to either side flips each case.
        let s = RateSchedule::constant(1.0).with_burst(Time::from_secs(5), Time::from_secs(6), 9.0);
        let ns = Time::from_nanos(1);
        assert_eq!(s.multiplier_at(Time::from_secs(5) - ns), 1.0);
        assert_eq!(s.multiplier_at(Time::from_secs(5)), 9.0, "start-inclusive");
        assert_eq!(s.multiplier_at(Time::from_secs(6) - ns), 9.0);
        assert_eq!(s.multiplier_at(Time::from_secs(6)), 1.0, "end-exclusive");
        assert_eq!(s.multiplier_at(Time::from_secs(6) + ns), 1.0);
    }

    #[test]
    fn burst_at_time_zero_is_live_immediately() {
        // t == 0 with a burst starting at 0: idx is 1, not 0, so the
        // `idx > 0` guard must not mask the first burst.
        let s = RateSchedule::constant(1.0).with_burst(Time::ZERO, Time::from_secs(1), 4.0);
        assert_eq!(s.multiplier_at(Time::ZERO), 4.0);
        assert_eq!(s.multiplier_at(Time::from_secs(1)), 1.0);
    }

    #[test]
    fn carved_seams_hand_off_to_the_latest_added_burst() {
        // An old burst carved by a newer overlapping one leaves seams at
        // the newer burst's start and end. Exactly at each seam the
        // newer burst's half-open interval must win — its [start, end)
        // owns both boundary instants it touches.
        let s = RateSchedule::constant(1.0)
            .with_burst(Time::from_secs(10), Time::from_secs(20), 2.0)
            .with_burst(Time::from_secs(13), Time::from_secs(15), 7.0);
        let ns = Time::from_nanos(1);
        assert_eq!(s.multiplier_at(Time::from_secs(13) - ns), 2.0);
        assert_eq!(s.multiplier_at(Time::from_secs(13)), 7.0, "seam start");
        assert_eq!(s.multiplier_at(Time::from_secs(15) - ns), 7.0);
        assert_eq!(
            s.multiplier_at(Time::from_secs(15)),
            2.0,
            "seam end returns to the carved remainder, not the base"
        );
        assert_eq!(s.multiplier_at(Time::from_secs(20)), 1.0);
    }

    #[test]
    fn adjacent_bursts_share_a_boundary_without_a_gap() {
        // Two bursts meeting exactly: the shared instant belongs to the
        // later interval (end-exclusive/start-inclusive), with no
        // one-sample flash of the base level in between.
        let s = RateSchedule::constant(1.0)
            .with_burst(Time::from_secs(2), Time::from_secs(4), 3.0)
            .with_burst(Time::from_secs(4), Time::from_secs(6), 8.0);
        let ns = Time::from_nanos(1);
        assert_eq!(s.multiplier_at(Time::from_secs(4) - ns), 3.0);
        assert_eq!(s.multiplier_at(Time::from_secs(4)), 8.0);
        assert_eq!(s.multiplier_at(Time::from_secs(4) + ns), 8.0);
        assert_eq!(s.burst_count(), 2, "touching bursts do not merge or carve");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_shift_rejected() {
        let _ = RateSchedule::constant(1.0)
            .with_shift(Time::from_secs(10), 2.0)
            .with_shift(Time::from_secs(5), 3.0);
    }

    #[test]
    fn random_schedule_is_reproducible_and_in_range() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(99);
            RateSchedule::random(
                &mut rng,
                Time::from_secs(3600),
                3.0,
                (0.2, 0.9),
                5.0,
                Time::from_secs(120),
                (2.0, 4.0),
            )
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same seed, same schedule");
        for m in (0..3600)
            .step_by(13)
            .map(|s| a.multiplier_at(Time::from_secs(s)))
        {
            assert!((0.2..=4.0).contains(&m), "multiplier {m} out of range");
        }
    }

    #[test]
    fn random_schedule_respects_zero_rates() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = RateSchedule::random(
            &mut rng,
            Time::from_secs(100),
            0.0,
            (1.0, 1.0),
            0.0,
            Time::from_secs(1),
            (1.0, 1.0),
        );
        assert_eq!(s.shift_count(), 0);
        assert_eq!(s.burst_count(), 0);
    }
}
