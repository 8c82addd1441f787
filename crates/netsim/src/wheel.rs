//! The near-future timer wheel: bucketed slots plus an overflow heap
//! (DESIGN.md §14).
//!
//! [`TimerWheel`] is the engine's schedule for timer events. Pending
//! timers within the wheel horizon (`SLOTS * SLOT_NS` ≈ 1.07 s of
//! simulated time) live in circular per-slot buckets; timers beyond the
//! horizon spill to a small overflow [`BinaryHeap`] and migrate into
//! slots as the horizon advances past them. Dispatch order is **exactly**
//! ascending `(at, seq)` — bit-identical to the global binary heap this
//! structure replaced: a slot is extracted into a sorted batch when it
//! comes due, and entries scheduled into the already-extracted window
//! are merge-inserted at their `(at, seq)` position, so same-timestamp
//! FIFO ties resolve by scheduling order everywhere.
//!
//! Why a wheel: most engine timers (source inter-packet gaps, ping
//! intervals, RTO re-arms) land well inside the horizon, so `push` is an
//! O(1) bucket append and `pop` is an O(1) batch read; the heap's
//! per-event `O(log n)` sift — and its 64-byte element moves — vanish
//! from the hot path. The structure is deterministic by construction:
//! no wall clock, no RNG, no hash iteration; its state is a pure
//! function of the push/pop sequence.
//!
//! # Contract
//!
//! * `seq` values are unique and increase with scheduling order (the
//!   engine's global event counter).
//! * Entries should satisfy `at >= now` (the engine clamps past-due
//!   timers — see `Simulator::schedule_timer`); a violating entry is
//!   not lost or reordered against pending entries — it is placed in
//!   the current slot and dispatched as early as possible, still in
//!   `(at, seq)` order among what remains.
//! * `now` passed to [`TimerWheel::peek_key`]/[`TimerWheel::pop`] is
//!   monotonic and never exceeds the `at` of any pending entry (true
//!   when the caller always dispatches the globally earliest event).

use crate::engine::EndpointId;
use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Width of one wheel slot: 2^18 ns ≈ 262 µs.
pub const SLOT_NS: u64 = 1 << 18;

/// Number of slots: 2^12, for a wheel horizon of `SLOTS * SLOT_NS`
/// = 2^30 ns ≈ 1.07 s beyond the wheel's current position.
pub const SLOTS: usize = 1 << 12;

/// Occupancy bitmap words (64 slots per word).
const WORDS: usize = SLOTS / 64;

/// A pending timer: fires [`crate::Endpoint::on_timer`] with `token` on
/// `endpoint` at time `at`; `seq` is the engine-global scheduling
/// sequence number that breaks same-timestamp ties FIFO.
#[derive(Debug, Clone, Copy)]
pub struct TimerEntry {
    /// Absolute fire time.
    pub at: Time,
    /// Global scheduling sequence number (unique, increasing).
    pub seq: u64,
    /// The endpoint whose `on_timer` fires.
    pub endpoint: EndpointId,
    /// Opaque token handed back to the endpoint.
    pub token: u64,
}

impl TimerEntry {
    /// The total dispatch-order key.
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Deterministic wheel tallies: how many timers took the fast bucketed
/// path, how many spilled past the horizon, and how many spills were
/// later migrated back in. Plain integers maintained inline — a pure
/// function of the push/pop sequence, merged into
/// `tputpred_netsim::EngineCounters` by the engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WheelCounters {
    /// Entries placed into near-future slots or the live batch
    /// (migrations from the overflow heap count again here).
    pub wheel_scheduled: u64,
    /// Entries that spilled to the overflow heap (beyond the horizon at
    /// scheduling time).
    pub overflow_scheduled: u64,
    /// Overflow entries migrated into slots as the horizon advanced.
    pub overflow_migrated: u64,
}

/// The timer wheel. See the module docs for the design and contract.
#[derive(Debug)]
pub struct TimerWheel {
    /// Circular slot buckets, unsorted; index = absolute slot % SLOTS.
    slots: Vec<Vec<TimerEntry>>,
    /// One bit per slot: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// The extracted current-slot batch, sorted ascending by `(at, seq)`
    /// and consumed front-to-back via `batch_pos`.
    batch: Vec<TimerEntry>,
    batch_pos: usize,
    /// Exclusive end of the extracted window: pushes with `at` before
    /// this merge into `batch`. Zero until the first extraction.
    batch_end_ns: u64,
    /// Absolute slot index of the wheel's current position; only grows.
    cur_slot: u64,
    /// Far-horizon spill, ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<TimerEntry>>,
    /// Pending entries across slots, batch, and overflow.
    len: usize,
    counters: WheelCounters,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl TimerWheel {
    /// An empty wheel positioned at time zero.
    pub fn new() -> Self {
        TimerWheel {
            slots: vec![Vec::new(); SLOTS],
            occupied: [0; WORDS],
            batch: Vec::new(),
            batch_pos: 0,
            batch_end_ns: 0,
            cur_slot: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            counters: WheelCounters::default(),
        }
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries left in the extracted batch: while more than one is
    /// left, a pop and the peek after it do not advance the wheel (and
    /// so do not read `now`).
    pub(crate) fn batched(&self) -> usize {
        self.batch.len() - self.batch_pos
    }

    /// Deterministic scheduling tallies.
    pub fn counters(&self) -> WheelCounters {
        self.counters
    }

    /// Schedules `entry`; `now` is the caller's current simulated time
    /// (see the module contract).
    // lint:hot-path
    pub fn push(&mut self, entry: TimerEntry, now: Time) {
        self.len += 1;
        if entry.at.as_nanos() < self.batch_end_ns {
            // The entry lands inside the already-extracted window: merge
            // it into the live batch at its (at, seq) position so the
            // FIFO tie-break against still-pending entries is exact.
            let i = self.batch_pos
                + self.batch[self.batch_pos..].partition_point(|e| e.key() < entry.key());
            // lint:allow(hot-path-alloc): batch retains capacity; insertion is bounded by one slot's occupancy
            self.batch.insert(i, entry);
            self.counters.wheel_scheduled += 1;
            return;
        }
        self.cur_slot = self.cur_slot.max(now.as_nanos() / SLOT_NS);
        self.insert_slot(entry);
    }

    /// Places `entry` into its slot bucket, or spills it to the
    /// overflow heap when it lies beyond the wheel horizon.
    // lint:hot-path
    fn insert_slot(&mut self, entry: TimerEntry) {
        // A (clamped) past-due entry goes into the current slot; the
        // batch sort still dispatches it in exact (at, seq) order.
        let abs = (entry.at.as_nanos() / SLOT_NS).max(self.cur_slot);
        if abs >= self.cur_slot + SLOTS as u64 {
            self.counters.overflow_scheduled += 1;
            // lint:allow(hot-path-alloc): rare far-horizon spill; the heap retains capacity across pops
            self.overflow.push(Reverse(entry));
            return;
        }
        self.counters.wheel_scheduled += 1;
        let idx = (abs % SLOTS as u64) as usize;
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
        // lint:allow(hot-path-alloc): slot buckets retain capacity; the wheel wraps many times per run, so each grows only to its slot's high-water mark
        self.slots[idx].push(entry);
    }

    /// The `(at, seq)` key of the earliest pending entry, extracting the
    /// next due slot if the current batch is exhausted.
    // lint:hot-path
    pub fn peek_key(&mut self, now: Time) -> Option<(Time, u64)> {
        if self.batch_pos == self.batch.len() && !self.advance(now) {
            return None;
        }
        let e = &self.batch[self.batch_pos];
        Some((e.at, e.seq))
    }

    /// Removes and returns the earliest pending entry.
    // lint:hot-path
    pub fn pop(&mut self, now: Time) -> Option<TimerEntry> {
        self.peek_key(now)?;
        self.pop_head()
    }

    /// Removes the entry a preceding [`Self::peek_key`] resolved,
    /// skipping the advance check — the fast path for a dispatcher that
    /// has already peeked this event. Returns `None` if the live batch
    /// is exhausted (no peek since the last pop).
    // lint:hot-path
    pub fn pop_head(&mut self) -> Option<TimerEntry> {
        let e = *self.batch.get(self.batch_pos)?;
        self.batch_pos += 1;
        self.len -= 1;
        Some(e)
    }

    /// Refills the batch from the next occupied slot. Returns `false`
    /// when nothing is pending anywhere.
    fn advance(&mut self, now: Time) -> bool {
        debug_assert!(self.batch_pos == self.batch.len(), "batch not consumed");
        if self.len == 0 {
            return false;
        }
        self.cur_slot = self.cur_slot.max(now.as_nanos() / SLOT_NS);
        loop {
            self.migrate_overflow();
            if let Some(abs) = self.next_occupied() {
                self.extract(abs);
                return true;
            }
            // All slots empty: everything pending sits past the horizon.
            // Jump the wheel to the overflow minimum and pull it in.
            match self.overflow.peek() {
                Some(Reverse(e)) => self.cur_slot = e.at.as_nanos() / SLOT_NS,
                None => return false,
            }
        }
    }

    /// Moves overflow entries that now fall within the horizon into
    /// their slots.
    fn migrate_overflow(&mut self) {
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.at.as_nanos() / SLOT_NS >= self.cur_slot + SLOTS as u64 {
                return;
            }
            let Some(Reverse(e)) = self.overflow.pop() else {
                return;
            };
            self.counters.overflow_migrated += 1;
            self.insert_slot(e);
        }
    }

    /// The first occupied absolute slot in `[cur_slot, cur_slot+SLOTS)`,
    /// found by scanning the occupancy bitmap.
    fn next_occupied(&self) -> Option<u64> {
        let start = (self.cur_slot % SLOTS as u64) as usize;
        let mut word = start / 64;
        let mut bit = start % 64;
        let mut scanned = 0usize;
        while scanned < SLOTS {
            let w = self.occupied[word] >> bit;
            if w != 0 {
                let dist = scanned + w.trailing_zeros() as usize;
                return Some(self.cur_slot + dist as u64);
            }
            scanned += 64 - bit;
            bit = 0;
            word = (word + 1) % WORDS;
        }
        None
    }

    /// Extracts slot `abs` into the sorted batch and advances the wheel
    /// position to it. The entries are moved out by `append` so every
    /// bucket keeps its own buffer: as the wheel wraps, capacities
    /// converge to each slot's high-water mark and then stop growing,
    /// instead of drifting as buffers would if batch and slot storage
    /// were swapped.
    fn extract(&mut self, abs: u64) {
        let idx = (abs % SLOTS as u64) as usize;
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
        self.batch.clear();
        self.batch_pos = 0;
        self.batch.append(&mut self.slots[idx]);
        self.batch.sort_unstable_by_key(TimerEntry::key);
        // Saturating: a slot near u64::MAX ns has no representable end,
        // so later pushes simply take the slot path again.
        self.batch_end_ns = (abs + 1).saturating_mul(SLOT_NS);
        self.cur_slot = abs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: Time, seq: u64) -> TimerEntry {
        TimerEntry {
            at,
            seq,
            endpoint: EndpointId(0),
            token: seq,
        }
    }

    /// Drains the wheel fully, tracking `now` as the last popped time.
    fn drain(w: &mut TimerWheel) -> Vec<(u64, u64)> {
        let mut now = Time::ZERO;
        let mut out = Vec::new();
        while let Some(e) = w.pop(now) {
            now = now.max(e.at);
            out.push((e.at.as_nanos(), e.seq));
        }
        out
    }

    #[test]
    fn pops_in_at_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(entry(Time::from_micros(500), 2), Time::ZERO);
        w.push(entry(Time::from_micros(100), 3), Time::ZERO);
        w.push(entry(Time::from_micros(500), 1), Time::ZERO);
        assert_eq!(w.len(), 3);
        assert_eq!(
            drain(&mut w),
            vec![(100_000, 3), (500_000, 1), (500_000, 2)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn same_slot_ties_resolve_fifo() {
        let mut w = TimerWheel::new();
        let t = Time::from_nanos(SLOT_NS / 2);
        for seq in 0..10 {
            w.push(entry(t, seq), Time::ZERO);
        }
        let popped = drain(&mut w);
        assert_eq!(popped.len(), 10);
        assert!(popped.windows(2).all(|p| p[0].1 < p[1].1), "{popped:?}");
    }

    #[test]
    fn beyond_horizon_entries_spill_and_migrate_back() {
        let mut w = TimerWheel::new();
        let horizon = SLOT_NS * SLOTS as u64;
        // One inside, one exactly at the horizon edge, one far beyond.
        w.push(entry(Time::from_nanos(horizon - 1), 0), Time::ZERO);
        w.push(entry(Time::from_nanos(horizon), 1), Time::ZERO);
        w.push(entry(Time::from_nanos(3 * horizon), 2), Time::ZERO);
        let c = w.counters();
        assert_eq!(c.wheel_scheduled, 1);
        assert_eq!(c.overflow_scheduled, 2);
        assert_eq!(
            drain(&mut w),
            vec![(horizon - 1, 0), (horizon, 1), (3 * horizon, 2)]
        );
        assert_eq!(w.counters().overflow_migrated, 2);
    }

    #[test]
    fn push_into_extracted_window_keeps_exact_order() {
        let mut w = TimerWheel::new();
        let t = Time::from_nanos(100);
        w.push(entry(t, 0), Time::ZERO);
        w.push(entry(Time::from_nanos(200), 1), Time::ZERO);
        // Popping seq 0 extracts the slot containing both entries.
        assert_eq!(w.pop(Time::ZERO).map(|e| e.seq), Some(0));
        // A later push at the same 200 ns timestamp must dispatch after
        // seq 1 (FIFO), and one at 150 ns must dispatch before it.
        w.push(entry(Time::from_nanos(200), 2), t);
        w.push(entry(Time::from_nanos(150), 3), t);
        assert_eq!(drain(&mut w), vec![(150, 3), (200, 1), (200, 2)]);
    }

    #[test]
    fn past_due_entry_dispatches_immediately_without_reordering() {
        let mut w = TimerWheel::new();
        let now = Time::from_millis(10);
        w.push(entry(Time::from_millis(12), 0), now);
        // Contract violation (at < now): still dispatched, first.
        w.push(entry(Time::from_millis(3), 1), now);
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop(now).map(|e| e.seq)).collect();
        assert_eq!(popped, vec![1, 0]);
    }

    #[test]
    fn interleaved_push_pop_across_quiet_gaps() {
        // Exercise the empty-wheel jump: pop, long quiet gap, push far
        // ahead relative to the new now, pop again.
        let mut w = TimerWheel::new();
        w.push(entry(Time::from_secs(1), 0), Time::ZERO);
        assert_eq!(w.pop(Time::ZERO).map(|e| e.seq), Some(0));
        let now = Time::from_secs(1);
        w.push(entry(Time::from_secs(600), 1), now);
        assert_eq!(w.peek_key(now), Some((Time::from_secs(600), 1)));
        assert_eq!(w.pop(now).map(|e| e.seq), Some(1));
        assert!(w.pop(Time::from_secs(600)).is_none());
    }
}
