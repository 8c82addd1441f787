//! Unidirectional links with finite droptail FIFO queues.
//!
//! A link models the two delays of store-and-forward networking:
//! *serialization* (size/rate, one packet at a time — this is where
//! queueing happens) and *propagation* (constant). The buffer is counted
//! in **packets** and drops from the tail — the droptail model of ns2
//! (which the paper's own simulations used) and of most router line
//! cards. Packet-count admission matters for the reproduction: a 41-byte
//! ping probe must share loss fate with 1500-byte data packets at a full
//! queue, or congested paths would never show the probe-visible loss the
//! paper's lossy-path analysis (§4.2) is built on. §3.4 of the paper
//! turns on exactly these mechanics: whether a TCP flow can saturate the
//! avail-bw depends on the buffer size `B` at the bottleneck.
//!
//! Links also keep the accounting the experiments need: bytes and packets
//! forwarded, drops, cumulative busy time (→ utilization → ground-truth
//! avail-bw), and queueing-delay statistics.

use crate::packet::Packet;
use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Active queue management at the link.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Aqm {
    /// Tail drop when the packet buffer is full (ns2's DropTail; the
    /// paper-era default and the testbed's).
    #[default]
    DropTail,
    /// Random Early Detection (Floyd & Jacobson 1993, as in ns2): an
    /// EWMA of the queue length drives an early-drop probability ramp
    /// between `min_th` and `max_th` packets; above `max_th` everything
    /// drops. Spreads TCP's losses over time instead of clustering them
    /// at buffer overflow — `abl_red` measures what that does to
    /// prediction.
    Red {
        /// Early-drop onset, packets (ns2 default ≈ 5).
        min_th: f64,
        /// Forced-drop threshold, packets (ns2 default ≈ 15).
        max_th: f64,
        /// Maximum early-drop probability at `max_th` (ns2: 0.02–0.1).
        max_p: f64,
        /// Queue-average weight (ns2: 0.002).
        weight: f64,
    },
}

impl Aqm {
    /// ns2-flavoured RED defaults scaled to a buffer of `buffer_packets`.
    pub fn red_for_buffer(buffer_packets: u32) -> Aqm {
        let max_th = (buffer_packets as f64 * 0.8).max(3.0);
        Aqm::Red {
            min_th: (max_th / 3.0).max(1.0),
            max_th,
            max_p: 0.1,
            weight: 0.002,
        }
    }
}

/// Identifies a link within a [`crate::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Transmission rate, bits per second.
    pub rate_bps: f64,
    /// One-way propagation delay.
    pub delay: Time,
    /// Queue capacity in packets (ns2-style). The packet being
    /// serialized does not count against the buffer.
    pub buffer_packets: u32,
    /// Queue management discipline.
    pub aqm: Aqm,
}

impl LinkConfig {
    /// A convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate or zero buffer.
    pub fn new(rate_bps: f64, delay: Time, buffer_packets: u32) -> Self {
        assert!(rate_bps > 0.0, "link rate must be positive");
        assert!(buffer_packets > 0, "link buffer must be positive");
        LinkConfig {
            rate_bps,
            delay,
            buffer_packets,
            aqm: Aqm::DropTail,
        }
    }

    /// The same link with RED queue management (ns2-flavoured parameters
    /// scaled to the buffer).
    pub fn with_red(mut self) -> Self {
        self.aqm = Aqm::red_for_buffer(self.buffer_packets);
        self
    }

    /// The bandwidth-delay product of this link in bytes, a natural
    /// buffer-sizing yardstick (§3.4; Appenzeller et al.).
    pub fn bdp_bytes(&self, rtt: Time) -> u32 {
        (self.rate_bps * rtt.as_secs_f64() / 8.0) as u32
    }

    /// The bandwidth-delay product expressed in packets of `pkt_bytes`
    /// each (at least 2) — the usual way to size a droptail buffer
    /// relative to the path.
    pub fn bdp_packets(rate_bps: f64, rtt: Time, pkt_bytes: u32) -> u32 {
        ((rate_bps * rtt.as_secs_f64() / 8.0 / pkt_bytes as f64) as u32).max(2)
    }
}

/// Counters a link accumulates while forwarding.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets that completed serialization.
    pub packets_out: u64,
    /// Bytes that completed serialization.
    pub bytes_out: u64,
    /// Packets dropped at the tail of the full buffer.
    pub drops: u64,
    /// Packets offered to the link (enqueued + dropped).
    pub offered: u64,
    /// Total time the serializer was busy.
    pub busy: Time,
    /// Queueing delay (enqueue → start of serialization) of every
    /// packet that started serialization.
    pub queue_delay: DelayTally,
}

/// Delays tallied exactly, in integer nanoseconds: how many, their sum
/// and the largest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DelayTally {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl DelayTally {
    // lint:hot-path
    fn record(&mut self, delay: Time) {
        let ns = delay.as_nanos();
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of delays recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the delays.
    pub fn total(&self) -> Time {
        Time::from_nanos(self.total_ns)
    }

    /// Largest delay; zero when none was recorded.
    pub fn max(&self) -> Time {
        Time::from_nanos(self.max_ns)
    }

    /// Mean delay in seconds; 0.0 when none was recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total().as_secs_f64() / self.count as f64
        }
    }
}

impl LinkStats {
    /// Serializer utilization over an elapsed interval.
    pub fn utilization(&self, elapsed: Time) -> f64 {
        if elapsed == Time::ZERO {
            0.0
        } else {
            self.busy.as_secs_f64() / elapsed.as_secs_f64()
        }
    }
}

/// A queued packet with its enqueue timestamp (for queue-delay stats).
#[derive(Debug, Clone)]
struct Queued {
    packet: Packet,
    enqueued_at: Time,
}

/// The runtime state of a link. Owned and driven by the
/// [`crate::Simulator`]; exposed for inspection.
#[derive(Debug)]
pub struct Link {
    config: LinkConfig,
    queue: VecDeque<Queued>,
    queued_bytes: u32,
    /// The packet in the serializer, if any.
    serializing: Option<Packet>,
    /// RED state: EWMA of the queue length, and a deterministic counter
    /// standing in for ns2's uniform variable (keeps the simulation a
    /// pure function of its inputs — no RNG plumbed into links).
    red_avg: f64,
    red_count: u64,
    /// Serialization time of the packet in the serializer — saves
    /// `finish_tx` recomputing the value `begin_tx` produced.
    cur_tx: Time,
    /// Move-to-front memo of [`Time::tx_time`] by packet size: the rate
    /// is fixed per link and traffic uses a handful of sizes (MSS data,
    /// 40 B ACKs, 41 B probes), so this skips the float round-trip on
    /// almost every packet. Pure memoization — hits return the exact
    /// `Time` a fresh computation would. `u32::MAX` marks an empty
    /// entry (no packet is 4 GiB).
    tx_memo: [(u32, Time); 2],
    stats: LinkStats,
}

/// What happened when a packet was offered to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Enqueued; the serializer was already busy.
    Queued,
    /// The serializer was idle and now serializes the packet, until the
    /// given completion time; the engine schedules [`Link::finish_tx`]
    /// then.
    StartTx(Time),
    /// Dropped: the buffer was full.
    Dropped,
}

impl Link {
    /// Creates an idle link.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            config,
            queue: VecDeque::new(),
            queued_bytes: 0,
            serializing: None,
            red_avg: 0.0,
            red_count: 0,
            cur_tx: Time::ZERO,
            tx_memo: [(u32::MAX, Time::ZERO); 2],
            stats: LinkStats::default(),
        }
    }

    /// [`Time::tx_time`] at this link's rate, memoized by size.
    // lint:hot-path
    fn tx_time_cached(&mut self, bytes: u32) -> Time {
        let (size0, tx0) = self.tx_memo[0];
        if size0 == bytes {
            return tx0;
        }
        let (size1, tx1) = self.tx_memo[1];
        if size1 == bytes {
            self.tx_memo.swap(0, 1);
            return tx1;
        }
        let t = Time::tx_time(bytes, self.config.rate_bps);
        self.tx_memo[1] = self.tx_memo[0];
        self.tx_memo[0] = (bytes, t);
        t
    }

    /// RED early-drop decision for the current (pre-enqueue) state.
    fn red_drops(&mut self) -> bool {
        let Aqm::Red {
            min_th,
            max_th,
            max_p,
            weight,
        } = self.config.aqm
        else {
            return false;
        };
        self.red_avg = (1.0 - weight) * self.red_avg + weight * self.queue.len() as f64;
        if self.red_avg < min_th {
            self.red_count = 0;
            return false;
        }
        if self.red_avg >= max_th {
            self.red_count = 0;
            return true;
        }
        // Drop probability ramps linearly between the thresholds; a
        // deterministic 1-in-round(1/p) counter replaces the uniform
        // draw (ns2's count-based variant spreads drops similarly).
        let p = max_p * (self.red_avg - min_th) / (max_th - min_th);
        let interval = (1.0 / p.max(1e-9)).round().max(1.0) as u64;
        self.red_count += 1;
        if self.red_count >= interval {
            self.red_count = 0;
            true
        } else {
            false
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Bytes currently waiting in the buffer (excluding the packet in the
    /// serializer).
    pub fn queued_bytes(&self) -> u32 {
        self.queued_bytes
    }

    /// Packets currently waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Offers a packet to the link at time `now`. An idle link starts
    /// serializing it at once.
    // lint:hot-path
    pub fn offer(&mut self, packet: Packet, now: Time) -> Offer {
        self.stats.offered += 1;
        if self.serializing.is_none() && self.queue.is_empty() {
            // An idle link never early-drops (avg decays toward 0 while
            // the queue is empty; ns2 likewise lets the first packet by).
            self.red_avg *= 0.5;
            Offer::StartTx(self.begin_tx(packet, now, now))
        } else if self.red_drops() {
            self.stats.drops += 1;
            Offer::Dropped
        } else if self.queue.len() < self.config.buffer_packets as usize {
            self.queued_bytes += packet.size;
            // lint:allow(hot-path-alloc): VecDeque is bounded by buffer_packets, keeps capacity
            self.queue.push_back(Queued {
                packet,
                enqueued_at: now,
            });
            Offer::Queued
        } else {
            self.stats.drops += 1;
            Offer::Dropped
        }
    }

    /// Puts `packet`, offered at `enqueued_at`, in the idle serializer
    /// at `now`; returns when its serialization completes.
    // lint:hot-path
    fn begin_tx(&mut self, packet: Packet, enqueued_at: Time, now: Time) -> Time {
        self.stats.queue_delay.record(now - enqueued_at);
        self.cur_tx = self.tx_time_cached(packet.size);
        self.serializing = Some(packet);
        now + self.cur_tx
    }

    /// Completes the current serialization at time `now`: accounts the
    /// sent packet and, if more packets wait, starts the next. Returns
    /// the sent packet with the next one's completion time, or `None`
    /// on an idle link.
    // lint:hot-path
    pub fn finish_tx(&mut self, now: Time) -> Option<(Packet, Option<Time>)> {
        let sent = self.serializing.take()?;
        self.stats.packets_out += 1;
        self.stats.bytes_out += sent.size as u64;
        debug_assert!(self.cur_tx == Time::tx_time(sent.size, self.config.rate_bps));
        self.stats.busy += self.cur_tx;
        let next = self.queue.pop_front().map(|next| {
            self.queued_bytes -= next.packet.size;
            self.begin_tx(next.packet, next.enqueued_at, now)
        });
        Some((sent, next))
    }

    /// Propagation delay of this link.
    pub fn delay(&self) -> Time {
        self.config.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EndpointId;
    use crate::packet::{Payload, Route};

    fn pkt(size: u32) -> Packet {
        Packet {
            size,
            src: EndpointId(0),
            dst: EndpointId(1),
            route: Route::direct(LinkId(0)),
            hop_index: 0,
            payload: Payload::Raw,
        }
    }

    fn link(rate: f64, buffer_packets: u32) -> Link {
        Link::new(LinkConfig::new(rate, Time::from_millis(10), buffer_packets))
    }

    #[test]
    fn idle_link_starts_transmitting_immediately() {
        let mut l = link(8e6, 10);
        // 1000 B at 8 Mbps = 1 ms.
        assert_eq!(
            l.offer(pkt(1000), Time::ZERO),
            Offer::StartTx(Time::from_millis(1))
        );
    }

    #[test]
    fn busy_link_queues() {
        let mut l = link(8e6, 10);
        l.offer(pkt(1000), Time::ZERO);
        assert_eq!(l.offer(pkt(500), Time::ZERO), Offer::Queued);
        assert_eq!(l.queue_len(), 1);
        assert_eq!(l.queued_bytes(), 500);
    }

    #[test]
    fn full_buffer_drops_from_tail() {
        // One-packet buffer: serializer + 1 queued, the rest dropped —
        // and a tiny 41-byte probe is dropped exactly like a big packet.
        let mut l = link(8e6, 1);
        l.offer(pkt(800), Time::ZERO);
        assert_eq!(l.offer(pkt(900), Time::ZERO), Offer::Queued);
        assert_eq!(l.offer(pkt(41), Time::ZERO), Offer::Dropped);
        assert_eq!(l.stats().drops, 1);
        assert_eq!(l.stats().offered, 3);
    }

    #[test]
    fn finish_tx_chains_to_next_packet() {
        let mut l = link(8e6, 10);
        l.offer(pkt(1000), Time::ZERO);
        l.offer(pkt(2000), Time::ZERO);
        let t1 = Time::from_millis(1);
        let (sent, done) = l.finish_tx(t1).expect("a packet in the serializer");
        assert_eq!(sent.size, 1000);
        assert_eq!(done, Some(Time::from_millis(3))); // 2000 B at 8 Mbps = 2 ms
        assert_eq!(l.stats().packets_out, 1);
        assert_eq!(l.stats().bytes_out, 1000);
        let (next, done) = l
            .finish_tx(Time::from_millis(3))
            .expect("the queued packet");
        assert_eq!(next.size, 2000);
        assert_eq!(done, None);
    }

    #[test]
    fn finish_tx_on_an_idle_link_returns_none() {
        let mut l = link(8e6, 10);
        assert_eq!(l.finish_tx(Time::ZERO), None);
        l.offer(pkt(1000), Time::ZERO);
        assert!(l.finish_tx(Time::from_millis(1)).is_some());
        assert_eq!(l.finish_tx(Time::from_millis(2)), None);
        assert_eq!(l.stats().packets_out, 1);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut l = link(8e6, 10);
        l.offer(pkt(1000), Time::ZERO);
        let (_, next) = l
            .finish_tx(Time::from_millis(1))
            .expect("a packet in the serializer");
        assert!(next.is_none());
        // 1 ms busy out of 10 ms elapsed.
        let u = l.stats().utilization(Time::from_millis(10));
        assert!((u - 0.1).abs() < 1e-9);
    }

    #[test]
    fn queue_delay_is_recorded() {
        let mut l = link(8e6, 10);
        l.offer(pkt(1000), Time::ZERO);
        l.offer(pkt(1000), Time::ZERO);
        l.finish_tx(Time::from_millis(1));
        // Second packet waited 1 ms, the first not at all.
        let delays = l.stats().queue_delay;
        assert_eq!(delays.count(), 2);
        assert_eq!(delays.max(), Time::from_millis(1));
        assert_eq!(delays.total(), Time::from_millis(1));
        assert_eq!(delays.mean(), 0.0005);
    }

    #[test]
    fn bdp_helpers() {
        let cfg = LinkConfig::new(10e6, Time::from_millis(10), 67);
        // 10 Mbps × 80 ms RTT = 100 kB ≈ 66 packets of 1500 B.
        assert_eq!(cfg.bdp_bytes(Time::from_millis(80)), 100_000);
        assert_eq!(
            LinkConfig::bdp_packets(10e6, Time::from_millis(80), 1500),
            66
        );
        // The floor of 2 packets applies on tiny BDPs.
        assert_eq!(
            LinkConfig::bdp_packets(64e3, Time::from_millis(10), 1500),
            2
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = LinkConfig::new(0.0, Time::ZERO, 1);
    }
}

#[cfg(test)]
mod red_tests {
    use super::*;
    use crate::engine::EndpointId;
    use crate::packet::{Payload, Route};

    fn pkt(size: u32) -> Packet {
        Packet {
            size,
            src: EndpointId(0),
            dst: EndpointId(1),
            route: Route::direct(LinkId(0)),
            hop_index: 0,
            payload: Payload::Raw,
        }
    }

    fn red_link(buffer: u32) -> Link {
        Link::new(LinkConfig::new(8e6, Time::from_millis(10), buffer).with_red())
    }

    #[test]
    fn red_defaults_scale_with_buffer() {
        let Aqm::Red {
            min_th,
            max_th,
            max_p,
            weight,
        } = Aqm::red_for_buffer(30)
        else {
            panic!("expected RED");
        };
        assert!((max_th - 24.0).abs() < 1e-9);
        assert!((min_th - 8.0).abs() < 1e-9);
        assert_eq!(max_p, 0.1);
        assert_eq!(weight, 0.002);
    }

    #[test]
    fn red_drops_early_under_sustained_backlog() {
        // Keep the queue near-full long enough for the EWMA to rise past
        // min_th: early drops must appear even though the buffer never
        // hard-overflows.
        let mut l = red_link(30);
        l.offer(pkt(1000), Time::ZERO);
        let mut dropped = 0;
        let mut t = Time::ZERO;
        for i in 0..20_000 {
            // Alternate: one arrival, one service, queue hovering ~25.
            if l.queue_len() < 25 && matches!(l.offer(pkt(1000), t), Offer::Dropped) {
                dropped += 1;
            }
            if i % 2 == 0 {
                l.finish_tx(t);
                if !l.queue.is_empty() {
                    // finish_tx already dequeued the next packet.
                }
            }
            t += Time::from_micros(500);
        }
        assert!(dropped > 0, "RED must early-drop under sustained backlog");
        // And the queue itself never hard-overflowed (30-packet buffer,
        // arrivals capped at 25).
        assert!(l.queue_len() <= 30);
    }

    #[test]
    fn red_passes_everything_at_low_occupancy() {
        let mut l = red_link(30);
        l.offer(pkt(1000), Time::ZERO);
        // Never more than 2 queued: avg stays below min_th = 8.
        for i in 0..1000 {
            assert_ne!(l.offer(pkt(1000), Time::from_millis(i)), Offer::Dropped);
            l.finish_tx(Time::from_millis(i));
        }
        assert_eq!(l.stats().drops, 0);
    }

    #[test]
    fn droptail_default_is_unchanged() {
        let cfg = LinkConfig::new(8e6, Time::from_millis(10), 10);
        assert_eq!(cfg.aqm, Aqm::DropTail);
    }
}
