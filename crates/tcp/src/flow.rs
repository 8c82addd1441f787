//! Flow configuration, shared statistics, and connection wiring.

use crate::receiver::TcpReceiver;
use crate::sender::TcpSender;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use tputpred_netsim::{EndpointId, Route, Simulator, Time};
use tputpred_stats::Summary;

/// Loss-recovery flavor of the sender.
///
/// The PFTK model (and the paper's IPerf endpoints) assume **Reno**:
/// fast recovery ends on the first advancing ACK, so a window with
/// several losses usually needs a retransmission timeout. **NewReno**
/// (RFC 2582, contemporary with the paper) stays in fast recovery across
/// *partial* ACKs, retransmitting one hole per RTT — fewer timeouts under
/// bursty loss. The `abl_tcp_flavor` binary measures how much the flavor
/// moves throughput and FB error (§1: prediction depends on "the exact
/// implementation of TCP at the end-hosts").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TcpFlavor {
    /// Plain Reno: exit fast recovery on any advancing ACK.
    #[default]
    Reno,
    /// NewReno: retransmit per partial ACK, exit on the full ACK.
    NewReno,
}

/// TCP flow parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TcpConfig {
    /// Payload bytes per segment (MSS). 1448 = Ethernet MTU − 52 bytes of
    /// headers, matching the paper's 1500-byte wire packets.
    pub mss: u32,
    /// Header overhead added to every data packet on the wire.
    pub header: u32,
    /// Maximum window in bytes — the socket buffer (`W`): the smaller of
    /// sender/receiver buffers. 1 MB (paper default) or 20 KB
    /// (window-limited experiments).
    pub max_window: u32,
    /// Initial congestion window, in segments.
    pub init_cwnd_segments: u32,
    /// Delayed ACKs: acknowledge every `ack_every` in-order segments
    /// (2 = the `b` of the throughput formulas), with a cap timer.
    pub ack_every: u32,
    /// Delayed-ACK cap: an ACK is sent at most this long after the first
    /// unacknowledged segment.
    pub delack_timeout: Time,
    /// Minimum retransmission timeout (RFC 2988-era 1 s).
    pub min_rto: Time,
    /// Maximum retransmission timeout.
    pub max_rto: Time,
    /// Loss-recovery flavor.
    pub flavor: TcpFlavor,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            header: 52,
            max_window: 1 << 20,
            init_cwnd_segments: 2,
            ack_every: 2,
            delack_timeout: Time::from_millis(100),
            min_rto: Time::from_secs(1),
            max_rto: Time::from_secs(60),
            flavor: TcpFlavor::Reno,
        }
    }
}

impl TcpConfig {
    /// Wire size of a full data segment.
    pub fn data_packet_size(&self) -> u32 {
        self.mss + self.header
    }

    /// Wire size of a pure ACK.
    pub fn ack_packet_size(&self) -> u32 {
        self.header
    }
}

/// Statistics a flow accumulates, shared between sender, receiver, and the
/// experiment driver.
#[derive(Debug, Default)]
pub struct FlowStats {
    /// In-order bytes delivered to the receiving application.
    pub bytes_delivered: u64,
    /// Data segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Fast-retransmit events (triple-duplicate loss events).
    pub fast_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// RTT samples taken by the sender (seconds).
    pub rtt: Summary,
    /// True once the sender has passed its stop time (timed flows) or
    /// delivered its byte budget (sized flows) and the flight drained.
    pub finished: bool,
    /// When the flow finished, if it has.
    pub finished_at: Option<Time>,
}

impl FlowStats {
    /// Loss events (fast retransmits + timeouts) — the "congestion event"
    /// count of the PFTK model's `p` (§3.3 distinguishes this from the
    /// per-packet loss rate a prober sees).
    pub fn loss_events(&self) -> u64 {
        self.fast_retransmits + self.timeouts
    }

    /// Per-segment retransmission fraction, a proxy for the loss rate the
    /// flow itself experienced.
    pub fn retransmit_rate(&self) -> f64 {
        if self.segments_sent == 0 {
            0.0
        } else {
            self.retransmits as f64 / self.segments_sent as f64
        }
    }

    /// Average delivered throughput (bits/s) between two observation
    /// points, used by drivers sampling `bytes_delivered` around a
    /// measurement window.
    pub fn throughput_bps(delivered_bytes: u64, duration: Time) -> f64 {
        if duration == Time::ZERO {
            0.0
        } else {
            delivered_bytes as f64 * 8.0 / duration.as_secs_f64()
        }
    }
}

/// Shared handle to a flow's statistics.
pub type FlowHandle = Rc<RefCell<FlowStats>>;

/// Creates a bulk TCP flow in `sim`: a [`TcpSender`] transmitting over
/// `fwd_route` and a [`TcpReceiver`] acknowledging over `rev_route`.
///
/// The sender transmits application data from `start` (the connection's
/// slow start begins there) until `stop`, then lets the flight drain.
/// Returns the sender/receiver endpoint ids and the shared statistics
/// handle.
///
/// # Examples
///
/// See the crate-level integration tests: a sender and receiver across a
/// single bottleneck link, with throughput read from the
/// [`FlowHandle`].
pub fn connect(
    sim: &mut Simulator,
    config: TcpConfig,
    fwd_route: Route,
    rev_route: Route,
    start: Time,
    stop: Time,
) -> (EndpointId, EndpointId, FlowHandle) {
    connect_sized(sim, config, fwd_route, rev_route, start, stop, u64::MAX)
}

/// Like [`connect`], but the application transfers exactly `bytes` bytes
/// (e.g. a 64 KB NWS-style probe or a file download). The flow finishes —
/// recording [`FlowStats::finished_at`] — when the last byte is
/// acknowledged, or gives up at `stop`.
pub fn connect_sized(
    sim: &mut Simulator,
    config: TcpConfig,
    fwd_route: Route,
    rev_route: Route,
    start: Time,
    stop: Time,
    bytes: u64,
) -> (EndpointId, EndpointId, FlowHandle) {
    let stats: FlowHandle = Rc::new(RefCell::new(FlowStats::default()));
    let receiver = TcpReceiver::new(config, rev_route, Rc::clone(&stats));
    let receiver_id = sim.add_endpoint(Box::new(receiver));
    let sender = TcpSender::with_byte_limit(
        config,
        fwd_route,
        receiver_id,
        stop,
        bytes,
        Rc::clone(&stats),
    );
    let sender_id = sim.add_endpoint(Box::new(sender));
    // The receiver must know where to send ACKs; it learns the sender id
    // from the first data packet's src field, so no back-reference is
    // needed here. Bootstrap the sender.
    sim.schedule_timer(sender_id, crate::sender::TOKEN_START, start);
    (sender_id, receiver_id, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_setup() {
        let c = TcpConfig::default();
        assert_eq!(c.data_packet_size(), 1500);
        assert_eq!(c.max_window, 1 << 20);
        assert_eq!(c.ack_every, 2);
        assert_eq!(c.min_rto, Time::from_secs(1));
    }

    #[test]
    fn throughput_helper() {
        let bps = FlowStats::throughput_bps(1_250_000, Time::from_secs(1));
        assert_eq!(bps, 10e6);
        assert_eq!(FlowStats::throughput_bps(100, Time::ZERO), 0.0);
    }

    #[test]
    fn loss_events_sum_fast_retx_and_timeouts() {
        let s = FlowStats {
            fast_retransmits: 3,
            timeouts: 2,
            ..Default::default()
        };
        assert_eq!(s.loss_events(), 5);
    }

    #[test]
    fn retransmit_rate_handles_empty_flow() {
        assert_eq!(FlowStats::default().retransmit_rate(), 0.0);
        let s = FlowStats {
            segments_sent: 100,
            retransmits: 5,
            ..Default::default()
        };
        assert!((s.retransmit_rate() - 0.05).abs() < 1e-12);
    }
}
