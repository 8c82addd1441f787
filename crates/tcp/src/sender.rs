//! The TCP Reno sender: congestion control, loss recovery, timers.

use crate::flow::{FlowHandle, TcpConfig, TcpFlavor};
use crate::rto::RtoEstimator;
use tputpred_netsim::{
    Ctx, Endpoint, EndpointId, Packet, Payload, Route, TcpMeta, Time, TimerSlot,
};

/// Timer token that starts the flow (armed by [`crate::connect`]).
pub const TOKEN_START: u64 = 0;

/// Timer token of the retransmission timer.
const TOKEN_RTO: u64 = 1;

/// A bulk-transfer TCP Reno sender.
///
/// Models an IPerf-style application: unlimited data is available from the
/// start timer until `stop`; the sender transmits as the congestion window
/// (capped by the socket buffer `W`) allows. All of Reno's machinery is
/// here:
///
/// * **slow start** (`cwnd += MSS` per new ACK while `cwnd < ssthresh`)
///   and **congestion avoidance** (`cwnd += MSS²/cwnd` per new ACK);
/// * **fast retransmit** on the third duplicate ACK, entering **fast
///   recovery** with `ssthresh = max(flight/2, 2·MSS)`,
///   `cwnd = ssthresh + 3·MSS`, inflation by one MSS per further
///   duplicate, and full deflation to `ssthresh` on the recovery ACK;
/// * **retransmission timeout**: `ssthresh = max(flight/2, 2·MSS)`,
///   `cwnd = 1·MSS`, exponential backoff, and go-back-N resend (the
///   receiver's out-of-order buffer makes re-walking the sequence space
///   cheap, as in SACK-less stacks);
/// * **Karn's rule** via echoed timestamps: ACKs triggered by
///   retransmitted segments carry `retx = true` and are never sampled.
pub struct TcpSender {
    config: TcpConfig,
    route: Route,
    dst: EndpointId,
    stop: Time,
    /// Application bytes to transfer; `u64::MAX` for unbounded bulk flows.
    byte_limit: u64,
    stats: FlowHandle,

    started: bool,
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Next byte to transmit.
    snd_nxt: u64,
    /// Highest byte ever transmitted (for marking retransmissions).
    snd_max: u64,
    /// Congestion window, bytes.
    cwnd: f64,
    /// Slow-start threshold, bytes.
    ssthresh: f64,
    dup_acks: u32,
    in_recovery: bool,
    /// `snd_nxt` at fast-recovery entry: NewReno's "recover" point — ACKs
    /// below it are partial, at or above it end recovery.
    recover: u64,
    rto: RtoEstimator,
    /// The retransmission timer: re-armed on every ACK that leaves data
    /// in flight, disarmed when the flight empties.
    rto_timer: TimerSlot,
}

impl TcpSender {
    /// Creates a sender for `config`, transmitting over `route` to `dst`
    /// until `stop`. Bootstrapped by a [`TOKEN_START`] timer.
    pub fn new(
        config: TcpConfig,
        route: Route,
        dst: EndpointId,
        stop: Time,
        stats: FlowHandle,
    ) -> Self {
        Self::with_byte_limit(config, route, dst, stop, u64::MAX, stats)
    }

    /// Like [`TcpSender::new`], but the application hands over exactly
    /// `byte_limit` bytes: the flow finishes (and records
    /// [`crate::FlowStats::finished_at`]) once they are all acknowledged —
    /// a fixed-*size* transfer, like NWS's 64 KB probes or a file
    /// download, as opposed to IPerf's fixed-duration mode.
    pub fn with_byte_limit(
        config: TcpConfig,
        route: Route,
        dst: EndpointId,
        stop: Time,
        byte_limit: u64,
        stats: FlowHandle,
    ) -> Self {
        let mss = config.mss as f64;
        TcpSender {
            config,
            route,
            dst,
            stop,
            byte_limit,
            stats,
            started: false,
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            cwnd: config.init_cwnd_segments as f64 * mss,
            ssthresh: config.max_window as f64,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            rto: RtoEstimator::new(config.min_rto, config.max_rto),
            rto_timer: TimerSlot::new(),
        }
    }

    /// Bytes in flight.
    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Effective send window: min(cwnd, W).
    fn window(&self) -> u64 {
        (self.cwnd.min(self.config.max_window as f64)) as u64
    }

    fn mss(&self) -> u64 {
        self.config.mss as u64
    }

    /// Transmits the segment starting at `seq`.
    fn send_segment(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        let retx = seq < self.snd_max;
        let meta = TcpMeta {
            seq,
            len: self.config.mss,
            ack: 0,
            is_ack: false,
            retx,
            echo: ctx.now,
        };
        ctx.send(
            self.route,
            self.dst,
            self.config.data_packet_size(),
            Payload::Tcp(meta),
        );
        let mut stats = self.stats.borrow_mut();
        stats.segments_sent += 1;
        if retx {
            stats.retransmits += 1;
        }
    }

    /// Sends as much new data as the window and the application allow.
    fn send_available(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.now >= self.stop {
            return;
        }
        let wnd = self.window();
        while self.flight() + self.mss() <= wnd && self.snd_nxt + self.mss() <= self.byte_limit {
            let seq = self.snd_nxt;
            self.send_segment(ctx, seq);
            self.snd_nxt += self.mss();
            self.snd_max = self.snd_max.max(self.snd_nxt);
        }
        if self.flight() > 0 && !ctx.is_armed(&self.rto_timer) {
            self.arm_rto(ctx);
        }
    }

    /// True once the application has nothing left to send (sized
    /// transfers round their budget down to whole segments) or the clock
    /// passed `stop` (timed transfers). Only meaningful with an empty
    /// flight.
    fn is_done(&self, now: Time) -> bool {
        self.snd_nxt + self.mss() > self.byte_limit || now >= self.stop
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_>) {
        let at = ctx.now + self.rto.current();
        ctx.arm(&mut self.rto_timer, TOKEN_RTO, at);
    }

    /// Multiplicative-decrease target after a loss event.
    fn halved_ssthresh(&self) -> f64 {
        let mss = self.config.mss as f64;
        (self.flight() as f64 / 2.0).max(2.0 * mss)
    }

    fn on_ack(&mut self, ctx: &mut Ctx<'_>, meta: TcpMeta) {
        let mss = self.config.mss as f64;
        if meta.ack > self.snd_una {
            // New data acknowledged.
            let bytes_acked = meta.ack - self.snd_una;
            self.snd_una = meta.ack;
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            if !meta.retx {
                let rtt = ctx.now.saturating_sub(meta.echo);
                self.rto.sample(rtt);
                self.stats.borrow_mut().rtt.push(rtt.as_secs_f64());
            }
            if self.in_recovery {
                match self.config.flavor {
                    TcpFlavor::Reno => {
                        // Any advancing ACK ends recovery; deflate fully.
                        self.in_recovery = false;
                        self.cwnd = self.ssthresh;
                    }
                    TcpFlavor::NewReno if meta.ack >= self.recover => {
                        // Full ACK: everything outstanding at recovery
                        // entry is in; deflate and leave.
                        self.in_recovery = false;
                        self.cwnd = self.ssthresh;
                    }
                    TcpFlavor::NewReno => {
                        // Partial ACK: the next hole is at the new
                        // snd_una — retransmit it immediately and stay in
                        // recovery (RFC 2582 §3 step 5), with partial
                        // window deflation.
                        let hole = self.snd_una;
                        self.send_segment(ctx, hole);
                        self.cwnd = (self.cwnd - bytes_acked as f64 + mss).max(2.0 * mss);
                        self.arm_rto(ctx);
                        return;
                    }
                }
            } else if self.cwnd < self.ssthresh {
                self.cwnd += mss;
            } else {
                self.cwnd += mss * mss / self.cwnd;
            }
            self.dup_acks = 0;
            if self.flight() > 0 {
                self.arm_rto(ctx);
            } else {
                ctx.disarm(&mut self.rto_timer);
                if self.is_done(ctx.now) {
                    let mut stats = self.stats.borrow_mut();
                    if !stats.finished {
                        stats.finished = true;
                        stats.finished_at = Some(ctx.now);
                    }
                }
            }
            self.send_available(ctx);
        } else if meta.ack == self.snd_una && self.flight() > 0 {
            self.dup_acks += 1;
            if self.in_recovery {
                // Window inflation: one MSS per duplicate.
                self.cwnd += mss;
                self.send_available(ctx);
            } else if self.dup_acks == 3 {
                // Fast retransmit.
                self.ssthresh = self.halved_ssthresh();
                self.recover = self.snd_nxt;
                let una = self.snd_una;
                self.send_segment(ctx, una);
                self.cwnd = self.ssthresh + 3.0 * mss;
                self.in_recovery = true;
                self.stats.borrow_mut().fast_retransmits += 1;
                self.arm_rto(ctx);
            }
        }
    }

    fn on_rto(&mut self, ctx: &mut Ctx<'_>) {
        if self.flight() == 0 {
            return;
        }
        let mss = self.config.mss as f64;
        self.ssthresh = self.halved_ssthresh();
        self.cwnd = mss;
        self.in_recovery = false;
        self.dup_acks = 0;
        self.rto.backoff();
        self.stats.borrow_mut().timeouts += 1;
        // Go-back-N: re-walk the sequence space from snd_una. The segment
        // is retransmitted by send_available since snd_nxt rolls back.
        self.snd_nxt = self.snd_una;
        let una = self.snd_una;
        self.send_segment(ctx, una);
        self.snd_nxt += self.mss();
        self.arm_rto(ctx);
    }
}

impl Endpoint for TcpSender {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if let Payload::Tcp(meta) = packet.payload {
            if meta.is_ack && self.started {
                self.on_ack(ctx, meta);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_START if !self.started => {
                self.started = true;
                self.send_available(ctx);
            }
            TOKEN_RTO => self.on_rto(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowStats;
    use std::cell::RefCell;
    use std::rc::Rc;
    use tputpred_netsim::link::LinkConfig;
    use tputpred_netsim::{LinkId, Simulator};

    /// Harness: drive a sender against a scripted ACK stream without a
    /// real receiver, capturing what it transmits.
    struct AckScript;

    fn handle() -> FlowHandle {
        Rc::new(RefCell::new(FlowStats::default()))
    }

    fn sender(stats: FlowHandle) -> TcpSender {
        TcpSender::new(
            TcpConfig::default(),
            Route::direct(LinkId(0)),
            EndpointId(99),
            Time::MAX,
            stats,
        )
    }

    #[test]
    fn initial_window_is_two_segments() {
        let s = sender(handle());
        assert_eq!(s.window(), 2 * 1448);
        assert_eq!(s.flight(), 0);
    }

    #[test]
    fn window_is_capped_by_socket_buffer() {
        let mut s = sender(handle());
        s.cwnd = 10e6;
        assert_eq!(s.window(), 1 << 20);
    }

    #[test]
    fn halved_ssthresh_has_two_mss_floor() {
        let mut s = sender(handle());
        s.snd_nxt = 1448; // one segment in flight
        assert_eq!(s.halved_ssthresh(), 2.0 * 1448.0);
        s.snd_nxt = 100 * 1448;
        assert_eq!(s.halved_ssthresh(), 50.0 * 1448.0);
    }

    // Full protocol behaviour (slow start growth, fast retransmit,
    // timeout recovery, throughput) is exercised end-to-end against the
    // real receiver in `tests/reno.rs`.
    #[test]
    fn smoke_send_on_start_timer() {
        let mut sim = Simulator::new(1);
        let link = sim.add_link(LinkConfig::new(10e6, Time::from_millis(10), 100));
        let stats = handle();
        let (sink, _rx) = tputpred_netsim::sources::Sink::new();
        let sink_id = sim.add_endpoint(Box::new(sink));
        let s = TcpSender::new(
            TcpConfig::default(),
            Route::direct(link),
            sink_id,
            Time::MAX,
            Rc::clone(&stats),
        );
        let sid = sim.add_endpoint(Box::new(s));
        sim.schedule_timer(sid, TOKEN_START, Time::ZERO);
        sim.run_until(Time::from_millis(100));
        // Initial window: exactly two segments transmitted, no ACKs back.
        assert_eq!(stats.borrow().segments_sent, 2);
        let _ = AckScript;
    }
}
