//! The TCP receiver: reassembly, cumulative + delayed ACKs.

use crate::flow::{FlowHandle, TcpConfig};
use std::collections::BTreeMap;
use tputpred_netsim::{
    Ctx, Endpoint, EndpointId, Packet, Payload, Route, TcpMeta, Time, TimerSlot,
};

/// A bulk-transfer TCP receiver.
///
/// Maintains the in-order delivery point `rcv_nxt` and an out-of-order
/// reassembly buffer; generates
///
/// * a **delayed ACK** for every [`TcpConfig::ack_every`]-th in-order
///   segment (with the [`TcpConfig::delack_timeout`] cap so a lone
///   segment is acknowledged promptly),
/// * an **immediate duplicate ACK** for every out-of-order segment (the
///   signal fast retransmit counts), and
/// * an **immediate ACK** for segments below `rcv_nxt` (so a go-back-N
///   resend after a timeout advances the sender quickly).
///
/// ACKs echo the timestamp (and retransmission flag) of the segment that
/// triggered them — for a delayed ACK, of the *first* segment in the
/// batch — giving the sender Karn-safe RTT samples.
pub struct TcpReceiver {
    config: TcpConfig,
    rev_route: Route,
    stats: FlowHandle,
    /// Learned from the first data packet.
    sender: Option<EndpointId>,
    /// Next in-order byte expected.
    rcv_nxt: u64,
    /// Out-of-order segments: start → length.
    ooo: BTreeMap<u64, u32>,
    /// In-order segments received since the last ACK.
    unacked: u32,
    /// Echo values for the pending (delayed) ACK.
    pending_echo: Time,
    pending_retx: bool,
    /// The delayed-ACK timer: armed by the first unacknowledged
    /// in-order segment, disarmed by every ACK sent.
    delack: TimerSlot,
}

impl TcpReceiver {
    /// Creates a receiver that acknowledges over `rev_route`.
    pub fn new(config: TcpConfig, rev_route: Route, stats: FlowHandle) -> Self {
        TcpReceiver {
            config,
            rev_route,
            stats,
            sender: None,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            unacked: 0,
            pending_echo: Time::ZERO,
            pending_retx: false,
            delack: TimerSlot::new(),
        }
    }

    /// The in-order delivery point (bytes delivered to the application).
    pub fn delivered(&self) -> u64 {
        self.rcv_nxt
    }

    fn send_ack(&mut self, ctx: &mut Ctx<'_>, echo: Time, retx: bool) {
        let Some(sender) = self.sender else { return };
        let meta = TcpMeta {
            seq: 0,
            len: 0,
            ack: self.rcv_nxt,
            is_ack: true,
            retx,
            echo,
        };
        ctx.send(
            self.rev_route,
            sender,
            self.config.ack_packet_size(),
            Payload::Tcp(meta),
        );
        self.unacked = 0;
        ctx.disarm(&mut self.delack);
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, meta: TcpMeta) {
        if meta.seq == self.rcv_nxt {
            // In-order: advance, then drain the reassembly buffer.
            self.rcv_nxt += meta.len as u64;
            while let Some((&start, &len)) = self.ooo.first_key_value() {
                if start > self.rcv_nxt {
                    break;
                }
                self.ooo.remove(&start);
                let end = start + len as u64;
                self.rcv_nxt = self.rcv_nxt.max(end);
            }
            self.stats.borrow_mut().bytes_delivered = self.rcv_nxt;

            if self.unacked == 0 {
                self.pending_echo = meta.echo;
                self.pending_retx = meta.retx;
            }
            self.unacked += 1;
            if !self.ooo.is_empty() || self.unacked >= self.config.ack_every {
                // A hole remains (tell the sender now) or the batch is
                // full: acknowledge immediately.
                let (echo, retx) = (self.pending_echo, self.pending_retx);
                self.send_ack(ctx, echo, retx);
            } else if !ctx.is_armed(&self.delack) {
                let at = ctx.now + self.config.delack_timeout;
                ctx.arm(&mut self.delack, 0, at);
            }
        } else if meta.seq > self.rcv_nxt {
            // Out of order: buffer it, emit a duplicate ACK immediately.
            self.ooo.entry(meta.seq).or_insert(meta.len);
            self.send_ack(ctx, meta.echo, true);
        } else {
            // Already-delivered data (go-back-N resend): re-ACK now so the
            // sender advances.
            self.send_ack(ctx, meta.echo, true);
        }
    }
}

impl Endpoint for TcpReceiver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if let Payload::Tcp(meta) = packet.payload {
            if !meta.is_ack {
                self.sender = Some(packet.src);
                self.on_data(ctx, meta);
            }
        }
    }

    /// The delayed-ACK timer fired (the receiver's only timer).
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.unacked > 0 {
            let (echo, retx) = (self.pending_echo, self.pending_retx);
            self.send_ack(ctx, echo, retx);
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
    use tputpred_netsim::Simulator;

    /// Sends a scripted sequence of data segments to the receiver, one per
    /// millisecond, and records every ACK that comes back.
    struct Injector {
        script: Vec<TcpMeta>,
        next: usize,
        route: Route,
        dst: EndpointId,
        acks: Rc<RefCell<Vec<TcpMeta>>>,
    }

    impl Endpoint for Injector {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, packet: Packet) {
            if let Payload::Tcp(meta) = packet.payload {
                if meta.is_ack {
                    self.acks.borrow_mut().push(meta);
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if let Some(meta) = self.script.get(self.next).copied() {
                self.next += 1;
                ctx.send(self.route, self.dst, meta.len + 52, Payload::Tcp(meta));
                ctx.set_timer_after(0, Time::from_millis(1));
            }
        }
    }

    // lint:allow(units): whole-ms test grid; converted via Time::from_millis below
    fn data(seq: u64, echo_ms: u64) -> TcpMeta {
        TcpMeta {
            seq,
            len: 1448,
            ack: 0,
            is_ack: false,
            retx: false,
            // lint:allow(units): conversion is explicit at the use site
            echo: Time::from_millis(echo_ms),
        }
    }

    /// Runs the script; returns (delivered_bytes, acks).
    fn run(script: Vec<TcpMeta>) -> (u64, Vec<TcpMeta>) {
        let mut sim = Simulator::new(2);
        let fwd = sim.add_link(LinkConfig::new(100e6, Time::from_millis(1), 100));
        let rev = sim.add_link(LinkConfig::new(100e6, Time::from_millis(1), 100));
        let stats: FlowHandle = Rc::new(RefCell::new(FlowStats::default()));
        let receiver =
            TcpReceiver::new(TcpConfig::default(), Route::direct(rev), Rc::clone(&stats));
        let rid = sim.add_endpoint(Box::new(receiver));
        let acks = Rc::new(RefCell::new(Vec::new()));
        let injector = Injector {
            script,
            next: 0,
            route: Route::direct(fwd),
            dst: rid,
            acks: Rc::clone(&acks),
        };
        let iid = sim.add_endpoint(Box::new(injector));
        sim.schedule_timer(iid, 0, Time::ZERO);
        sim.run_until(Time::from_secs(2));
        let delivered = stats.borrow().bytes_delivered;
        let acks = acks.borrow().clone();
        (delivered, acks)
    }

    #[test]
    fn in_order_pairs_produce_one_ack_per_two_segments() {
        let (delivered, acks) = run(vec![
            data(0, 0),
            data(1448, 1),
            data(2896, 2),
            data(4344, 3),
        ]);
        assert_eq!(delivered, 4 * 1448);
        assert_eq!(acks.len(), 2, "delayed ACKs: every second segment");
        assert_eq!(acks[0].ack, 2896);
        assert_eq!(acks[1].ack, 5792);
        // The delayed ACK echoes the FIRST segment of its batch.
        assert_eq!(acks[0].echo, Time::from_millis(0));
        assert_eq!(acks[1].echo, Time::from_millis(2));
    }

    #[test]
    fn lone_segment_is_acked_by_the_delack_timer() {
        let (delivered, acks) = run(vec![data(0, 0)]);
        assert_eq!(delivered, 1448);
        assert_eq!(acks.len(), 1, "the 100 ms cap fires");
        assert_eq!(acks[0].ack, 1448);
    }

    #[test]
    fn out_of_order_segment_triggers_immediate_dup_ack() {
        // 0 arrives, then 2896 (hole at 1448): a dup ACK of 1448 must be
        // emitted immediately for each out-of-order arrival.
        let (delivered, acks) = run(vec![
            data(0, 0),
            data(2896, 1),
            data(4344, 2),
            data(5792, 3),
        ]);
        assert_eq!(delivered, 1448);
        // First in-order segment: delack pending... then three ooo arrivals
        // each force an immediate ACK of rcv_nxt = 1448.
        let dup_acks: Vec<_> = acks.iter().filter(|a| a.ack == 1448).collect();
        assert!(dup_acks.len() >= 3, "three duplicate ACKs: {acks:?}");
        assert!(dup_acks.iter().all(|a| a.retx), "dup ACKs are Karn-flagged");
    }

    #[test]
    fn filling_the_hole_jumps_the_cumulative_ack() {
        let (delivered, acks) = run(vec![
            data(0, 0),
            data(2896, 1),
            data(4344, 2),
            data(1448, 3), // fills the hole
        ]);
        assert_eq!(delivered, 5792);
        let last = acks.last().expect("ACK after fill");
        assert_eq!(last.ack, 5792, "cumulative jump over the buffer");
    }

    #[test]
    fn old_data_is_reacked_immediately() {
        let (delivered, acks) = run(vec![
            data(0, 0),
            data(1448, 1),
            data(0, 2), // spurious go-back-N resend
        ]);
        assert_eq!(delivered, 2896);
        let last = acks.last().unwrap();
        assert_eq!(last.ack, 2896);
        assert!(last.retx, "re-ACK of old data never feeds RTT sampling");
    }

    #[test]
    fn duplicate_ooo_segment_is_idempotent() {
        let (delivered, _) = run(vec![
            data(0, 0),
            data(2896, 1),
            data(2896, 2), // same ooo segment twice
            data(1448, 3),
        ]);
        assert_eq!(delivered, 3 * 1448);
    }
}
