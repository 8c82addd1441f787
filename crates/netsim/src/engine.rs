//! The discrete-event engine: scheduler, endpoint protocol, packet
//! forwarding.
//!
//! One [`Simulator`] owns the links, the endpoints, the event schedule,
//! and a seeded RNG. Endpoints implement [`Endpoint`] and interact with
//! the world exclusively through a [`Ctx`] handed to their callbacks —
//! its `send`/`set_timer` operations apply to the engine immediately, in
//! issue order (the callback's own endpoint is lifted out of the table
//! for the duration, so the borrow is sound and re-entry is impossible).
//! The event order is deterministic: events at equal timestamps dispatch
//! in scheduling order (FIFO tie-break), so a simulation is a pure
//! function of its seed and construction sequence.
//!
//! # Event schedule (DESIGN.md §14)
//!
//! Every pending event carries a packed `(at, seq)` key (`seq` is
//! assigned at scheduling time from one engine-wide counter), and the
//! engine dispatches in ascending key order. The schedule is split in
//! two by event class:
//!
//! * **Timers** sit in one `BinaryHeap`. Link events never enter it, so
//!   it stays small: a few hundred pending timers per trace, about 1400
//!   at most.
//! * **Link events** never enter a queue at all. Each link has at most
//!   one pending serialization completion (the serializer is busy with
//!   exactly one packet) and a FIFO of in-flight arrivals (propagation
//!   delay is constant per link, so arrival order equals transmission
//!   order and the deque stays sorted by construction). A step takes
//!   the minimum key across the heap top and the per-link heads — a
//!   two-compare scan for the simulator's typical two links.
//!
//! Past-due timers are **clamped to `now` in every build** (counted in
//! [`EngineCounters::timer_clamps`]); the clock is monotonic — a
//! backward [`Simulator::run_until`] is a no-op. Both used to be
//! `debug_assert!`-only guards, which let release builds dispatch a
//! late timer "in the past" or rewind the clock and so diverge from
//! debug replays.
//!
//! Packet life cycle:
//!
//! 1. an endpoint `ctx.send(...)`s a packet with a [`crate::Route`];
//! 2. the engine offers it to the route's first link — if the serializer
//!    is idle transmission starts, if the buffer has room it queues,
//!    otherwise it is dropped (droptail);
//! 3. when serialization completes the engine schedules the arrival after
//!    the link's propagation delay and starts the link's next queued
//!    packet;
//! 4. on arrival the packet either enters the next link of its route or is
//!    delivered to the destination endpoint's
//!    [`Endpoint::on_packet`].
//!
//! # Unobserved deliveries (DESIGN.md §14)
//!
//! A packet whose last hop ends at an endpoint that [discards]
//! ([`Endpoint::discards`]) never becomes an arrival event: its link
//! keeps only the packed key the arrival would have had, in a second
//! FIFO sorted like the first. Such an arrival is *settled* — counted
//! in `arrival_events`, `packets_delivered` and `elided_arrivals`, and
//! the clock moved to it — once the event order passes its key: before
//! the link elides another packet (up to `now`), and when
//! [`Simulator::run_until`] or [`Simulator::run_to_quiescence`] returns.
//! So every counter and the clock read exactly what dispatching the
//! arrivals would have left them, and the FIFO holds only packets still
//! in propagation.
//!
//! [discards]: Endpoint::discards

use crate::link::{Link, LinkConfig, LinkId, Offer};
use crate::packet::{Packet, Payload, Route};
use crate::time::Time;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Identifies an endpoint within a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EndpointId(pub u32);

/// The world handle passed to endpoint callbacks.
///
/// Operations apply to the engine immediately, in issue order — exactly
/// the order a deferred command queue would have replayed them in, so
/// dispatch sequence numbers (and with them the whole simulation) are
/// unchanged relative to the queued design this replaced. Routing a
/// fresh send never re-enters an endpoint (routes are non-empty, so the
/// packet always lands in a link, never a destination), and the engine
/// itself draws no randomness, so the RNG stream the callback sees is
/// also unchanged.
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: Time,
    /// The endpoint being called.
    pub self_id: EndpointId,
    sim: &'a mut Simulator,
}

impl Ctx<'_> {
    /// Sends a packet of `size` bytes along `route` to `dst`.
    // lint:hot-path
    pub fn send(&mut self, route: Route, dst: EndpointId, size: u32, payload: Payload) {
        self.sim.counters.endpoint_calls += 1;
        self.sim.route_packet(Packet {
            size,
            src: self.self_id,
            dst,
            route,
            hop_index: 0,
            payload,
        });
    }

    /// Arms (or re-arms) a timer: [`Endpoint::on_timer`] fires with
    /// `token` at absolute time `at`. Timers are not cancellable —
    /// endpoints version their tokens and ignore stale ones, the idiom
    /// TCP's retransmission timer uses. A past-due `at` is clamped to
    /// the current time (see [`EngineCounters::timer_clamps`]).
    // lint:hot-path
    pub fn set_timer(&mut self, token: u64, at: Time) {
        self.sim.counters.endpoint_calls += 1;
        self.sim.push_timer(self.self_id, token, at);
    }

    /// Arms a timer to fire `delay` from now.
    pub fn set_timer_after(&mut self, token: u64, delay: Time) {
        let at = self.now + delay;
        self.set_timer(token, at);
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.sim.rng
    }
}

/// A protocol endpoint: TCP sender/receiver, probe, traffic source, sink.
pub trait Endpoint {
    /// A packet addressed to this endpoint arrived.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet);

    /// A timer armed with `token` fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);

    /// Whether [`Endpoint::on_packet`] has no observable effect, so the
    /// engine may count packets addressed here instead of delivering
    /// them (see the module docs). Asked once, by
    /// [`Simulator::add_endpoint`]. An endpoint answering `true` must
    /// not touch the [`Ctx`], the RNG, or any state another party can
    /// read when a packet reaches it.
    fn discards(&self) -> bool {
        false
    }
}

/// The packed key just after every key at time `t`: entries keyed
/// below it are due by `t`.
// lint:hot-path
const fn key_through(t: Time) -> u128 {
    key(t, u64::MAX)
}

/// Sentinel event key meaning "no event pending": real keys pack a
/// finite timestamp, so the sentinel compares after every live key and
/// the head scan needs no `Option` branches.
const KEY_NONE: u128 = u128::MAX;

/// Packs an `(at, seq)` scheduling key into one `u128` whose numeric
/// order equals the lexicographic `(at, seq)` order — the per-event
/// head scan compares single integers instead of two-field tuples.
// lint:hot-path
const fn key(at: Time, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

/// The timestamp half of a packed key.
// lint:hot-path
const fn key_at(k: u128) -> Time {
    Time::from_nanos((k >> 64) as u64)
}

/// A pending timer: [`Endpoint::on_timer`] fires with `token` on
/// `endpoint` at the time packed in `key`. Ordered by `key` alone (keys
/// are unique) and reversed, so the max-heap pops the earliest timer.
#[derive(Debug, Clone, Copy)]
struct Timer {
    /// Packed `(at, seq)` dispatch key ([`key`]).
    key: u128,
    endpoint: EndpointId,
    token: u64,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// Pending engine events for one link: the single in-serializer
/// completion and the FIFO of packets in propagation. Every entry
/// carries the `(at, seq)` key it would have had in the old global
/// heap; both sequences are nondecreasing in `at` by construction
/// (serialization completes in start order; propagation delay is a
/// per-link constant), so each head is this link's earliest event.
///
/// The head keys are mirrored as packed [`key`] fields at the top
/// of the struct ([`KEY_NONE`] when empty): the per-event scan in
/// [`Simulator::peek_next`] touches only these, never the `VecDeque`
/// ring or the packets behind it.
#[derive(Debug)]
struct LinkEvents {
    /// Key of the in-serializer completion ([`KEY_NONE`] when idle).
    tx_key: u128,
    /// Key of the head of `arrivals` ([`KEY_NONE`] when empty).
    arr_key: u128,
    /// The packet in the serializer (present iff `tx_key` is live).
    tx_pkt: Option<Packet>,
    /// `(arrival time, seq, packet)` of packets in propagation, FIFO.
    arrivals: VecDeque<(Time, u64, Packet)>,
    /// Packed keys of the arrivals elided because their packets end at
    /// a discarding endpoint, FIFO and sorted like `arrivals`; drained
    /// by [`LinkEvents::pop_elided_before`] as the clock passes them.
    elided: VecDeque<u128>,
}

impl LinkEvents {
    /// Pops the elided arrivals keyed before `limit`; returns how many
    /// and the key of the last one (0 when none).
    // lint:hot-path
    fn pop_elided_before(&mut self, limit: u128) -> (u64, u128) {
        let mut n = 0;
        let mut last = 0;
        while let Some(&k) = self.elided.front() {
            if k >= limit {
                break;
            }
            self.elided.pop_front();
            n += 1;
            last = k;
        }
        (n, last)
    }
}

impl Default for LinkEvents {
    fn default() -> Self {
        LinkEvents {
            tx_key: KEY_NONE,
            arr_key: KEY_NONE,
            tx_pkt: None,
            arrivals: VecDeque::new(),
            elided: VecDeque::new(),
        }
    }
}

/// Which schedule holds the next event (resolved by [`Simulator::peek_next`]).
#[derive(Debug, Clone, Copy)]
enum Pending {
    Timer,
    TxDone(u32),
    Arrival(u32),
}

/// Deterministic engine-level tallies, maintained inline by the event
/// loop (plain integers — no atomics, no clocks) so they are a pure
/// function of the simulation inputs. Harvested by the telemetry layer
/// *after* a run; the engine itself never reads them back.
///
/// `events`, `arrival_events` and `packets_delivered` are *logical*
/// counts: an arrival elided at a discarding endpoint (module docs)
/// counts in all three, at the moment its dispatch would have, so they
/// keep the meaning and the values they had before arrivals could be
/// elided. [`EngineCounters::elided_arrivals`] says how many of them
/// were counted rather than dispatched.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounters {
    /// Total logical events: dispatched plus elided. Derived: the sum
    /// of the three per-kind event tallies.
    pub events: u64,
    /// Timer callbacks dispatched.
    pub timer_events: u64,
    /// Link serializations completed.
    pub txdone_events: u64,
    /// Propagation arrivals, dispatched or elided.
    pub arrival_events: u64,
    /// The subset of `arrival_events` elided at a discarding endpoint:
    /// counted once the clock passed them, never dispatched.
    pub elided_arrivals: u64,
    /// Packets offered to a link (one per hop entry). Derived: the sum
    /// of the three offer outcomes.
    pub packets_offered: u64,
    /// Offers that started transmitting immediately.
    pub packets_tx_started: u64,
    /// Offers that entered a link queue.
    pub packets_queued: u64,
    /// Offers dropped at a full buffer (droptail/RED).
    pub packets_dropped: u64,
    /// Packets delivered to a destination endpoint (elided arrivals
    /// included).
    pub packets_delivered: u64,
    /// Endpoint calls into the engine: every [`Ctx::send`] and
    /// [`Ctx::set_timer`], each applied inline against the simulator.
    pub endpoint_calls: u64,
    /// Past-due timer arms clamped up to `now` (identical in debug and
    /// release builds; zero in a well-behaved simulation).
    pub timer_clamps: u64,
}

/// The discrete-event simulator.
///
/// # Examples
///
/// Build a one-link world with an echoing endpoint and run it:
///
/// ```
/// use tputpred_netsim::*;
/// use tputpred_netsim::link::LinkConfig;
///
/// struct Sink(u64);
/// impl Endpoint for Sink {
///     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) { self.0 += 1; }
///     fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: u64) {}
/// }
/// struct Pulse { link: LinkId, dst: EndpointId }
/// impl Endpoint for Pulse {
///     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
///     fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
///         ctx.send(Route::direct(self.link), self.dst, 1500, Payload::Raw);
///     }
/// }
///
/// let mut sim = Simulator::new(42);
/// let link = sim.add_link(LinkConfig::new(10e6, Time::from_millis(5), 50));
/// let sink = sim.add_endpoint(Box::new(Sink(0)));
/// let pulse = sim.add_endpoint(Box::new(Pulse { link, dst: sink }));
/// sim.schedule_timer(pulse, 0, Time::ZERO);
/// sim.run_until(Time::from_secs(1));
/// assert_eq!(sim.link(link).stats().packets_out, 1);
/// ```
pub struct Simulator {
    now: Time,
    seq: u64,
    /// Pending timers; the top is the earliest.
    timers: BinaryHeap<Timer>,
    links: Vec<Link>,
    /// Parallel to `links`.
    link_events: Vec<LinkEvents>,
    endpoints: Vec<Option<Box<dyn Endpoint>>>,
    /// Parallel to `endpoints`: each one's [`Endpoint::discards`],
    /// asked once when it was added.
    discards: Vec<bool>,
    rng: StdRng,
    counters: EngineCounters,
}

impl Simulator {
    /// Creates an empty simulation with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: Time::ZERO,
            seq: 0,
            timers: BinaryHeap::new(),
            links: Vec::new(),
            link_events: Vec::new(),
            endpoints: Vec::new(),
            discards: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            counters: EngineCounters::default(),
        }
    }

    /// Adds a link; returns its id.
    pub fn add_link(&mut self, config: LinkConfig) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(config));
        self.link_events.push(LinkEvents::default());
        id
    }

    /// Adds an endpoint; returns its id.
    pub fn add_endpoint(&mut self, endpoint: Box<dyn Endpoint>) -> EndpointId {
        let id = EndpointId(self.endpoints.len() as u32);
        self.discards.push(endpoint.discards());
        self.endpoints.push(Some(endpoint));
        id
    }

    /// Read access to a link (its config and statistics).
    ///
    /// # Panics
    ///
    /// Panics on an id from another simulator.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Deterministic engine-level tallies (events by kind, packet
    /// offer outcomes, endpoint calls, timer clamps). The two
    /// aggregate tallies are derived here rather than double-counted in
    /// the event loop.
    pub fn counters(&self) -> EngineCounters {
        let mut c = self.counters;
        c.events = c.timer_events + c.txdone_events + c.arrival_events;
        c.packets_offered = c.packets_tx_started + c.packets_queued + c.packets_dropped;
        c
    }

    /// Arms a timer on `endpoint` from outside the simulation (drivers use
    /// this to bootstrap: endpoints themselves can only arm timers from
    /// within callbacks). A past-due `at` is clamped to `now` (counted in
    /// [`EngineCounters::timer_clamps`]) — identically in debug and
    /// release builds.
    ///
    /// # Panics
    ///
    /// Panics on an endpoint id this simulator did not hand out.
    pub fn schedule_timer(&mut self, endpoint: EndpointId, token: u64, at: Time) {
        let n = self.endpoints.len();
        assert!(
            (endpoint.0 as usize) < n,
            "schedule_timer: endpoint {} is not in this simulator ({n} endpoints)",
            endpoint.0
        );
        self.push_timer(endpoint, token, at);
    }

    /// Arms a timer: clamps `at` to `now`, takes the next `seq` and
    /// pushes the keyed entry onto the timer heap.
    // lint:hot-path
    fn push_timer(&mut self, endpoint: EndpointId, token: u64, at: Time) {
        let at = self.clamp_to_now(at);
        let seq = self.next_seq();
        // lint:allow(hot-path-alloc): the timer heap keeps its capacity for the whole run and holds only the pending timers (about 1400 at most)
        self.timers.push(Timer {
            key: key(at, seq),
            endpoint,
            token,
        });
    }

    /// Allocates the next global scheduling sequence number — the FIFO
    /// tie-break for same-timestamp events, assigned in exactly the
    /// order the old heap engine pushed.
    // lint:hot-path
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Clamps a timer fire time to `now`, counting the clamp. Keeps
    /// release and debug replays identical where a `debug_assert!` used
    /// to let release builds enqueue past-due timers.
    // lint:hot-path
    fn clamp_to_now(&mut self, at: Time) -> Time {
        if at < self.now {
            self.counters.timer_clamps += 1;
            self.now
        } else {
            at
        }
    }

    /// The packed key and source of the earliest pending event — a
    /// pure scan over the timer heap's top and the per-link head keys
    /// ([`KEY_NONE`] sentinels mean no branches on emptiness).
    // lint:hot-path
    fn peek_next(&self) -> Option<(u128, Pending)> {
        let mut best = self.timers.peek().map_or(KEY_NONE, |t| t.key);
        let mut which = Pending::Timer;
        for (i, le) in self.link_events.iter().enumerate() {
            if le.tx_key < best {
                best = le.tx_key;
                which = Pending::TxDone(i as u32);
            }
            if le.arr_key < best {
                best = le.arr_key;
                which = Pending::Arrival(i as u32);
            }
        }
        if best == KEY_NONE {
            None
        } else {
            Some((best, which))
        }
    }

    /// Dispatches a single event. Returns `false` when no events are
    /// pending. Private: with arrivals elided, one call is not one
    /// logical event, and only the run loops settle the elided arrivals
    /// still pending when they return.
    // lint:hot-path
    fn step(&mut self) -> bool {
        match self.peek_next() {
            Some((_, pending)) => {
                self.dispatch(pending);
                true
            }
            None => false,
        }
    }

    /// Pops and executes the event `peek_next` resolved. The clock only
    /// moves forward (`max`): a clamped past-due entry must not rewind
    /// it.
    // lint:hot-path
    fn dispatch(&mut self, pending: Pending) {
        match pending {
            Pending::Timer => {
                if let Some(t) = self.timers.pop() {
                    self.now = self.now.max(key_at(t.key));
                    self.counters.timer_events += 1;
                    self.call_endpoint(t.endpoint, |ep, ctx| ep.on_timer(ctx, t.token));
                }
            }
            Pending::TxDone(i) => {
                let li = i as usize;
                let le = &mut self.link_events[li];
                if let Some(packet) = le.tx_pkt.take() {
                    let at = key_at(le.tx_key);
                    le.tx_key = KEY_NONE;
                    self.now = self.now.max(at);
                    self.counters.txdone_events += 1;
                    let l = &mut self.links[li];
                    let next = l.finish_tx(&packet, self.now);
                    let delay = l.delay();
                    if let Some((next_pkt, done)) = next {
                        // Seq order matches the old heap engine: the
                        // follow-on TxDone was pushed before the arrival.
                        let seq = self.next_seq();
                        let le = &mut self.link_events[li];
                        le.tx_key = key(done, seq);
                        le.tx_pkt = Some(next_pkt);
                    }
                    let mut sent = packet;
                    sent.advance_hop();
                    let seq = self.next_seq();
                    let arrive = self.now + delay;
                    let elide = sent.next_hop().is_none()
                        && self.discards.get(sent.dst.0 as usize) == Some(&true);
                    let le = &mut self.link_events[li];
                    if elide {
                        // Unobserved delivery: keep only the key. The
                        // ones already due are settled first, so the
                        // FIFO holds only packets in propagation.
                        let (due, _) = le.pop_elided_before(key_through(self.now));
                        debug_assert!(
                            le.elided.back() < Some(&key(arrive, seq)),
                            "elided FIFO out of order"
                        );
                        // lint:allow(hot-path-alloc): per-link elided-arrival FIFO keeps its capacity for the whole run and is drained to the packets in propagation on every push
                        le.elided.push_back(key(arrive, seq));
                        self.count_elided(due);
                    } else {
                        if let Some(&(tail_at, _, _)) = le.arrivals.back() {
                            debug_assert!(tail_at <= arrive, "arrival FIFO out of order");
                        } else {
                            le.arr_key = key(arrive, seq);
                        }
                        // lint:allow(hot-path-alloc): per-link arrival FIFO keeps its capacity for the whole run and holds only the packets in propagation
                        le.arrivals.push_back((arrive, seq, sent));
                    }
                }
            }
            Pending::Arrival(i) => {
                let le = &mut self.link_events[i as usize];
                if let Some((at, _seq, packet)) = le.arrivals.pop_front() {
                    le.arr_key = le.arrivals.front().map_or(KEY_NONE, |&(a, s, _)| key(a, s));
                    self.now = self.now.max(at);
                    self.counters.arrival_events += 1;
                    self.route_packet(packet);
                }
            }
        }
    }

    /// Runs all events up to and including time `t`, then advances the
    /// clock to `t`. Monotonic: calling with `t` earlier than the
    /// current time dispatches nothing and leaves the clock untouched
    /// (a `debug_assert!` used to let release builds rewind it).
    pub fn run_until(&mut self, t: Time) {
        while let Some((k, pending)) = self.peek_next() {
            if key_at(k) > t {
                break;
            }
            self.dispatch(pending);
        }
        self.settle_elided(key_through(t));
        self.now = self.now.max(t);
    }

    /// Runs until the event schedule drains (all traffic quiesces). The
    /// clock ends at the last event, elided arrivals included.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
        self.settle_elided(KEY_NONE);
    }

    /// Counts `n` elided arrivals as the arrivals and deliveries their
    /// dispatch would have counted.
    // lint:hot-path
    fn count_elided(&mut self, n: u64) {
        self.counters.arrival_events += n;
        self.counters.packets_delivered += n;
        self.counters.elided_arrivals += n;
    }

    /// Settles every link's elided arrivals keyed before `limit`: counts
    /// them and moves the clock to the last one, as dispatching them
    /// would have.
    // lint:hot-path
    fn settle_elided(&mut self, limit: u128) {
        let mut n = 0;
        let mut last = 0;
        for le in &mut self.link_events {
            let (due, k) = le.pop_elided_before(limit);
            n += due;
            last = last.max(k);
        }
        if n > 0 {
            self.count_elided(n);
            self.now = self.now.max(key_at(last));
        }
    }

    /// Offers `packet` to the next link on its route, or delivers it.
    // lint:hot-path
    fn route_packet(&mut self, packet: Packet) {
        match packet.next_hop() {
            Some(link_id) => {
                let li = link_id.0 as usize;
                let link = &mut self.links[li];
                match link.offer(packet, self.now) {
                    Offer::StartTx => {
                        self.counters.packets_tx_started += 1;
                        let done = link.begin_tx(&packet, self.now);
                        let seq = self.next_seq();
                        let le = &mut self.link_events[li];
                        debug_assert!(le.tx_pkt.is_none(), "serializer already busy");
                        le.tx_key = key(done, seq);
                        le.tx_pkt = Some(packet);
                    }
                    Offer::Queued => {
                        self.counters.packets_queued += 1;
                    }
                    Offer::Dropped => {
                        self.counters.packets_dropped += 1;
                    }
                }
            }
            None => {
                self.counters.packets_delivered += 1;
                let dst = packet.dst;
                self.call_endpoint(dst, |ep, ctx| ep.on_packet(ctx, packet));
            }
        }
    }

    /// Invokes an endpoint callback with a fresh [`Ctx`]. The endpoint
    /// is lifted out of its table slot for the duration, so the
    /// callback's engine operations (which borrow the whole simulator
    /// through the [`Ctx`]) cannot re-enter it.
    // lint:hot-path
    fn call_endpoint<F>(&mut self, id: EndpointId, f: F)
    where
        F: FnOnce(&mut dyn Endpoint, &mut Ctx<'_>),
    {
        let slot = id.0 as usize;
        let mut ep = self.endpoints[slot]
            .take()
            .unwrap_or_else(|| panic!("endpoint {slot} re-entered or missing"));
        let mut ctx = Ctx {
            now: self.now,
            self_id: id,
            sim: self,
        };
        f(ep.as_mut(), &mut ctx);
        self.endpoints[slot] = Some(ep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::Sink;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records arrival times of every packet it receives.
    struct Recorder {
        arrivals: Rc<RefCell<Vec<Time>>>,
    }
    impl Endpoint for Recorder {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _p: Packet) {
            self.arrivals.borrow_mut().push(ctx.now);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: u64) {}
    }

    /// Sends `count` packets back-to-back when its timer fires.
    struct Burst {
        route: Route,
        dst: EndpointId,
        count: u32,
        size: u32,
    }
    impl Endpoint for Burst {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            for _ in 0..self.count {
                ctx.send(self.route, self.dst, self.size, Payload::Raw);
            }
        }
    }

    fn world(
        rate: f64,
        // lint:allow(units): whole-ms test grid; converted via Time::from_millis below
        delay_ms: u64,
        buffer: u32,
        burst: u32,
        size: u32,
    ) -> (Simulator, LinkId, Rc<RefCell<Vec<Time>>>) {
        let mut sim = Simulator::new(7);
        // lint:allow(units): conversion is explicit at the use site
        let link = sim.add_link(LinkConfig::new(rate, Time::from_millis(delay_ms), buffer));
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let sink = sim.add_endpoint(Box::new(Recorder {
            arrivals: Rc::clone(&arrivals),
        }));
        let src = sim.add_endpoint(Box::new(Burst {
            route: Route::direct(link),
            dst: sink,
            count: burst,
            size,
        }));
        sim.schedule_timer(src, 0, Time::ZERO);
        (sim, link, arrivals)
    }

    #[test]
    fn single_packet_arrives_after_tx_plus_propagation() {
        // 1500 B at 12 Mbps = 1 ms tx; +5 ms propagation = 6 ms.
        let (mut sim, _, arrivals) = world(12e6, 5, 50, 1, 1500);
        sim.run_until(Time::from_secs(1));
        assert_eq!(*arrivals.borrow(), vec![Time::from_millis(6)]);
    }

    #[test]
    fn back_to_back_packets_are_paced_by_serialization() {
        let (mut sim, _, arrivals) = world(12e6, 5, 50, 3, 1500);
        sim.run_until(Time::from_secs(1));
        let a = arrivals.borrow();
        assert_eq!(a.len(), 3);
        // Spaced exactly one serialization time (1 ms) apart.
        assert_eq!(a[1] - a[0], Time::from_millis(1));
        assert_eq!(a[2] - a[1], Time::from_millis(1));
    }

    #[test]
    fn droptail_loses_overflow_packets() {
        // Buffer holds two queued packets; burst of 5 → 1 in serializer,
        // 2 queued, 2 dropped.
        let (mut sim, link, arrivals) = world(12e6, 5, 2, 5, 1500);
        sim.run_until(Time::from_secs(1));
        assert_eq!(arrivals.borrow().len(), 3);
        assert_eq!(sim.link(link).stats().drops, 2);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = Simulator::new(1);
        sim.run_until(Time::from_secs(10));
        assert_eq!(sim.now(), Time::from_secs(10));
    }

    #[test]
    fn run_until_backward_is_a_monotonic_no_op() {
        // Regression (release/debug divergence): run_until(t < now) used
        // to rewind the clock in release builds. It must be a no-op that
        // neither rewinds time nor dispatches future events.
        let (mut sim, _, arrivals) = world(12e6, 5, 50, 1, 1500);
        sim.run_until(Time::from_millis(100));
        assert_eq!(arrivals.borrow().len(), 1);
        sim.run_until(Time::from_millis(3));
        assert_eq!(sim.now(), Time::from_millis(100));
        // The engine still works normally afterwards.
        sim.run_until(Time::from_secs(1));
        assert_eq!(sim.now(), Time::from_secs(1));
    }

    #[test]
    fn equal_time_events_dispatch_in_scheduling_order() {
        struct Logger {
            tag: u64,
            log: Rc<RefCell<Vec<u64>>>,
        }
        impl Endpoint for Logger {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.log.borrow_mut().push(self.tag * 100 + token);
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let a = sim.add_endpoint(Box::new(Logger {
            tag: 1,
            log: Rc::clone(&log),
        }));
        let b = sim.add_endpoint(Box::new(Logger {
            tag: 2,
            log: Rc::clone(&log),
        }));
        let t = Time::from_millis(5);
        sim.schedule_timer(b, 1, t);
        sim.schedule_timer(a, 2, t);
        sim.schedule_timer(b, 3, t);
        sim.run_until(Time::from_secs(1));
        assert_eq!(*log.borrow(), vec![201, 102, 203]);
    }

    #[test]
    fn past_due_timer_clamps_to_now_in_all_builds() {
        // Regression (release/debug divergence): arming a timer behind
        // the clock used to pass a debug_assert-only guard and dispatch
        // "in the past" in release builds. It must clamp to `now`, be
        // counted, and keep FIFO order against same-time timers — with
        // byte-identical behavior whether debug assertions are on.
        struct Logger {
            tag: u64,
            log: Rc<RefCell<Vec<u64>>>,
        }
        impl Endpoint for Logger {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.log.borrow_mut().push(self.tag * 100 + token);
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let a = sim.add_endpoint(Box::new(Logger {
            tag: 1,
            log: Rc::clone(&log),
        }));
        let b = sim.add_endpoint(Box::new(Logger {
            tag: 2,
            log: Rc::clone(&log),
        }));
        sim.schedule_timer(a, 1, Time::from_millis(5));
        sim.run_until(Time::from_millis(10));
        // Late by 7 ms: clamps to now = 10 ms.
        sim.schedule_timer(a, 2, Time::from_millis(3));
        // Same fire time, armed after: must dispatch after the clamped one.
        sim.schedule_timer(b, 3, Time::from_millis(10));
        sim.run_until(Time::from_secs(1));
        assert_eq!(*log.borrow(), vec![101, 102, 203]);
        assert_eq!(sim.counters().timer_clamps, 1);
    }

    #[test]
    fn late_ctx_timer_clamps_and_fires_at_now() {
        // The same clamp via the endpoint-facing path (Ctx::set_timer
        // from inside a callback).
        struct LateArmer {
            fired_at: Rc<RefCell<Vec<Time>>>,
        }
        impl Endpoint for LateArmer {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                self.fired_at.borrow_mut().push(ctx.now);
                if token == 0 {
                    // Asks for the past; the engine must clamp to now.
                    ctx.set_timer(1, Time::ZERO);
                }
            }
        }
        let fired_at = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let ep = sim.add_endpoint(Box::new(LateArmer {
            fired_at: Rc::clone(&fired_at),
        }));
        sim.schedule_timer(ep, 0, Time::from_millis(20));
        sim.run_until(Time::from_secs(1));
        let t20 = Time::from_millis(20);
        assert_eq!(*fired_at.borrow(), vec![t20, t20]);
        assert_eq!(sim.counters().timer_clamps, 1);
    }

    #[test]
    fn far_future_timers_fire_on_time_and_in_order() {
        // Timers armed out of order, seconds to a minute ahead (a 60 s
        // RTO-style timer among them), fire exactly on time and in
        // time order.
        struct Logger {
            log: Rc<RefCell<Vec<(u64, Time)>>>,
        }
        impl Endpoint for Logger {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                self.log.borrow_mut().push((token, ctx.now));
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let ep = sim.add_endpoint(Box::new(Logger {
            log: Rc::clone(&log),
        }));
        sim.schedule_timer(ep, 0, Time::from_secs(60));
        sim.schedule_timer(ep, 1, Time::from_millis(100));
        sim.schedule_timer(ep, 2, Time::from_secs(2));
        sim.run_to_quiescence();
        assert_eq!(
            *log.borrow(),
            vec![
                (1, Time::from_millis(100)),
                (2, Time::from_secs(2)),
                (0, Time::from_secs(60)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "endpoint 3 is not in this simulator")]
    fn schedule_timer_rejects_a_foreign_endpoint() {
        let mut sim = Simulator::new(1);
        let (sink, _) = Sink::new();
        sim.add_endpoint(Box::new(sink));
        sim.schedule_timer(EndpointId(3), 0, Time::ZERO);
    }

    #[test]
    fn multi_hop_route_traverses_both_links() {
        let mut sim = Simulator::new(1);
        let l1 = sim.add_link(LinkConfig::new(12e6, Time::from_millis(5), 50));
        let l2 = sim.add_link(LinkConfig::new(12e6, Time::from_millis(7), 50));
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let sink = sim.add_endpoint(Box::new(Recorder {
            arrivals: Rc::clone(&arrivals),
        }));
        let src = sim.add_endpoint(Box::new(Burst {
            route: Route::new(&[l1, l2]),
            dst: sink,
            count: 1,
            size: 1500,
        }));
        sim.schedule_timer(src, 0, Time::ZERO);
        sim.run_until(Time::from_secs(1));
        // 1 ms tx + 5 ms + 1 ms tx + 7 ms = 14 ms.
        assert_eq!(*arrivals.borrow(), vec![Time::from_millis(14)]);
        assert_eq!(sim.link(l1).stats().packets_out, 1);
        assert_eq!(sim.link(l2).stats().packets_out, 1);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| -> Vec<Time> {
            let (mut sim, _, arrivals) = world(12e6, 5, 2, 5, 1500);
            let _ = seed; // world is deterministic regardless; assert replay
            sim.run_until(Time::from_secs(1));
            let a = arrivals.borrow().clone();
            a
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn elided_fifo_holds_only_packets_in_propagation() {
        // 4000 packets of 1.2 ms each (1500 B at 10 Mbps) serialize back
        // to back for 4.8 s with no timer in between, inside one
        // `run_until`: only the per-push settling can keep the FIFO short.
        let (rate_bps, delay, count) = (10e6, Time::from_millis(20), 4000);
        let mut sim = Simulator::new(3);
        let link = sim.add_link(LinkConfig::new(rate_bps, delay, count));
        let (sink, _) = Sink::new();
        let sink = sim.add_endpoint(Box::new(sink));
        let burst = sim.add_endpoint(Box::new(Burst {
            route: Route::direct(link),
            dst: sink,
            count,
            size: 1500,
        }));
        sim.schedule_timer(burst, 0, Time::ZERO);
        sim.run_until(Time::from_secs(10));
        let c = sim.counters();
        assert_eq!(c.elided_arrivals, u64::from(count), "{c:?}");
        assert_eq!(c.packets_delivered, u64::from(count));
        let tx = Time::tx_time(1500, rate_bps);
        let in_propagation = (delay.as_nanos() / tx.as_nanos() + 1) as usize;
        let capacity = sim.link_events[link.0 as usize].elided.capacity();
        assert!(
            capacity <= (2 * in_propagation).max(4),
            "elided FIFO grew to {capacity} entries; at most {in_propagation} are ever in propagation"
        );
    }

    #[test]
    fn engine_counters_reconcile_with_link_stats() {
        // Burst of 5 into a 2-deep buffer: 1 starts tx, 2 queue, 2 drop.
        let (mut sim, link, arrivals) = world(12e6, 5, 2, 5, 1500);
        sim.run_to_quiescence();
        let c = sim.counters();
        assert_eq!(c.packets_offered, 5);
        assert_eq!(c.packets_tx_started, 1);
        assert_eq!(c.packets_queued, 2);
        assert_eq!(c.packets_dropped, 2);
        assert_eq!(c.packets_dropped, sim.link(link).stats().drops);
        assert_eq!(c.packets_delivered, arrivals.borrow().len() as u64);
        assert_eq!(c.txdone_events, sim.link(link).stats().packets_out);
        assert_eq!(
            c.events,
            c.timer_events + c.txdone_events + c.arrival_events
        );
        assert_eq!(c.timer_clamps, 0);
        // Replay: counters are part of the deterministic output.
        let (mut sim2, _, _) = world(12e6, 5, 2, 5, 1500);
        sim2.run_to_quiescence();
        assert_eq!(sim2.counters(), c);
    }

    #[test]
    fn quiescence_drains_all_events() {
        let (mut sim, link, arrivals) = world(12e6, 5, 50, 4, 1500);
        sim.run_to_quiescence();
        assert_eq!(arrivals.borrow().len(), 4);
        assert_eq!(sim.link(link).stats().packets_out, 4);
        assert!(!sim.step(), "schedule is empty");
    }
}
