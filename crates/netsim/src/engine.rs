//! The discrete-event engine: scheduler, endpoint protocol, packet
//! forwarding.
//!
//! One [`Simulator`] owns the links, the endpoints, the event schedule,
//! and a seeded RNG. Endpoints implement [`Endpoint`] and interact with
//! the world exclusively through a [`Ctx`] handed to their callbacks —
//! its `send`/`set_timer`/`arm` operations apply to the engine immediately, in
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
//! three by event class:
//!
//! * **Timers that will fire live** sit in one `BinaryHeap`. An
//!   endpoint that keeps moving one deadline (TCP's retransmission and
//!   delayed-ACK timers) arms a [`TimerSlot`] through [`Ctx::arm`]:
//!   the slot keeps its one live key, and a re-arm reaches the heap only
//!   when it sorts before every entry the slot already has there. A
//!   slot entry that pops without being the live key calls no endpoint;
//!   it re-pushes the live key if no later slot entry still precedes
//!   it. So the heap holds a few dozen timers, not one per ACK.
//! * **Open-loop sources** ([`crate::sources::Source`], added by
//!   [`Simulator::add_source`]) are not endpoints. Each keeps one
//!   pending key in a lane beside the heap, and the lane's earliest key
//!   is cached; a firing runs the generator inline and re-keys it.
//! * **Link events** never enter a queue at all. Each link has at most
//!   one pending serialization completion (the [`Link`] holds the one
//!   packet it serializes; the engine keeps only the completion's key)
//!   and a FIFO of in-flight arrivals (propagation delay is constant per
//!   link, so arrival order equals transmission order and the deque
//!   stays sorted by construction).
//!
//! A step takes the minimum key across the heap top, the lane's cached
//! minimum and the per-link heads — a handful of integer compares for
//! the simulator's typical two links.
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
//! # Counted, not dispatched (DESIGN.md §14)
//!
//! Two kinds of event are counted without being dispatched. A packet
//! whose last hop ends at an endpoint that [discards]
//! ([`Endpoint::discards`]) never becomes an arrival event, and a slot
//! arm that is re-armed or disarmed before its time never fires. The
//! engine keeps each one's packed key, with its kind, in one unordered
//! store of *ghosts*, and *settles* a ghost once the event order passes
//! its key: an arrival counts in `arrival_events`, `packets_delivered`
//! and `elided_arrivals`, a timer in `timer_events` and
//! `elided_timers`, as their dispatch (or the stale firing endpoints
//! used to ignore) would have counted them. The store is settled up to
//! `now` whenever it has doubled since it was last settled, so it holds
//! only ghosts still ahead; [`Simulator::run_until`] settles everything
//! due by its `t`, and [`Simulator::run_to_quiescence`] everything, the
//! clock ending at the last one. Counters are read only between runs,
//! so they read exactly what dispatching the ghosts would have left.
//!
//! [discards]: Endpoint::discards

use crate::link::{Link, LinkConfig, LinkId, Offer};
use crate::packet::{Packet, Payload, Route};
use crate::sources::Source;
use crate::time::Time;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Identifies an endpoint within a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EndpointId(pub u32);

impl EndpointId {
    /// The `src` of packets from open-loop sources
    /// ([`Simulator::add_source`]): sources are not endpoints, and
    /// nothing answers cross traffic.
    pub const OPEN_LOOP: EndpointId = EndpointId(u32::MAX);
}

/// A re-armable timer an endpoint owns: at most one arm is live, and
/// re-arming or disarming it supersedes the previous arm, which then
/// never reaches the endpoint. Arm it with [`Ctx::arm`], cancel it with
/// [`Ctx::disarm`]. The engine keeps the slot's state; the first arm
/// binds the slot to the arming endpoint (and simulator), and a slot
/// must not be armed by another.
#[derive(Debug)]
pub struct TimerSlot {
    /// Index into the engine's slot table ([`TimerSlot::UNBOUND`] until
    /// the first arm).
    index: u32,
}

impl TimerSlot {
    const UNBOUND: u32 = u32::MAX;

    /// A slot that was never armed.
    pub const fn new() -> Self {
        TimerSlot {
            index: Self::UNBOUND,
        }
    }
}

impl Default for TimerSlot {
    fn default() -> Self {
        Self::new()
    }
}

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

    /// Arms a one-shot timer: [`Endpoint::on_timer`] fires with `token`
    /// at absolute time `at`. Such a timer cannot be cancelled or moved;
    /// a deadline that moves (a retransmission timeout, a delayed ACK)
    /// belongs in a [`TimerSlot`] armed with [`Ctx::arm`]. A past-due
    /// `at` is clamped to the current time (see
    /// [`EngineCounters::timer_clamps`]).
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

    /// Arms `slot` to fire [`Endpoint::on_timer`] with `token` at
    /// absolute time `at`, superseding the slot's live arm, if any. The
    /// arm takes its `(at, seq)` key here, as [`Ctx::set_timer`] does,
    /// and a past-due `at` is clamped the same way.
    ///
    /// # Panics
    ///
    /// Panics if another endpoint armed `slot` first.
    // lint:hot-path
    pub fn arm(&mut self, slot: &mut TimerSlot, token: u64, at: Time) {
        self.sim.counters.endpoint_calls += 1;
        self.sim.arm_slot(slot, self.self_id, token, at);
    }

    /// Cancels `slot`'s live arm, if any; it never fires. Not an engine
    /// call in [`EngineCounters::endpoint_calls`]: nothing is scheduled.
    // lint:hot-path
    pub fn disarm(&mut self, slot: &mut TimerSlot) {
        if slot.index != TimerSlot::UNBOUND {
            self.sim.disarm_slot(slot.index);
        }
    }

    /// Whether `slot` has a live arm. A slot is disarmed while its own
    /// firing runs.
    // lint:hot-path
    pub fn is_armed(&self, slot: &TimerSlot) -> bool {
        slot.index != TimerSlot::UNBOUND && self.sim.slots[slot.index as usize].live != KEY_NONE
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.sim.rng
    }
}

/// A protocol endpoint: TCP sender/receiver, probe, sink, reflector.
/// (Open-loop traffic sources are not endpoints; see
/// [`Simulator::add_source`].)
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

/// A pending heap timer, fired at the time packed in `key`. Ordered by
/// `key` alone (keys are unique) and reversed, so the max-heap pops the
/// earliest timer.
#[derive(Debug, Clone, Copy)]
struct Timer {
    /// Packed `(at, seq)` dispatch key ([`key`]).
    key: u128,
    owner: Owner,
}

/// Whose timer a heap entry is.
#[derive(Debug, Clone, Copy)]
enum Owner {
    /// A one-shot timer ([`Ctx::set_timer`], [`Simulator::schedule_timer`]):
    /// [`Endpoint::on_timer`] fires with `token` on `endpoint`.
    Once { endpoint: EndpointId, token: u64 },
    /// An entry of the slot at this index of the slot table; it fires
    /// only if it is the slot's live key, with the slot's token.
    Slot(u32),
}

/// The engine's half of a [`TimerSlot`].
#[derive(Debug)]
struct SlotState {
    endpoint: EndpointId,
    /// The token of the latest arm.
    token: u64,
    /// Key of the live arm ([`KEY_NONE`] when disarmed or fired).
    live: u128,
    /// The keys of this slot's entries on the timer heap, descending.
    /// An arm is pushed only when it sorts before all of them, and the
    /// heap pops the earliest first, so this is a stack: the last key
    /// is the next of the slot's entries to pop.
    on_heap: Vec<u128>,
}

/// Size below which the store of ghosts is not settled before it
/// doubles (see the module docs).
const SETTLE_MIN: usize = 64;

/// What a ghost (an event counted, not dispatched; module docs) would
/// have been.
#[derive(Debug, Clone, Copy)]
enum Ghost {
    /// An arrival at a discarding endpoint.
    Arrival,
    /// A superseded slot arm.
    Timer,
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

/// Pending engine events for one link: the key of the serialization
/// completion of the packet its [`Link`] holds, and the FIFO of packets
/// in propagation. Every entry carries the `(at, seq)` key it would
/// have had in the old global heap; both sequences are nondecreasing in
/// `at` by construction (serialization completes in start order;
/// propagation delay is a per-link constant), so each head is this
/// link's earliest event.
///
/// The head keys are packed [`key`] fields at the top of the struct
/// ([`KEY_NONE`] when empty): the per-event scan in
/// [`Simulator::peek_next`] touches only these, never the `VecDeque`
/// ring or the packets behind it.
#[derive(Debug)]
struct LinkEvents {
    /// Key of the serialization completion ([`KEY_NONE`] when idle).
    tx_key: u128,
    /// Key of the head of `arrivals` ([`KEY_NONE`] when empty).
    arr_key: u128,
    /// `(arrival time, seq, packet)` of packets in propagation, FIFO.
    arrivals: VecDeque<(Time, u64, Packet)>,
}

impl Default for LinkEvents {
    fn default() -> Self {
        LinkEvents {
            tx_key: KEY_NONE,
            arr_key: KEY_NONE,
            arrivals: VecDeque::new(),
        }
    }
}

/// Which schedule holds the next event (resolved by [`Simulator::peek_next`]).
#[derive(Debug, Clone, Copy)]
enum Pending {
    Timer,
    Source(u32),
    TxDone(u32),
    Arrival(u32),
}

/// Deterministic engine-level tallies, maintained inline by the event
/// loop (plain integers — no atomics, no clocks) so they are a pure
/// function of the simulation inputs. Harvested by the telemetry layer
/// *after* a run; the engine itself never reads them back.
///
/// `events`, `timer_events`, `arrival_events` and `packets_delivered`
/// are *logical* counts: an event counted, not dispatched (module docs)
/// counts in them once the event order passes its key, as its dispatch
/// would have, so they keep the meaning and the values they had when
/// every event was dispatched. [`EngineCounters::elided_arrivals`] and
/// [`EngineCounters::elided_timers`] say how many of them were counted
/// rather than dispatched.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounters {
    /// Total logical events: dispatched plus elided. Derived: the sum
    /// of the three per-kind event tallies.
    pub events: u64,
    /// Timer events: heap timers and source firings dispatched, plus
    /// superseded slot arms the event order passed.
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
    /// Endpoint calls into the engine: every [`Ctx::send`],
    /// [`Ctx::set_timer`] and [`Ctx::arm`], each applied inline against
    /// the simulator, and a source firing's send and re-key, as the
    /// sources' own calls once were.
    pub endpoint_calls: u64,
    /// Past-due timer arms clamped up to `now` (identical in debug and
    /// release builds; zero in a well-behaved simulation).
    pub timer_clamps: u64,
    /// Entries pushed onto the timer heap: one-shot timers, slot arms
    /// that sort before the slot's entries, and live keys re-pushed
    /// behind a superseded entry. Observation only.
    pub timer_pushes: u64,
    /// The subset of `timer_events` that are superseded slot arms:
    /// counted once the event order passed them, never dispatched.
    pub elided_timers: u64,
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
    /// The engine's half of every bound [`TimerSlot`].
    slots: Vec<SlotState>,
    /// Keys and kinds of the events counted, not dispatched, that the
    /// event order has not yet passed (unordered; module docs).
    ghosts: Vec<(u128, Ghost)>,
    /// `ghosts` is settled up to `now` when it reaches this length.
    settle_at: usize,
    /// The open-loop sources, fired from the lane.
    sources: Vec<Source>,
    /// Parallel to `sources`: each one's pending key ([`KEY_NONE`] once
    /// it stopped).
    source_keys: Vec<u128>,
    /// The least of `source_keys`, and its index.
    lane_key: u128,
    lane_index: u32,
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
            slots: Vec::new(),
            ghosts: Vec::new(),
            settle_at: SETTLE_MIN,
            sources: Vec::new(),
            source_keys: Vec::new(),
            lane_key: KEY_NONE,
            lane_index: 0,
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

    /// Adds an open-loop source that first fires at `start` (clamped to
    /// `now`, as [`Simulator::schedule_timer`] clamps). The source's
    /// first key takes its `seq` here, where the bootstrap timer of a
    /// timer-driven source took it.
    pub fn add_source(&mut self, source: impl Into<Source>, start: Time) {
        let at = self.clamp_to_now(start);
        let k = key(at, self.next_seq());
        self.sources.push(source.into());
        self.source_keys.push(k);
        self.refresh_lane();
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

    /// Arms a one-shot timer: clamps `at` to `now`, takes the next `seq`
    /// and pushes the keyed entry onto the timer heap.
    // lint:hot-path
    fn push_timer(&mut self, endpoint: EndpointId, token: u64, at: Time) {
        let at = self.clamp_to_now(at);
        let k = key(at, self.next_seq());
        self.push_heap(k, Owner::Once { endpoint, token });
    }

    /// Pushes one entry onto the timer heap.
    // lint:hot-path
    fn push_heap(&mut self, key: u128, owner: Owner) {
        self.counters.timer_pushes += 1;
        // lint:allow(hot-path-alloc): the timer heap keeps its capacity for the whole run and holds only the timers that will fire live, plus a few superseded slot entries
        self.timers.push(Timer { key, owner });
    }

    /// Arms `slot` for `endpoint` (see [`Ctx::arm`]): clamps `at`, takes
    /// the next `seq`, supersedes the live arm and pushes the new key
    /// only if it sorts before every entry the slot has on the heap.
    // lint:hot-path
    fn arm_slot(&mut self, slot: &mut TimerSlot, endpoint: EndpointId, token: u64, at: Time) {
        let at = self.clamp_to_now(at);
        let k = key(at, self.next_seq());
        if slot.index == TimerSlot::UNBOUND {
            slot.index = self.bind_slot(endpoint);
        }
        let s = &mut self.slots[slot.index as usize];
        assert!(
            s.endpoint == endpoint,
            "timer slot of endpoint {} armed by endpoint {}",
            s.endpoint.0,
            endpoint.0
        );
        s.token = token;
        let superseded = std::mem::replace(&mut s.live, k);
        let push = s.on_heap.last().is_none_or(|&first| k < first);
        if push {
            // lint:allow(hot-path-alloc): the slot's stack of heap keys keeps its capacity and holds a few entries at most
            s.on_heap.push(k);
            self.push_heap(k, Owner::Slot(slot.index));
        }
        if superseded != KEY_NONE {
            self.ghost(superseded, Ghost::Timer);
        }
    }

    /// Adds a disarmed slot of `endpoint` to the slot table (a slot's
    /// first arm); returns its index.
    fn bind_slot(&mut self, endpoint: EndpointId) -> u32 {
        self.slots.push(SlotState {
            endpoint,
            token: 0,
            live: KEY_NONE,
            on_heap: Vec::new(),
        });
        (self.slots.len() - 1) as u32
    }

    /// Cancels the live arm of the slot at `index`, if any.
    // lint:hot-path
    fn disarm_slot(&mut self, index: u32) {
        let superseded = std::mem::replace(&mut self.slots[index as usize].live, KEY_NONE);
        if superseded != KEY_NONE {
            self.ghost(superseded, Ghost::Timer);
        }
    }

    /// Keeps the key of an event that will not be dispatched, to count
    /// it once the event order passes it. The ghosts already behind the
    /// clock are settled each time the store doubles, so it holds only
    /// ghosts still ahead.
    // lint:hot-path
    fn ghost(&mut self, k: u128, kind: Ghost) {
        // lint:allow(hot-path-alloc): the store keeps its capacity and is settled to the ghosts still ahead whenever it doubles
        self.ghosts.push((k, kind));
        if self.ghosts.len() >= self.settle_at {
            self.settle(key_through(self.now));
        }
    }

    /// Counts the ghosts keyed before `limit` as the events they would
    /// have been; returns the last of their keys (0 when none).
    // lint:hot-path
    fn settle(&mut self, limit: u128) -> u128 {
        let (mut arrivals, mut timers, mut last) = (0, 0, 0);
        self.ghosts.retain(|&(k, kind)| {
            let due = k < limit;
            if due {
                match kind {
                    Ghost::Arrival => arrivals += 1,
                    Ghost::Timer => timers += 1,
                }
                last = last.max(k);
            }
            !due
        });
        self.counters.arrival_events += arrivals;
        self.counters.packets_delivered += arrivals;
        self.counters.elided_arrivals += arrivals;
        self.counters.timer_events += timers;
        self.counters.elided_timers += timers;
        self.settle_at = (2 * self.ghosts.len()).max(SETTLE_MIN);
        last
    }

    /// A slot entry keyed `k` popped off the heap: returns the endpoint
    /// and token to fire if `k` is the slot's live key (which disarms
    /// the slot). Otherwise `k` was superseded, and nothing fires; the
    /// live key is pushed if none of the slot's remaining entries comes
    /// before it, and the entry is dropped if one does.
    // lint:hot-path
    fn pop_slot_entry(&mut self, index: u32, k: u128) -> Option<(EndpointId, u64)> {
        let s = &mut self.slots[index as usize];
        s.on_heap.pop();
        if s.live == k {
            s.live = KEY_NONE;
            return Some((s.endpoint, s.token));
        }
        let live = s.live;
        if live != KEY_NONE && s.on_heap.last().is_none_or(|&first| live < first) {
            // lint:allow(hot-path-alloc): the slot's stack of heap keys keeps its capacity and holds a few entries at most
            s.on_heap.push(live);
            self.push_heap(live, Owner::Slot(index));
        }
        None
    }

    /// Re-reads the lane's earliest source key (a trace has a handful
    /// of sources).
    // lint:hot-path
    fn refresh_lane(&mut self) {
        let mut best = KEY_NONE;
        let mut index = 0;
        for (i, &k) in self.source_keys.iter().enumerate() {
            if k < best {
                best = k;
                index = i;
            }
        }
        self.lane_key = best;
        self.lane_index = index as u32;
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
    /// pure scan over the timer heap's top, the source lane's cached
    /// minimum and the per-link head keys ([`KEY_NONE`] sentinels mean
    /// no branches on emptiness).
    // lint:hot-path
    fn peek_next(&self) -> Option<(u128, Pending)> {
        let mut best = self.timers.peek().map_or(KEY_NONE, |t| t.key);
        let mut which = Pending::Timer;
        if self.lane_key < best {
            best = self.lane_key;
            which = Pending::Source(self.lane_index);
        }
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
    /// pending. Private: with events counted, not dispatched, one call
    /// is not one logical event, and only the run loops settle the
    /// ghosts still pending when they return.
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
    /// it. A superseded slot entry dispatches nothing (its arm is
    /// counted as a ghost).
    // lint:hot-path
    fn dispatch(&mut self, pending: Pending) {
        match pending {
            Pending::Timer => {
                if let Some(t) = self.timers.pop() {
                    let (endpoint, token) = match t.owner {
                        Owner::Once { endpoint, token } => (endpoint, token),
                        Owner::Slot(index) => match self.pop_slot_entry(index, t.key) {
                            Some(fire) => fire,
                            None => return,
                        },
                    };
                    self.now = self.now.max(key_at(t.key));
                    self.counters.timer_events += 1;
                    self.call_endpoint(endpoint, |ep, ctx| ep.on_timer(ctx, token));
                }
            }
            Pending::Source(i) => self.fire_source(i as usize),
            Pending::TxDone(i) => {
                let li = i as usize;
                let le = &mut self.link_events[li];
                self.now = self.now.max(key_at(le.tx_key));
                le.tx_key = KEY_NONE;
                let link = &mut self.links[li];
                let delay = link.delay();
                if let Some((mut sent, next)) = link.finish_tx(self.now) {
                    self.counters.txdone_events += 1;
                    if let Some(done) = next {
                        // Seq order matches the old heap engine: the
                        // follow-on TxDone was pushed before the arrival.
                        let seq = self.next_seq();
                        self.link_events[li].tx_key = key(done, seq);
                    }
                    sent.advance_hop();
                    let seq = self.next_seq();
                    let arrive = self.now + delay;
                    if sent.next_hop().is_none()
                        && self.discards.get(sent.dst.0 as usize) == Some(&true)
                    {
                        // Unobserved delivery: keep only the key.
                        self.ghost(key(arrive, seq), Ghost::Arrival);
                    } else {
                        let le = &mut self.link_events[li];
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

    /// Fires source `i` of the lane at its key, as its timer once did:
    /// one timer event; the packet routed first (its `StartTx` takes the
    /// next `seq`), then the source's next key takes the one after. The
    /// generator's draws come from the simulation RNG, which routing
    /// never touches. Each send and re-key counts as the endpoint call
    /// it was; the last firing, at the source's stop, does neither.
    // lint:hot-path
    fn fire_source(&mut self, i: usize) {
        self.now = self.now.max(key_at(self.source_keys[i]));
        self.counters.timer_events += 1;
        let firing = self.sources[i].fire(self.now, &mut self.rng);
        if let Some(packet) = firing.packet {
            self.counters.endpoint_calls += 1;
            self.route_packet(packet);
        }
        self.source_keys[i] = match firing.next {
            Some(at) => {
                self.counters.endpoint_calls += 1;
                key(at, self.next_seq())
            }
            None => KEY_NONE,
        };
        self.refresh_lane();
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
        self.settle(key_through(t));
        self.now = self.now.max(t);
    }

    /// Runs until the event schedule drains (all traffic quiesces). The
    /// clock ends at the last event, events counted but not dispatched
    /// included.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
        let last = self.settle(KEY_NONE);
        self.now = self.now.max(key_at(last));
    }

    /// Offers `packet` to the next link on its route, or delivers it.
    // lint:hot-path
    fn route_packet(&mut self, packet: Packet) {
        match packet.next_hop() {
            Some(link_id) => {
                let li = link_id.0 as usize;
                match self.links[li].offer(packet, self.now) {
                    Offer::StartTx(done) => {
                        self.counters.packets_tx_started += 1;
                        let seq = self.next_seq();
                        self.link_events[li].tx_key = key(done, seq);
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

    /// Sends `count` packets to itself over `link`, one per arrival,
    /// re-arming its slot `rto` ahead on each send — a sender's
    /// retransmission timer re-armed on every ACK.
    struct Rearmer {
        link: LinkId,
        rto: Time,
        slot: TimerSlot,
        left: u32,
        fired: Rc<RefCell<Vec<(Time, u64)>>>,
    }
    impl Rearmer {
        fn send(&mut self, ctx: &mut Ctx<'_>) {
            if self.left == 0 {
                return;
            }
            self.left -= 1;
            ctx.send(Route::direct(self.link), ctx.self_id, 1500, Payload::Raw);
            let at = ctx.now + self.rto;
            ctx.arm(&mut self.slot, u64::from(self.left), at);
        }
    }
    impl Endpoint for Rearmer {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _p: Packet) {
            self.send(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if token == u64::MAX {
                self.send(ctx);
            } else {
                self.fired.borrow_mut().push((ctx.now, token));
            }
        }
    }

    #[test]
    fn ghost_store_holds_only_ghosts_still_ahead() {
        // Inside one `run_until`, 4000 packets of 1.2 ms each (1500 B at
        // 10 Mbps) serialize back to back into a discarding sink for
        // 4.8 s, and 8000 sends 2.2 ms apart (1.2 ms serialization, 1 ms
        // propagation) re-arm a 1 s timer: only the settling as the
        // store doubles keeps it near the ~17 arrivals in propagation
        // and ~455 arms a second ahead.
        let (burst, sends, rto) = (4000, 8000, Time::from_secs(1));
        let (rate_bps, delay) = (10e6, Time::from_millis(20));
        let mut sim = Simulator::new(3);
        let to_sink = sim.add_link(LinkConfig::new(rate_bps, delay, burst));
        let (sink, _) = Sink::new();
        let sink = sim.add_endpoint(Box::new(sink));
        let burster = sim.add_endpoint(Box::new(Burst {
            route: Route::direct(to_sink),
            dst: sink,
            count: burst,
            size: 1500,
        }));
        let loopback = sim.add_link(LinkConfig::new(rate_bps, Time::from_millis(1), 10));
        let fired = Rc::new(RefCell::new(Vec::new()));
        let rearmer = sim.add_endpoint(Box::new(Rearmer {
            link: loopback,
            rto,
            slot: TimerSlot::new(),
            left: sends,
            fired: Rc::clone(&fired),
        }));
        sim.schedule_timer(burster, 0, Time::ZERO);
        sim.schedule_timer(rearmer, u64::MAX, Time::ZERO);
        sim.run_until(Time::from_secs(30));
        let c = sim.counters();
        assert_eq!(c.elided_arrivals, u64::from(burst), "{c:?}");
        assert_eq!(c.packets_delivered, u64::from(burst + sends), "{c:?}");
        // The two bootstrap timers, the last arm's live fire, and every
        // superseded arm, counted once passed.
        assert_eq!(c.timer_events, 2 + u64::from(sends), "{c:?}");
        assert_eq!(c.elided_timers, u64::from(sends) - 1, "{c:?}");
        // One push per bootstrap, one for the first arm, one per
        // superseded entry popped (each re-pushes the live key).
        assert!(c.timer_pushes < 60, "{c:?}");
        assert_eq!(fired.borrow().len(), 1);
        assert_eq!(
            fired.borrow()[0].1,
            0,
            "the live fire carries the last arm's token"
        );
        let tx = Time::tx_time(1500, rate_bps);
        let in_propagation = (delay.as_nanos() / tx.as_nanos() + 1) as usize;
        let period = tx + Time::from_millis(1);
        let ahead = in_propagation + (rto.as_nanos() / period.as_nanos() + 1) as usize;
        let capacity = sim.ghosts.capacity();
        assert!(
            capacity <= 4 * ahead,
            "ghost store grew to {capacity} entries; at most {ahead} ghosts are ever ahead"
        );
        sim.run_to_quiescence();
        assert!(sim.ghosts.is_empty());
        assert_eq!(sim.counters(), c, "nothing was left to settle");
    }

    #[test]
    fn a_ghost_at_the_run_limit_is_counted() {
        // The only arrival lands exactly at the `run_until` limit: 1 ms
        // of serialization plus 5 ms of propagation.
        let mut sim = Simulator::new(1);
        let link = sim.add_link(LinkConfig::new(12e6, Time::from_millis(5), 50));
        let (sink, _) = Sink::new();
        let sink = sim.add_endpoint(Box::new(sink));
        let src = sim.add_endpoint(Box::new(Burst {
            route: Route::direct(link),
            dst: sink,
            count: 1,
            size: 1500,
        }));
        sim.schedule_timer(src, 0, Time::ZERO);
        sim.run_until(Time::from_millis(6));
        let c = sim.counters();
        assert_eq!((c.arrival_events, c.elided_arrivals), (1, 1), "{c:?}");
    }

    /// Arms its slot for `at` on token 0 and disarms it on token 1, so
    /// the arm becomes a timer ghost.
    struct ArmThenDisarm {
        slot: TimerSlot,
        at: Time,
    }
    impl Endpoint for ArmThenDisarm {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            match token {
                0 => ctx.arm(&mut self.slot, 7, self.at),
                1 => ctx.disarm(&mut self.slot),
                _ => panic!("a disarmed slot fired"),
            }
        }
    }

    #[test]
    fn settle_counts_the_ghosts_keyed_before_its_limit_by_kind() {
        // The limit is exclusive (`key_through(t)` lies just past every
        // key at `t`): a ghost keyed at the limit is not yet due.
        let mut sim = Simulator::new(1);
        let arrival = key(Time::from_millis(2), 5);
        let timer = key(Time::from_millis(3), 1);
        sim.ghosts.push((timer, Ghost::Timer));
        sim.ghosts.push((arrival, Ghost::Arrival));
        assert_eq!(sim.settle(arrival), 0);
        assert_eq!(sim.settle(timer), arrival);
        assert_eq!(sim.settle(KEY_NONE), timer);
        assert!(sim.ghosts.is_empty());
        let c = sim.counters();
        assert_eq!(
            (c.arrival_events, c.packets_delivered, c.elided_arrivals),
            (1, 1, 1),
            "{c:?}"
        );
        assert_eq!((c.timer_events, c.elided_timers), (1, 1), "{c:?}");
    }

    #[test]
    fn quiescence_ends_the_clock_at_the_last_superseded_arm() {
        let mut sim = Simulator::new(1);
        let ep = sim.add_endpoint(Box::new(ArmThenDisarm {
            slot: TimerSlot::new(),
            at: Time::from_secs(10),
        }));
        sim.schedule_timer(ep, 0, Time::ZERO);
        sim.schedule_timer(ep, 1, Time::from_secs(1));
        sim.run_until(Time::from_secs(5));
        // The disarmed arm lies ahead: not yet counted.
        assert_eq!(sim.counters().timer_events, 2);
        sim.run_to_quiescence();
        let c = sim.counters();
        assert_eq!((c.timer_events, c.elided_timers), (3, 1), "{c:?}");
        assert_eq!(sim.now(), Time::from_secs(10));
    }

    #[test]
    fn quiescence_ends_the_clock_at_a_last_ghost_arrival() {
        // A timer ghost at 3 ms (armed at 0, disarmed at 1 ms) beside an
        // arrival ghost at 6 ms (1 ms serialization, 5 ms propagation
        // into a discarding sink): the clock ends at the later one.
        let mut sim = Simulator::new(1);
        let link = sim.add_link(LinkConfig::new(12e6, Time::from_millis(5), 50));
        let (sink, _) = Sink::new();
        let sink = sim.add_endpoint(Box::new(sink));
        let src = sim.add_endpoint(Box::new(Burst {
            route: Route::direct(link),
            dst: sink,
            count: 1,
            size: 1500,
        }));
        let ep = sim.add_endpoint(Box::new(ArmThenDisarm {
            slot: TimerSlot::new(),
            at: Time::from_millis(3),
        }));
        sim.schedule_timer(src, 0, Time::ZERO);
        sim.schedule_timer(ep, 0, Time::ZERO);
        sim.schedule_timer(ep, 1, Time::from_millis(1));
        sim.run_to_quiescence();
        let c = sim.counters();
        assert_eq!((c.elided_arrivals, c.elided_timers), (1, 1), "{c:?}");
        assert_eq!((c.arrival_events, c.timer_events), (1, 4), "{c:?}");
        assert_eq!(sim.now(), Time::from_millis(6));
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
