//! # tputpred-netsim — a deterministic packet-level network simulator
//!
//! The RON-testbed substitute for the reproduction of *On the
//! predictability of large transfer TCP throughput*: a discrete-event,
//! packet-level simulator of network paths with finite-buffer droptail
//! queues, propagation delays, and stochastic cross traffic.
//!
//! Following the event-driven design the networking guides recommend
//! (smoltcp-style simplicity; no async runtime — this is CPU-bound
//! simulation, not I/O):
//!
//! * [`engine::Simulator`] — the event scheduler over a nanosecond
//!   clock ([`time::Time`]): live timers in one binary heap
//!   (re-armable [`engine::TimerSlot`]s keep superseded arms out of
//!   it), open-loop sources in a lane of their own, link
//!   serialization/propagation on per-link FIFO streams, with
//!   deterministic FIFO tie-breaking and a seeded RNG, so every
//!   experiment is exactly reproducible from its seed (DESIGN.md §14).
//! * [`link::Link`] — a unidirectional link: serialization at a configured
//!   rate, propagation delay, and a finite droptail FIFO buffer, with
//!   byte/drop/busy-time accounting (the ground truth behind avail-bw).
//! * [`packet::Packet`] — source-routed packets. The engine never reads
//!   payloads; the [`packet::Payload`] vocabulary (TCP segment metadata,
//!   probe metadata, raw filler) lives here only so TCP endpoints, probes
//!   and cross-traffic sources can share one packet type.
//! * [`engine::Endpoint`] — the trait protocol endpoints implement:
//!   callbacks for packet arrival and timer expiry, issuing commands
//!   (send, set or arm a timer) through an [`engine::Ctx`].
//! * [`sources`] — open-loop cross-traffic generators, fired by the
//!   engine rather than as endpoints: constant-bit-rate, Poisson, and
//!   Pareto on-off (heavy-tailed bursts); plus a counting sink and an
//!   echo reflector for probes.
//! * [`schedule::RateSchedule`] — piecewise-constant load modulation with
//!   level shifts and transient outlier bursts: the §5.2 time-series
//!   pathologies, injected by construction.
//! * [`random`] — inverse-transform samplers (exponential, Pareto)
//!   over any [`rand::Rng`].

pub mod engine;
pub mod link;
pub mod packet;
pub mod random;
pub mod schedule;
pub mod sources;
pub mod time;

pub use engine::{Ctx, Endpoint, EndpointId, EngineCounters, Simulator, TimerSlot};
pub use link::{Link, LinkConfig, LinkId, LinkStats};
pub use packet::{Packet, Payload, ProbeMeta, Route, TcpMeta, MAX_HOPS};
pub use schedule::RateSchedule;
pub use time::Time;
