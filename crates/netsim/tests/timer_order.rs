//! Timers fire in ascending `(at, arm order)` (DESIGN.md §14): for any
//! mix of arms from the driver ([`Simulator::schedule_timer`]) and from
//! inside callbacks ([`Ctx::set_timer`]) — exact ties, sub-µs, ms,
//! second-scale and 60 s deltas, and past-due times that must clamp to
//! the clock — the simulator fires exactly what a naive reference fires:
//! a list of the arms, each at its clamped time, taken smallest
//! `(at, arm order)` first.
//!
//! Re-armable slots ([`Ctx::arm`], [`Ctx::disarm`]) fire exactly what
//! the idiom they replace fires: one-shot timers for every arm, with
//! versioned tokens, and the stale ones ignored. Scripts arm, re-arm
//! (earlier and later) and disarm slots beside one-shot timers, and the
//! live fires, `timer_events`, `timer_clamps` and the clock agree after
//! every `run_until` and at quiescence.

use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use tputpred_netsim::{Ctx, Endpoint, EndpointId, Packet, Simulator, Time, TimerSlot};

/// One fire as an observer sees it: `(now, endpoint, token)`.
type Fire = (u64, u32, u64);

/// The fire time an arm asks for, `now_ns` being the clock at arming.
/// Kind 5 asks for a time up to 1 s behind the clock, which the engine
/// must clamp (at time zero it is a tie with the clock instead).
fn requested_at(kind: u8, raw: u64, now_ns: u64) -> u64 {
    match kind % 6 {
        0 => now_ns,                                         // exact tie with `now`
        1 => now_ns + raw % 1_000,                           // sub-µs
        2 => now_ns + raw % 50_000_000,                      // up to 50 ms
        3 => now_ns + 1_000_000_000 + raw % 2_000_000_000,   // 1–3 s
        4 => now_ns + 60_000_000_000,                        // 60 s
        _ => now_ns.saturating_sub(1 + raw % 1_000_000_000), // past due
    }
}

/// What every scripted endpoint shares: the script of arms each fire
/// makes (fire `k` arms `script[k]`, on its own endpoint), the global
/// arm counter (the next token) and the fire log.
#[derive(Default)]
struct Shared {
    script: Vec<Vec<(u8, u64)>>,
    fires: Cell<usize>,
    arms: Cell<u64>,
    log: RefCell<Vec<Fire>>,
}

impl Shared {
    /// The token of the next arm: its place in arm order.
    fn next_token(&self) -> u64 {
        let t = self.arms.get();
        self.arms.set(t + 1);
        t
    }

    /// Logs one fire and returns the arms it makes.
    fn fire(&self, now_ns: u64, endpoint: u32, token: u64) -> &[(u8, u64)] {
        self.log.borrow_mut().push((now_ns, endpoint, token));
        let k = self.fires.get();
        self.fires.set(k + 1);
        self.script.get(k).map_or(&[], Vec::as_slice)
    }
}

/// Logs each fire and re-arms itself as the script says.
struct Scripted {
    shared: Rc<Shared>,
}

impl Endpoint for Scripted {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let now_ns = ctx.now.as_nanos();
        let shared = Rc::clone(&self.shared);
        for &(kind, raw) in shared.fire(now_ns, ctx.self_id.0, token) {
            let at = requested_at(kind, raw, now_ns);
            ctx.set_timer(shared.next_token(), Time::from_nanos(at));
        }
    }
}

/// The reference: a plain list of pending arms, scanned for the
/// smallest `(clamped at, arm order)` on every fire.
#[derive(Default)]
struct Reference {
    now: u64,
    /// `(at, arm order, endpoint)`; the arm order is also the token.
    pending: Vec<(u64, u64, u32)>,
    arms: u64,
    clamps: u64,
    fires: usize,
    log: Vec<Fire>,
}

impl Reference {
    fn arm(&mut self, endpoint: u32, at: u64) {
        if at < self.now {
            self.clamps += 1;
        }
        self.pending.push((at.max(self.now), self.arms, endpoint));
        self.arms += 1;
    }

    /// Fires every arm due by `t` (all of them for `None`); a cut-off
    /// then moves the clock to `t`.
    fn run(&mut self, script: &[Vec<(u8, u64)>], t: Option<u64>) {
        while let Some(i) = (0..self.pending.len()).min_by_key(|&i| self.pending[i]) {
            let (at, token, endpoint) = self.pending[i];
            if t.is_some_and(|t| at > t) {
                break;
            }
            self.pending.swap_remove(i);
            self.now = at;
            self.log.push((at, endpoint, token));
            if let Some(arms) = script.get(self.fires) {
                for &(kind, raw) in arms {
                    self.arm(endpoint, requested_at(kind, raw, at));
                }
            }
            self.fires += 1;
        }
        if let Some(t) = t {
            self.now = self.now.max(t);
        }
    }
}

const ENDPOINTS: u32 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn timers_fire_in_clamped_time_then_arm_order(
        script in prop::collection::vec(
            prop::collection::vec((0u8..6, 0u64..u64::MAX / 4), 0..3),
            0..120,
        ),
        // Each phase: driver arms `(endpoint, kind, raw)`, then a run
        // of `advance_ms`.
        phases in prop::collection::vec(
            (
                prop::collection::vec((0..ENDPOINTS, 0u8..6, 0u64..u64::MAX / 4), 0..6),
                0u64..4_000,
            ),
            1..6,
        ),
    ) {
        let shared = Rc::new(Shared {
            script: script.clone(),
            ..Shared::default()
        });
        let mut sim = Simulator::new(1);
        for _ in 0..ENDPOINTS {
            sim.add_endpoint(Box::new(Scripted {
                shared: Rc::clone(&shared),
            }));
        }
        let mut reference = Reference::default();
        for (arms, advance_ms) in &phases {
            let now_ns = sim.now().as_nanos();
            prop_assert_eq!(now_ns, reference.now);
            for &(endpoint, kind, raw) in arms {
                let at = requested_at(kind, raw, now_ns);
                let token = shared.next_token();
                sim.schedule_timer(EndpointId(endpoint), token, Time::from_nanos(at));
                reference.arm(endpoint, at);
            }
            let t = now_ns + advance_ms * 1_000_000;
            sim.run_until(Time::from_nanos(t));
            reference.run(&script, Some(t));
            prop_assert_eq!(&*shared.log.borrow(), &reference.log, "by {} ns", t);
        }
        sim.run_to_quiescence();
        reference.run(&script, None);
        prop_assert_eq!(&*shared.log.borrow(), &reference.log, "after quiescence");
        prop_assert_eq!(sim.now().as_nanos(), reference.now);
        let c = sim.counters();
        prop_assert_eq!(c.timer_clamps, reference.clamps);
        prop_assert_eq!(c.timer_events, reference.log.len() as u64);
        prop_assert_eq!(shared.arms.get(), reference.arms);
    }
}

// ---- Re-armable slots ------------------------------------------------------

/// Slots per scripted endpoint.
const SLOTS: usize = 2;

/// One scripted operation `(op, slot, kind, raw)`: op 0 arms a one-shot
/// timer, op 1 (re-)arms `slot`, op 2 disarms it; the time comes from
/// [`requested_at`].
type Op = (u8, u8, u8, u64);

/// What both worlds of the slot test share: the script (live fire `k`
/// runs `script[k]` on its own endpoint), the arm counter (every arm's
/// token is its place in arm order), which slot each token armed
/// (`None` for one-shot timers), and the log of live fires.
#[derive(Default)]
struct SlotShared {
    script: Vec<Vec<Op>>,
    fires: Cell<usize>,
    arms: Cell<u64>,
    armed_slot: RefCell<Vec<Option<usize>>>,
    log: RefCell<Vec<Fire>>,
}

impl SlotShared {
    /// The token of the next arm, recording which slot (if any) it arms.
    fn next_token(&self, slot: Option<usize>) -> u64 {
        let t = self.arms.get();
        self.arms.set(t + 1);
        self.armed_slot.borrow_mut().push(slot);
        t
    }

    /// Logs one live fire and returns the operations it runs.
    fn fire(&self, now_ns: u64, endpoint: u32, token: u64) -> Vec<Op> {
        self.log.borrow_mut().push((now_ns, endpoint, token));
        let k = self.fires.get();
        self.fires.set(k + 1);
        self.script.get(k).cloned().unwrap_or_default()
    }
}

/// Runs the script on [`TimerSlot`]s.
struct SlotScripted {
    shared: Rc<SlotShared>,
    slots: [TimerSlot; SLOTS],
}

impl Endpoint for SlotScripted {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let now_ns = ctx.now.as_nanos();
        for (op, slot, kind, raw) in self.shared.fire(now_ns, ctx.self_id.0, token) {
            let at = Time::from_nanos(requested_at(kind, raw, now_ns));
            let slot = usize::from(slot) % SLOTS;
            match op % 3 {
                0 => ctx.set_timer(self.shared.next_token(None), at),
                1 => {
                    let token = self.shared.next_token(Some(slot));
                    ctx.arm(&mut self.slots[slot], token, at);
                }
                _ => ctx.disarm(&mut self.slots[slot]),
            }
        }
    }
}

/// Runs the script on one-shot timers with versioned tokens: every arm
/// is a timer, and a slot's fire is live only if its token is still the
/// slot's current one.
struct Versioned {
    shared: Rc<SlotShared>,
    current: [Option<u64>; SLOTS],
}

impl Endpoint for Versioned {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let slot = self.shared.armed_slot.borrow()[token as usize];
        if let Some(slot) = slot {
            if self.current[slot] != Some(token) {
                return; // stale generation
            }
            self.current[slot] = None;
        }
        let now_ns = ctx.now.as_nanos();
        for (op, slot, kind, raw) in self.shared.fire(now_ns, ctx.self_id.0, token) {
            let at = Time::from_nanos(requested_at(kind, raw, now_ns));
            let slot = usize::from(slot) % SLOTS;
            match op % 3 {
                0 => ctx.set_timer(self.shared.next_token(None), at),
                1 => {
                    let token = self.shared.next_token(Some(slot));
                    self.current[slot] = Some(token);
                    ctx.set_timer(token, at);
                }
                _ => self.current[slot] = None,
            }
        }
    }
}

/// One world of the slot test: its simulator and shared state.
struct SlotWorld {
    sim: Simulator,
    shared: Rc<SlotShared>,
}

impl SlotWorld {
    fn new(script: &[Vec<Op>], slots: bool) -> Self {
        let shared = Rc::new(SlotShared {
            script: script.to_vec(),
            ..SlotShared::default()
        });
        let mut sim = Simulator::new(1);
        for _ in 0..ENDPOINTS {
            let shared = Rc::clone(&shared);
            if slots {
                sim.add_endpoint(Box::new(SlotScripted {
                    shared,
                    slots: [TimerSlot::new(), TimerSlot::new()],
                }));
            } else {
                sim.add_endpoint(Box::new(Versioned {
                    shared,
                    current: [None; SLOTS],
                }));
            }
        }
        SlotWorld { sim, shared }
    }

    /// The live fires, `timer_events`, `timer_clamps` and the clock.
    fn observed(&self) -> (Vec<Fire>, u64, u64, Time) {
        let c = self.sim.counters();
        let log = self.shared.log.borrow().clone();
        (log, c.timer_events, c.timer_clamps, self.sim.now())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slots_fire_what_versioned_tokens_fire(
        script in prop::collection::vec(
            prop::collection::vec((0u8..6, 0u8..2, 0u8..6, 0u64..u64::MAX / 4), 0..4),
            0..150,
        ),
        // Each phase: one-shot timers `(endpoint, kind, raw)` armed
        // from outside the simulation, then a run of `advance_ms`.
        phases in prop::collection::vec(
            (
                prop::collection::vec((0..ENDPOINTS, 0u8..6, 0u64..u64::MAX / 4), 0..4),
                0u64..4_000,
            ),
            1..8,
        ),
    ) {
        let mut worlds = [SlotWorld::new(&script, true), SlotWorld::new(&script, false)];
        for (arms, advance_ms) in &phases {
            let now_ns = worlds[0].sim.now().as_nanos();
            for w in &mut worlds {
                for &(endpoint, kind, raw) in arms {
                    let at = requested_at(kind, raw, now_ns);
                    let token = w.shared.next_token(None);
                    w.sim.schedule_timer(EndpointId(endpoint), token, Time::from_nanos(at));
                }
                w.sim.run_until(Time::from_nanos(now_ns + advance_ms * 1_000_000));
            }
            prop_assert_eq!(worlds[0].observed(), worlds[1].observed(), "after {} ms more", advance_ms);
        }
        for w in &mut worlds {
            w.sim.run_to_quiescence();
        }
        prop_assert_eq!(worlds[0].observed(), worlds[1].observed(), "after quiescence");
        let (slots, reference) = (worlds[0].sim.counters(), worlds[1].sim.counters());
        // Every stale firing of the reference is an elided timer, and
        // no slot arm was pushed that the reference did not push.
        let live = worlds[0].shared.log.borrow().len() as u64;
        prop_assert_eq!(slots.elided_timers, reference.timer_events - live);
        prop_assert_eq!(reference.elided_timers, 0);
        prop_assert!(slots.timer_pushes <= reference.timer_pushes);
    }
}
