//! Timers fire in ascending `(at, arm order)` (DESIGN.md §14): for any
//! mix of arms from the driver ([`Simulator::schedule_timer`]) and from
//! inside callbacks ([`Ctx::set_timer`]) — exact ties, sub-µs, ms,
//! second-scale and 60 s deltas, and past-due times that must clamp to
//! the clock — the simulator fires exactly what a naive reference fires:
//! a list of the arms, each at its clamped time, taken smallest
//! `(at, arm order)` first.

use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use tputpred_netsim::{Ctx, Endpoint, EndpointId, Packet, Simulator, Time};

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
