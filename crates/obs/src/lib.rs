//! Observation-only telemetry for the simulation pipeline.
//!
//! This crate is the one place in the workspace that may read the wall
//! clock. The simulation crates (`netsim`, `tcp`, `probes`, `testbed`,
//! `core`) are scanned by the `nondeterminism` xtask rule and must not
//! name `Instant`/`SystemTime`; they count and time through the handles
//! here ([`counter!`], [`timer!`], ...) instead, which keeps every
//! wall-clock read outside simulation state.
//!
//! # Determinism contract
//!
//! Telemetry is *write-only* from the simulation's point of view:
//! nothing in this crate feeds a value back into simulation logic, no
//! RNG is consumed, and no event ordering depends on it. Datasets
//! generated with telemetry enabled, disabled, or contended by many
//! worker threads are bit-identical (pinned by
//! `crates/testbed/tests/telemetry_purity.rs` and the zero-fault pin).
//!
//! Counter totals are themselves deterministic — each worker's
//! increments are a pure function of its trace, and addition commutes —
//! while timer and gauge readings are wall-clock measurements and vary
//! run to run by design.
//!
//! # Instruments
//!
//! Each instrument is a handle, normally a `static` declared at its call
//! site by a macro that expands to a `&'static` handle:
//!
//! * [`counter!`] → [`Counter::add`] — monotonic `u64` counters (events
//!   dispatched, drops, ...)
//! * [`gauge!`] → [`Gauge::set`] — last-write-wins `f64` gauges (worker
//!   count, ...)
//! * [`timer!`] → [`Timer::start`] — wall-clock timing scopes that
//!   accumulate nanosecond durations, reported in seconds;
//!   [`Timer::named`] builds one whose name is known only at run time
//!
//! A handle looks its name up once, on its first record while telemetry
//! is enabled, and keeps the cell; after that, a disabled handle costs
//! one relaxed load and an enabled one a relaxed atomic operation. A
//! name is listed in [`snapshot`] from that first record on (a counter's
//! first non-zero add), and [`reset`] zeroes it without unlisting it.
//! Handles that share a name share one cell.
//!
//! All instruments are no-ops while telemetry is disabled (the
//! default); enable with [`set_enabled`] and harvest with [`snapshot`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

pub mod report;

pub use report::{CounterEntry, GaugeEntry, TelemetryReport, TimerEntry};

/// A monotonic counter cell. Lock-free; increments are relaxed atomic
/// adds, so contended workers never serialize on telemetry.
#[derive(Debug, Default)]
struct CounterCell {
    count: AtomicU64,
}

/// Last-write-wins gauge storing `f64` bits (0 is `0.0`).
#[derive(Debug, Default)]
struct GaugeCell {
    bits: AtomicU64,
}

/// Wall-clock timer accumulator in nanoseconds.
#[derive(Debug, Default)]
struct TimerCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// The process-wide instrument registry: cells interned by name, which
/// live for the process lifetime; `reset` zeroes them in place so that
/// handles never observe a dangling cell.
type Cells<C> = Mutex<BTreeMap<String, Arc<C>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTERS: Cells<CounterCell> = Mutex::new(BTreeMap::new());
static GAUGES: Cells<GaugeCell> = Mutex::new(BTreeMap::new());
static TIMERS: Cells<TimerCell> = Mutex::new(BTreeMap::new());

/// Locks a cell map. Poisoned-mutex recovery: telemetry must never
/// abort the pipeline, so a poisoned lock degrades to the inner guard
/// (the maps hold only interned `Arc`s, which cannot be left in a torn
/// state by a panicking writer).
fn locked<C>(map: &Cells<C>) -> MutexGuard<'_, BTreeMap<String, Arc<C>>> {
    match map.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A name and the cell it resolves to, once.
#[derive(Debug)]
struct Slot<C> {
    name: Cow<'static, str>,
    cell: OnceLock<Arc<C>>,
}

impl<C> Slot<C> {
    const fn new(name: Cow<'static, str>) -> Self {
        Slot {
            name,
            cell: OnceLock::new(),
        }
    }
}

impl<C: Default> Slot<C> {
    /// The interned cell for this slot's name, registering it on first
    /// use.
    fn cell(&self, map: &Cells<C>) -> &C {
        self.cell
            .get_or_init(|| Arc::clone(locked(map).entry(self.name.to_string()).or_default()))
    }
}

/// A monotonic `u64` counter; declare with [`counter!`].
#[derive(Debug)]
pub struct Counter(Slot<CounterCell>);

impl Counter {
    /// A counter named `name`, resolved on its first non-zero add.
    pub const fn new(name: &'static str) -> Self {
        Counter(Slot::new(Cow::Borrowed(name)))
    }

    /// Adds `n`. No-op while disabled or when `n` is 0.
    #[inline]
    pub fn add(&self, n: u64) {
        if n == 0 || !enabled() {
            return;
        }
        self.0.cell(&COUNTERS).count.fetch_add(n, Ordering::Relaxed);
    }
}

/// A last-write-wins `f64` gauge; declare with [`gauge!`].
#[derive(Debug)]
pub struct Gauge(Slot<GaugeCell>);

impl Gauge {
    /// A gauge named `name`, resolved on its first set.
    pub const fn new(name: &'static str) -> Self {
        Gauge(Slot::new(Cow::Borrowed(name)))
    }

    /// Sets the gauge to `value`. No-op while disabled.
    #[inline]
    pub fn set(&self, value: f64) {
        if !enabled() {
            return;
        }
        self.0
            .cell(&GAUGES)
            .bits
            .store(value.to_bits(), Ordering::Relaxed);
    }
}

/// A wall-clock timer; declare with [`timer!`], or build one named at
/// run time with [`Timer::named`].
#[derive(Debug)]
pub struct Timer(Slot<TimerCell>);

impl Timer {
    /// A timer named `name`, resolved on its first start.
    pub const fn new(name: &'static str) -> Self {
        Timer(Slot::new(Cow::Borrowed(name)))
    }

    /// A timer whose name is known only at run time. It resolves like a
    /// static one, so build it only while [`enabled`] to skip the name's
    /// allocation too.
    pub fn named(name: String) -> Self {
        Timer(Slot::new(Cow::Owned(name)))
    }

    /// Starts a timing scope. While telemetry is disabled this returns
    /// an inert scope and never reads the clock.
    #[inline]
    #[must_use = "a TimeScope records on drop; binding it to _ drops immediately"]
    pub fn start(&self) -> TimeScope<'_> {
        if !enabled() {
            return TimeScope { live: None };
        }
        TimeScope {
            live: Some((self.0.cell(&TIMERS), Instant::now())),
        }
    }
}

/// Declares a `static` [`Counter`] named by a string literal and
/// evaluates to a `&'static` reference to it:
/// `obs::counter!("tcp.transfers").add(1)`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: $crate::Counter = $crate::Counter::new($name);
        &HANDLE
    }};
}

/// Declares a `static` [`Gauge`] named by a string literal and evaluates
/// to a `&'static` reference to it.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static HANDLE: $crate::Gauge = $crate::Gauge::new($name);
        &HANDLE
    }};
}

/// Declares a `static` [`Timer`] named by a string literal and evaluates
/// to a `&'static` reference to it:
/// `let _scope = obs::timer!("stage.transfer").start();`.
#[macro_export]
macro_rules! timer {
    ($name:literal) => {{
        static HANDLE: $crate::Timer = $crate::Timer::new($name);
        &HANDLE
    }};
}

/// Turns telemetry collection on or off. Disabled (the default), every
/// instrument is a cheap no-op and [`snapshot`] reports whatever was
/// recorded before. Enabling does not clear prior data; call [`reset`]
/// for a fresh window.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry collection is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every registered instrument in place. Interned names survive
/// (zero-valued entries still appear in [`snapshot`]), and handles stay
/// valid.
pub fn reset() {
    for cell in locked(&COUNTERS).values() {
        cell.count.store(0, Ordering::Relaxed);
    }
    for cell in locked(&GAUGES).values() {
        cell.bits.store(0, Ordering::Relaxed);
    }
    for cell in locked(&TIMERS).values() {
        cell.count.store(0, Ordering::Relaxed);
        cell.total_ns.store(0, Ordering::Relaxed);
        cell.min_ns.store(0, Ordering::Relaxed);
        cell.max_ns.store(0, Ordering::Relaxed);
    }
}

fn timer_push(cell: &TimerCell, elapsed_ns: u64) {
    let prior = cell.count.fetch_add(1, Ordering::Relaxed);
    cell.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
    if prior == 0 {
        // First sample seeds min directly; fetch_min against the
        // default 0 would otherwise pin min at 0 forever. A racing
        // first sample is resolved by the fetch_min below.
        cell.min_ns.store(elapsed_ns, Ordering::Relaxed);
    }
    cell.min_ns.fetch_min(elapsed_ns, Ordering::Relaxed);
    cell.max_ns.fetch_max(elapsed_ns, Ordering::Relaxed);
}

/// An in-flight wall-clock measurement. Records into its timer when
/// dropped (or explicitly via [`TimeScope::stop`]). Holds no lock; the
/// clock is read at start and stop only.
#[derive(Debug)]
pub struct TimeScope<'a> {
    live: Option<(&'a TimerCell, Instant)>,
}

impl TimeScope<'_> {
    /// Stops the scope now and records the elapsed time. Idempotent.
    pub fn stop(&mut self) {
        if let Some((cell, started)) = self.live.take() {
            let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            timer_push(cell, elapsed_ns);
        }
    }
}

impl Drop for TimeScope<'_> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Snapshots every registered instrument into a serializable report.
/// Entries are sorted by name; timers are reported in seconds.
pub fn snapshot() -> TelemetryReport {
    let counters = locked(&COUNTERS)
        .iter()
        .map(|(name, cell)| CounterEntry {
            name: name.clone(),
            count: cell.count.load(Ordering::Relaxed),
        })
        .collect();
    let gauges = locked(&GAUGES)
        .iter()
        .map(|(name, cell)| GaugeEntry {
            name: name.clone(),
            value: f64::from_bits(cell.bits.load(Ordering::Relaxed)),
        })
        .collect();
    let timers = locked(&TIMERS)
        .iter()
        .map(|(name, cell)| TimerEntry {
            name: name.clone(),
            count: cell.count.load(Ordering::Relaxed),
            total_s: cell.total_ns.load(Ordering::Relaxed) as f64 / 1e9,
            min_s: cell.min_ns.load(Ordering::Relaxed) as f64 / 1e9,
            max_s: cell.max_ns.load(Ordering::Relaxed) as f64 / 1e9,
        })
        .collect();
    TelemetryReport {
        counters,
        gauges,
        timers,
    }
}

/// Runs `f` with telemetry enabled and a fresh window, restoring the
/// previous enabled state afterwards; returns `f`'s output plus the
/// snapshot taken at the end. The profiling entry points (`perf_report`,
/// and the `fig25_resilience` figure's policy counters) funnel through
/// this.
pub fn with_profiling<T>(f: impl FnOnce() -> T) -> (T, TelemetryReport) {
    let was = enabled();
    reset();
    set_enabled(true);
    let out = f();
    let report = snapshot();
    set_enabled(was);
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry (and its enabled flag) is process-global, so
    /// parallel tests would race on it; every test serializes on this
    /// lock.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn instruments_round_trip_through_snapshot() {
        let _guard = test_lock();
        reset();
        set_enabled(true);

        counter!("t.counter").add(2);
        counter!("t.counter").add(3);
        gauge!("t.gauge").set(8.5);
        let timer = timer!("t.timer");
        {
            let _scope = timer.start();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        timer.start().stop();

        let report = snapshot();
        set_enabled(false);

        assert_eq!(report.counter("t.counter"), Some(5));
        let gauge = report.gauge("t.gauge");
        assert!(gauge.is_some_and(|v| (v - 8.5).abs() < 1e-12));
        let timer = report.timer("t.timer").expect("timer recorded");
        assert_eq!(timer.count, 2);
        assert!(timer.total_s >= 1e-3);
        assert!(timer.min_s <= timer.max_s);

        reset();
        let zeroed = snapshot();
        assert_eq!(zeroed.counter("t.counter"), Some(0));
    }

    #[test]
    fn disabled_instruments_record_nothing() {
        let _guard = test_lock();
        set_enabled(false);
        counter!("t.off").add(7);
        gauge!("t.off.gauge").set(1.0);
        let scope = timer!("t.off.timer").start();
        assert!(scope.live.is_none(), "a disabled timer read the clock");
        drop(scope);
        let report = snapshot();
        assert_eq!(report.counter("t.off"), None);
        assert_eq!(report.gauge("t.off.gauge"), None);
        assert!(report.timer("t.off.timer").is_none());
    }

    #[test]
    fn contended_counters_sum_exactly() {
        let _guard = test_lock();
        reset();
        set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        counter!("t.contended").add(1);
                    }
                });
            }
        });
        let report = snapshot();
        set_enabled(false);
        assert_eq!(report.counter("t.contended"), Some(4000));
    }

    #[test]
    fn a_zero_add_lists_no_name() {
        let _guard = test_lock();
        reset();
        set_enabled(true);
        counter!("t.zero").add(0);
        let report = snapshot();
        set_enabled(false);
        assert_eq!(report.counter("t.zero"), None);
    }

    #[test]
    fn reset_keeps_handles_valid_and_listed_at_zero() {
        let _guard = test_lock();
        reset();
        set_enabled(true);
        let c = counter!("t.kept");
        c.add(4);
        reset();
        assert_eq!(snapshot().counter("t.kept"), Some(0));
        c.add(1);
        let report = snapshot();
        set_enabled(false);
        assert_eq!(report.counter("t.kept"), Some(1));
    }

    #[test]
    fn a_runtime_named_timer_lands_under_its_name() {
        let _guard = test_lock();
        reset();
        set_enabled(true);
        let timer = Timer::named(format!("t.path_wall.{}", "x-1"));
        timer.start().stop();
        timer.start().stop();
        let report = snapshot();
        set_enabled(false);
        assert_eq!(report.timer("t.path_wall.x-1").map(|t| t.count), Some(2));
    }

    #[test]
    fn handles_sharing_a_name_sum_into_one_entry() {
        let _guard = test_lock();
        reset();
        set_enabled(true);
        counter!("t.shared").add(2);
        counter!("t.shared").add(5);
        let own = Counter::new("t.shared");
        own.add(1);
        let report = snapshot();
        set_enabled(false);
        assert_eq!(report.counter("t.shared"), Some(8));
        let listed = report.counters.iter().filter(|c| c.name == "t.shared");
        assert_eq!(listed.count(), 1);
    }
}
