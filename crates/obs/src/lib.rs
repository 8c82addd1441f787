//! Observation-only telemetry for the simulation pipeline.
//!
//! This crate is the one place in the workspace that may read the wall
//! clock. The simulation crates (`netsim`, `tcp`, `probes`, `testbed`,
//! `core`) are scanned by the `nondeterminism` xtask rule and must not
//! name `Instant`/`SystemTime`; they call the name-based API here
//! (`obs::add`, `obs::time_scope`, ...) instead, which keeps every
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
//! * [`add`] — monotonic `u64` counters (events dispatched, drops, ...)
//! * [`gauge_set`] — last-write-wins `f64` gauges (worker count, ...)
//! * [`record`] — `f64` sample distributions (count/total/min/max)
//! * [`time_scope`] / [`TimeScope`] — wall-clock timing scopes that
//!   accumulate nanosecond durations, reported in seconds
//!
//! All instruments are no-ops while telemetry is disabled (the
//! default); enable with [`set_enabled`] and harvest with [`snapshot`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod report;

pub use report::{CounterEntry, DistEntry, GaugeEntry, TelemetryReport, TimerEntry};

/// A monotonic counter cell. Lock-free; increments are relaxed atomic
/// adds, so contended workers never serialize on telemetry.
#[derive(Debug, Default)]
struct CounterCell {
    count: AtomicU64,
}

/// Last-write-wins gauge storing `f64` bits.
#[derive(Debug)]
struct GaugeCell {
    bits: AtomicU64,
}

impl Default for GaugeCell {
    fn default() -> Self {
        GaugeCell {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// Sample distribution: count, sum, min, max over `f64` samples.
/// Min/max use compare-exchange loops with float comparison, so
/// negative samples order correctly too.
#[derive(Debug)]
struct DistCell {
    count: AtomicU64,
    total_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for DistCell {
    fn default() -> Self {
        DistCell {
            count: AtomicU64::new(0),
            total_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// Wall-clock timer accumulator in nanoseconds.
#[derive(Debug, Default)]
struct TimerCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// The process-wide instrument registry. Cells are interned by name and
/// live for the process lifetime; `reset` zeroes them in place so that
/// concurrent writers never observe a dangling cell.
#[derive(Debug, Default)]
struct Registry {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    dists: Mutex<BTreeMap<String, Arc<DistCell>>>,
    timers: Mutex<BTreeMap<String, Arc<TimerCell>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Interns a cell by name. Poisoned-mutex recovery: telemetry must
/// never abort the pipeline, so a poisoned lock degrades to the inner
/// guard (the maps hold only interned `Arc`s, which cannot be left in a
/// torn state by a panicking writer).
fn intern<C: Default>(map: &Mutex<BTreeMap<String, Arc<C>>>, name: &str) -> Arc<C> {
    let mut guard = match map.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(cell) = guard.get(name) {
        return Arc::clone(cell);
    }
    let cell = Arc::new(C::default());
    guard.insert(name.to_string(), Arc::clone(&cell));
    cell
}

fn locked<C>(
    map: &Mutex<BTreeMap<String, Arc<C>>>,
) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<C>>> {
    match map.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Turns telemetry collection on or off. Disabled (the default), every
/// instrument is a cheap no-op and [`snapshot`] reports whatever was
/// recorded before. Enabling does not clear prior data; call [`reset`]
/// for a fresh window.
pub fn set_enabled(on: bool) {
    registry().enabled.store(on, Ordering::Relaxed);
}

/// Whether telemetry collection is currently enabled.
pub fn enabled() -> bool {
    registry().enabled.load(Ordering::Relaxed)
}

/// Zeroes every registered instrument in place. Interned names survive
/// (zero-valued entries still appear in [`snapshot`]), and instrument
/// handles held by other threads stay valid.
pub fn reset() {
    let reg = registry();
    for cell in locked(&reg.counters).values() {
        cell.count.store(0, Ordering::Relaxed);
    }
    for cell in locked(&reg.gauges).values() {
        cell.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
    for cell in locked(&reg.dists).values() {
        cell.count.store(0, Ordering::Relaxed);
        cell.total_bits.store(0f64.to_bits(), Ordering::Relaxed);
        cell.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        cell.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
    for cell in locked(&reg.timers).values() {
        cell.count.store(0, Ordering::Relaxed);
        cell.total_ns.store(0, Ordering::Relaxed);
        cell.min_ns.store(0, Ordering::Relaxed);
        cell.max_ns.store(0, Ordering::Relaxed);
    }
}

/// Adds `n` to the counter `name`. No-op while disabled.
pub fn add(name: &str, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    intern(&registry().counters, name)
        .count
        .fetch_add(n, Ordering::Relaxed);
}

/// Sets the gauge `name` to `value` (last write wins). No-op while
/// disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    intern(&registry().gauges, name)
        .bits
        .store(value.to_bits(), Ordering::Relaxed);
}

fn dist_fold(cell: &AtomicU64, sample: f64, pick: fn(f64, f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = pick(f64::from_bits(cur), sample).to_bits();
        if next == cur {
            return;
        }
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

fn dist_push(cell: &DistCell, count: u64, total: f64, min: f64, max: f64) {
    cell.count.fetch_add(count, Ordering::Relaxed);
    dist_fold(&cell.total_bits, total, |acc, v| acc + v);
    dist_fold(&cell.min_bits, min, f64::min);
    dist_fold(&cell.max_bits, max, f64::max);
}

/// Records one sample into the distribution `name`. No-op while
/// disabled; non-finite samples are dropped.
pub fn record(name: &str, sample: f64) {
    if !enabled() || !sample.is_finite() {
        return;
    }
    dist_push(&intern(&registry().dists, name), 1, sample, sample, sample);
}

/// Merges a pre-aggregated summary (count, sum, min, max) into the
/// distribution `name`. Lets hot paths keep cheap thread-local
/// summaries and fold them in once per trace. No-op while disabled or
/// when `count` is zero.
pub fn record_summary(name: &str, count: u64, total: f64, min: f64, max: f64) {
    if !enabled() || count == 0 {
        return;
    }
    if !(total.is_finite() && min.is_finite() && max.is_finite()) {
        return;
    }
    dist_push(&intern(&registry().dists, name), count, total, min, max);
}

/// Records a pre-measured duration (in nanoseconds) into the timer
/// `name`. No-op while disabled.
pub fn timer_record_ns(name: &str, elapsed_ns: u64) {
    if !enabled() {
        return;
    }
    timer_push(&intern(&registry().timers, name), elapsed_ns);
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
pub struct TimeScope {
    live: Option<(Arc<TimerCell>, Instant)>,
}

impl TimeScope {
    /// Stops the scope now and records the elapsed time. Idempotent.
    pub fn stop(&mut self) {
        if let Some((cell, started)) = self.live.take() {
            let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            timer_push(&cell, elapsed_ns);
        }
    }
}

impl Drop for TimeScope {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts a wall-clock timing scope for the timer `name`. While
/// telemetry is disabled this returns an inert scope and never reads
/// the clock.
#[must_use = "a TimeScope records on drop; binding it to _ drops immediately"]
pub fn time_scope(name: &str) -> TimeScope {
    if !enabled() {
        return TimeScope { live: None };
    }
    TimeScope {
        live: Some((intern(&registry().timers, name), Instant::now())),
    }
}

/// Snapshots every registered instrument into a serializable report.
/// Entries are sorted by name; timers are reported in seconds.
pub fn snapshot() -> TelemetryReport {
    let reg = registry();
    let counters = locked(&reg.counters)
        .iter()
        .map(|(name, cell)| CounterEntry {
            name: name.clone(),
            count: cell.count.load(Ordering::Relaxed),
        })
        .collect();
    let gauges = locked(&reg.gauges)
        .iter()
        .map(|(name, cell)| GaugeEntry {
            name: name.clone(),
            value: f64::from_bits(cell.bits.load(Ordering::Relaxed)),
        })
        .collect();
    let dists = locked(&reg.dists)
        .iter()
        .map(|(name, cell)| {
            let count = cell.count.load(Ordering::Relaxed);
            DistEntry {
                name: name.clone(),
                count,
                total: f64::from_bits(cell.total_bits.load(Ordering::Relaxed)),
                min: if count == 0 {
                    0.0
                } else {
                    f64::from_bits(cell.min_bits.load(Ordering::Relaxed))
                },
                max: if count == 0 {
                    0.0
                } else {
                    f64::from_bits(cell.max_bits.load(Ordering::Relaxed))
                },
            }
        })
        .collect();
    let timers = locked(&reg.timers)
        .iter()
        .map(|(name, cell)| {
            let count = cell.count.load(Ordering::Relaxed);
            TimerEntry {
                name: name.clone(),
                count,
                total_s: cell.total_ns.load(Ordering::Relaxed) as f64 / 1e9,
                min_s: cell.min_ns.load(Ordering::Relaxed) as f64 / 1e9,
                max_s: cell.max_ns.load(Ordering::Relaxed) as f64 / 1e9,
            }
        })
        .collect();
    TelemetryReport {
        counters,
        gauges,
        dists,
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
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
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

        add("t.counter", 2);
        add("t.counter", 3);
        gauge_set("t.gauge", 8.5);
        record("t.dist", 1.0);
        record("t.dist", 3.0);
        record_summary("t.dist", 2, 10.0, 2.0, 8.0);
        timer_record_ns("t.timer", 1_000_000);
        {
            let _scope = time_scope("t.timer");
        }

        let report = snapshot();
        set_enabled(false);

        assert_eq!(report.counter("t.counter"), Some(5));
        let gauge = report
            .gauges
            .iter()
            .find(|g| g.name == "t.gauge")
            .map(|g| g.value);
        assert!(gauge.is_some_and(|v| (v - 8.5).abs() < 1e-12));
        let dist = report.dist("t.dist").expect("dist recorded");
        assert_eq!(dist.count, 4);
        assert!((dist.total - 14.0).abs() < 1e-12);
        assert!((dist.min - 1.0).abs() < 1e-12);
        assert!((dist.max - 8.0).abs() < 1e-12);
        let timer = report.timer("t.timer").expect("timer recorded");
        assert_eq!(timer.count, 2);
        assert!(timer.total_s >= 1e-3);

        reset();
        let zeroed = snapshot();
        assert_eq!(zeroed.counter("t.counter"), Some(0));
    }

    #[test]
    fn disabled_instruments_record_nothing() {
        let _guard = test_lock();
        set_enabled(false);
        add("t.off", 7);
        record("t.off.dist", 1.0);
        let _scope = time_scope("t.off.timer");
        let report = snapshot();
        assert_eq!(report.counter("t.off"), None);
        assert!(report.dist("t.off.dist").is_none());
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
                        add("t.contended", 1);
                    }
                });
            }
        });
        let report = snapshot();
        set_enabled(false);
        assert_eq!(report.counter("t.contended"), Some(4000));
    }
}
