//! Serializable snapshot of the instrument registry.

use serde::{Deserialize, Serialize};

/// One monotonic counter at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    pub name: String,
    pub count: u64,
}

/// One gauge (last-write-wins value) at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    pub name: String,
    pub value: f64,
}

/// One wall-clock timer at snapshot time, reported in seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimerEntry {
    pub name: String,
    pub count: u64,
    pub total_s: f64,
    pub min_s: f64,
    pub max_s: f64,
}

impl TimerEntry {
    /// Mean scope duration in seconds (0 when no samples).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }
}

/// A structured snapshot of every registered instrument, sorted by
/// name within each kind. This is the payload embedded in
/// `BENCH_gen_<preset>.json` (DESIGN.md §11).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    pub counters: Vec<CounterEntry>,
    pub gauges: Vec<GaugeEntry>,
    pub timers: Vec<TimerEntry>,
}

impl TelemetryReport {
    /// An empty report (no instruments registered).
    pub fn empty() -> Self {
        TelemetryReport {
            counters: Vec::new(),
            gauges: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// All counters whose name starts with `prefix`, in name order —
    /// e.g. `counters_with_prefix("core.resilience.")` pulls the
    /// policy-layer transition counts out of a profiled run.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<&CounterEntry> {
        self.counters
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .collect()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.count)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a timer by name.
    pub fn timer(&self, name: &str) -> Option<&TimerEntry> {
        self.timers.iter().find(|t| t.name == name)
    }

    /// Total recorded seconds for a timer, 0 when absent.
    pub fn timer_total_s(&self, name: &str) -> f64 {
        self.timer(name).map_or(0.0, |t| t.total_s)
    }
}
