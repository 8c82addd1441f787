//! Epoch orchestration and dataset generation.
//!
//! One simulated *trace* is one [`Simulator`] running the path's cross
//! traffic continuously while the epoch timeline of Fig. 1 repeats on
//! top of it:
//!
//! ```text
//! epoch k: [ pathload slot ][ ping-only window ][ 50 s transfer ]( gap )
//!          (ping probes run continuously across the whole trace)
//! ```
//!
//! When the preset enables it, a second window-limited (W = 20 KB)
//! transfer follows the main one (§4.2.8). All per-epoch measurements
//! land in an [`EpochRecord`].

use crate::data::{regenerate_all, Dataset, EpochFaults, EpochRecord, PathData, TraceData};
use crate::faults::{EpochFaultPlan, FaultPlan, TransferFault};
use crate::path::{catalog_2004, catalog_2006, PathConfig};
use crate::preset::{CatalogKind, Preset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::sources::{ParetoOnOffSource, PoissonSource, Reflector, Sink, SourceConfig};
use tputpred_netsim::{LinkId, RateSchedule, Route, Simulator, Time};
use tputpred_obs as obs;
use tputpred_probes::ping::{PingProber, PingSummary, ProbeMask};
use tputpred_probes::{BulkTransfer, Pathload, PathloadConfig};
use tputpred_tcp::{connect, TcpConfig};

/// Guard subtracted from the end of every ping summary window so that
/// replies still in flight are not miscounted as losses.
fn summary_guard(preset: &Preset) -> Time {
    Time::from_nanos((preset.pre_ping.as_nanos() / 6).min(Time::from_secs(1).as_nanos()))
}

/// The per-trace world: simulator plus the handles the epoch loop reads.
struct TraceWorld {
    sim: Simulator,
    fwd: LinkId,
    rev: LinkId,
    ping: tputpred_probes::PingStatsHandle,
}

/// The seed every per-trace randomness stream derives from: simulator,
/// cross-traffic schedule, and fault/regime plan (each with its own
/// salt). Public so analysis binaries (`fig25_resilience`) can
/// recompute a trace's regime sequence via
/// [`crate::faults::draw_regimes`] without the dataset storing it.
pub fn trace_seed(path: &PathConfig, trace_idx: usize) -> u64 {
    path.seed
        .wrapping_add(trace_idx as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Assembles the simulation of one trace: links, cross traffic with the
/// trace's random load schedule, the probe reflector, and the continuous
/// ping prober.
fn build_trace(path: &PathConfig, trace_idx: usize, preset: &Preset) -> TraceWorld {
    let seed = trace_seed(path, trace_idx);
    let mut sim = Simulator::new(seed);
    let fwd = sim.add_link(LinkConfig::new(
        path.capacity_bps,
        path.one_way,
        path.buffer_packets,
    ));
    // Reverse path: fast and deep enough that ACKs and echoes are never
    // the bottleneck (the paper's paths are asymmetric in load, not
    // modelled as congested backwards).
    let rev = sim.add_link(LinkConfig::new(
        (path.capacity_bps * 10.0).max(100e6),
        path.one_way,
        2_000,
    ));
    let trace_len = preset.trace_len();

    // Cross traffic: the load schedule (with its level shifts and bursts)
    // modulates the inelastic sources.
    let mut sched_rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let cross = &path.cross;
    let schedule = RateSchedule::random(
        &mut sched_rng,
        trace_len,
        cross.shifts_per_trace,
        cross.level_range,
        cross.bursts_per_trace,
        cross.burst_len,
        cross.burst_range,
    );
    let inelastic = cross.utilization * path.capacity_bps;
    let poisson_rate = inelastic * (1.0 - cross.pareto_fraction);
    let pareto_rate = inelastic * cross.pareto_fraction;
    if poisson_rate > 1.0 {
        let (sink, _) = Sink::new();
        let sink_id = sim.add_endpoint(Box::new(sink));
        let src = PoissonSource::new(SourceConfig {
            route: Route::direct(fwd),
            dst: sink_id,
            packet_size: 1000,
            base_rate_bps: poisson_rate,
            schedule: schedule.clone(),
            stop: trace_len,
        });
        sim.add_source(src, Time::ZERO);
    }
    if pareto_rate > 1.0 {
        // The bursty load is split across `pareto_sources` independent
        // on-off sources: same mean load, smoother aggregate as the
        // degree of statistical multiplexing rises (§6.1.4).
        let (sink, _) = Sink::new();
        let sink_id = sim.add_endpoint(Box::new(sink));
        let n = cross.pareto_sources.max(1);
        for _ in 0..n {
            let src = ParetoOnOffSource::new(
                SourceConfig {
                    route: Route::direct(fwd),
                    dst: sink_id,
                    packet_size: 1000,
                    base_rate_bps: pareto_rate / n as f64,
                    schedule: schedule.clone(),
                    stop: trace_len,
                },
                cross.duty_cycle,
                1.6, // heavy-tailed on periods
                cross.mean_on,
            );
            sim.add_source(src, Time::ZERO);
        }
    }
    // Elastic cross traffic: persistent TCP flows with a moderate socket
    // buffer, competing for the bottleneck the whole trace.
    for _ in 0..cross.elastic_flows {
        let config = TcpConfig {
            max_window: 256 * 1024,
            ..TcpConfig::default()
        };
        let _ = connect(
            &mut sim,
            config,
            Route::direct(fwd),
            Route::direct(rev),
            Time::ZERO,
            trace_len,
        );
    }

    // Ping runs across the whole trace.
    let reflector = Reflector::new(Route::direct(rev));
    let refl_id = sim.add_endpoint(Box::new(reflector));
    let (prober, ping) =
        PingProber::new(Route::direct(fwd), refl_id, preset.ping_interval, trace_len);
    let prober_id = sim.add_endpoint(Box::new(prober));
    sim.schedule_timer(prober_id, 0, Time::ZERO);

    TraceWorld {
        sim,
        fwd,
        rev,
        ping,
    }
}

/// Pathload configured relative to the path: the search never needs to
/// probe beyond ~1.5× the bottleneck capacity (real pathload likewise
/// stops raising its rate once streams saturate the path).
fn pathload_config(path: &PathConfig) -> PathloadConfig {
    PathloadConfig {
        max_rate: path.capacity_bps * 1.5,
        ..PathloadConfig::default()
    }
}

/// Converts a `(start, end)` span-fraction window (from the fault plan)
/// into wall-clock times within `[span_start, span_end)`.
fn window_in_span(span_start: Time, span_end: Time, frac: (f64, f64)) -> (Time, Time) {
    let span_ns = span_end.saturating_sub(span_start).as_nanos() as f64;
    let at = |f: f64| span_start + Time::from_nanos((span_ns * f) as u64);
    (at(frac.0), at(frac.1))
}

/// Turns a (possibly masked) ping summary into the recorded
/// `(rtt, loss_rate)` pair: no probes sent → neither is measured; probes
/// sent but none answered → the loss rate is measured (1.0) while the
/// RTT is not.
fn summary_measurements(s: &PingSummary) -> (Option<f64>, Option<f64>) {
    if s.sent == 0 {
        (None, None)
    } else if s.received == 0 {
        (None, Some(s.loss_rate))
    } else {
        (Some(s.rtt), Some(s.loss_rate))
    }
}

/// Tallies one epoch's fault classes into the telemetry registry.
/// Observation-only (and a no-op unless profiling is enabled): nothing
/// here feeds back into the epoch loop.
fn tally_epoch_faults(faults: &EpochFaults) {
    obs::counter!("testbed.epochs").add(1);
    if !faults.is_clean() {
        obs::counter!("testbed.epochs_degraded").add(1);
    }
    obs::counter!("testbed.faults.node_down").add(u64::from(faults.node_down));
    obs::counter!("testbed.faults.pathload_failed").add(u64::from(faults.pathload_failed));
    obs::counter!("testbed.faults.ping_outage").add(u64::from(faults.ping_outage));
    obs::counter!("testbed.faults.reply_loss_burst").add(u64::from(faults.reply_loss_burst));
    obs::counter!("testbed.faults.transfer_truncated").add(u64::from(faults.transfer_truncated));
    obs::counter!("testbed.faults.transfer_failed").add(u64::from(faults.transfer_failed));
}

/// Tallies the epoch's outage regime into the telemetry registry —
/// observation-only, like [`tally_epoch_faults`].
fn tally_regime(regime: crate::faults::OutageRegime) {
    let counter = match regime {
        crate::faults::OutageRegime::Healthy => obs::counter!("testbed.regimes.healthy"),
        crate::faults::OutageRegime::Degraded => obs::counter!("testbed.regimes.degraded"),
        crate::faults::OutageRegime::Down => obs::counter!("testbed.regimes.down"),
    };
    counter.add(1);
}

/// Folds one finished transfer's flow statistics into the telemetry
/// registry (segments, retransmissions, RTO firings).
fn tally_flow(stats: &tputpred_tcp::FlowStats) {
    obs::counter!("tcp.transfers").add(1);
    obs::counter!("tcp.segments_sent").add(stats.segments_sent);
    obs::counter!("tcp.retransmits").add(stats.retransmits);
    obs::counter!("tcp.fast_retransmits").add(stats.fast_retransmits);
    obs::counter!("tcp.rto_firings").add(stats.timeouts);
}

/// Folds a trace's engine, link, and probe tallies into the telemetry
/// registry once the epoch loop is over — the hot event loop itself
/// touches only the engine's plain local counters.
fn flush_trace_telemetry(world: &TraceWorld) {
    if !obs::enabled() {
        return;
    }
    let c = world.sim.counters();
    obs::counter!("netsim.events").add(c.events);
    obs::counter!("netsim.timer_events").add(c.timer_events);
    obs::counter!("netsim.txdone_events").add(c.txdone_events);
    obs::counter!("netsim.arrival_events").add(c.arrival_events);
    obs::counter!("netsim.elided_arrivals").add(c.elided_arrivals);
    obs::counter!("netsim.packets_offered").add(c.packets_offered);
    obs::counter!("netsim.packets_tx_started").add(c.packets_tx_started);
    obs::counter!("netsim.packets_queued").add(c.packets_queued);
    obs::counter!("netsim.packets_dropped").add(c.packets_dropped);
    obs::counter!("netsim.packets_delivered").add(c.packets_delivered);
    obs::counter!("netsim.endpoint_calls").add(c.endpoint_calls);
    obs::counter!("netsim.timer_clamps").add(c.timer_clamps);
    obs::counter!("netsim.timer_pushes").add(c.timer_pushes);
    obs::counter!("netsim.elided_timers").add(c.elided_timers);
    let fwd = world.sim.link(world.fwd).stats();
    obs::counter!("netsim.fwd.packets_out").add(fwd.packets_out);
    obs::counter!("netsim.fwd.bytes_out").add(fwd.bytes_out);
    obs::counter!("netsim.fwd.drops").add(fwd.drops);
    let ping = world.ping.borrow();
    obs::counter!("probes.ping.sent").add(ping.total_sent() as u64);
    obs::counter!("probes.ping.replies_lost").add(ping.replies_lost() as u64);
}

/// What the dataset records about one epoch's faults, from its plan.
fn epoch_faults(plan: &EpochFaultPlan) -> EpochFaults {
    if plan.missing {
        // A down node masks every other fault: nothing else "happened".
        return EpochFaults {
            node_down: true,
            ..EpochFaults::default()
        };
    }
    EpochFaults {
        node_down: false,
        pathload_failed: plan.pathload_fail,
        ping_outage: plan.ping_outage.is_some(),
        reply_loss_burst: plan.reply_burst.is_some(),
        transfer_truncated: matches!(plan.transfer, TransferFault::Truncated(_)),
        transfer_failed: plan.transfer == TransferFault::Failed,
    }
}

/// Runs one complete trace and returns its epoch records.
///
/// The preset's [`crate::faults::FaultConfig`] is drawn into a
/// [`FaultPlan`] up-front on its own RNG stream, so with all
/// probabilities zero this function is call-for-call identical to a
/// build without the fault layer (the replay test pins this).
pub fn run_trace(path: &PathConfig, trace_idx: usize, preset: &Preset) -> TraceData {
    let _trace_scope = obs::timer!("testbed.trace_wall").start();
    let path_timer = obs::enabled().then(|| obs::Timer::named(format!("path_wall.{}", path.name)));
    let _path_scope = path_timer.as_ref().map(obs::Timer::start);
    let mut world = build_trace(path, trace_idx, preset);
    let plan = FaultPlan::draw_with_regimes(
        &preset.faults,
        &preset.regimes,
        trace_seed(path, trace_idx),
        preset.epochs_per_trace,
    );
    let guard = summary_guard(preset);
    let mut records = Vec::with_capacity(preset.epochs_per_trace);

    for epoch in 0..preset.epochs_per_trace {
        let _epoch_scope = obs::timer!("testbed.epoch_wall").start();
        let t0 = Time::from_nanos(preset.epoch_len().as_nanos() * epoch as u64);
        let fault = plan.epoch(epoch);
        let faults = epoch_faults(&fault);
        tally_epoch_faults(&faults);
        tally_regime(plan.regime(epoch));

        // --- Phase 1: pathload avail-bw measurement -------------------
        // A failed run still injects its probe streams (the abort is in
        // the estimator, not the traffic); a missing epoch injects
        // nothing.
        let pathload = (!fault.missing).then(|| {
            Pathload::deploy(
                &mut world.sim,
                pathload_config(path),
                Route::direct(world.fwd),
                t0,
            )
        });
        let ping_window_start = t0 + preset.pathload_slot;
        {
            let _s = obs::timer!("stage.pathload_slot").start();
            world.sim.run_until(ping_window_start);
        }
        if let Some(p) = &pathload {
            let r = p.borrow();
            obs::counter!("probes.pathload.runs").add(1);
            obs::counter!("probes.pathload.streams_used").add(r.streams_used as u64);
            if r.done {
                obs::counter!("probes.pathload.converged").add(1);
            }
        }
        let a_hat = match &pathload {
            Some(p) if !fault.pathload_fail => {
                Some(p.borrow().best_guess().unwrap_or(path.capacity_bps))
            }
            _ => None,
        };

        // --- Phase 2: ping-only window; record ground-truth spare
        //     capacity over it ------------------------------------------
        let busy_before = world.sim.link(world.fwd).stats().busy;
        let transfer_start = ping_window_start + preset.pre_ping;
        {
            let _s = obs::timer!("stage.ping_window").start();
            world.sim.run_until(transfer_start);
        }
        let busy_after = world.sim.link(world.fwd).stats().busy;
        let util = (busy_after - busy_before).as_secs_f64() / preset.pre_ping.as_secs_f64();
        let true_avail_bw = path.capacity_bps * (1.0 - util).max(0.0);

        // --- Phase 3: the target transfer ------------------------------
        let transfer_end = transfer_start + preset.transfer;
        let quarter = Time::from_nanos(preset.transfer.as_nanos() / 4);
        let half = Time::from_nanos(preset.transfer.as_nanos() / 2);
        // Floor at the measurement resolution of one segment per
        // transfer: a fully starved epoch records a tiny-but-positive
        // throughput (as a real IPerf run would), keeping relative
        // errors large but finite.
        let r_floor = 1448.0 * 8.0 / preset.transfer.as_secs_f64();
        let mut r_large = None;
        let mut r_prefix_quarter = None;
        let mut r_prefix_half = None;
        let mut flow_stats = (0_u64, 0.0, 0.0);
        let launch_main = !fault.missing && fault.transfer != TransferFault::Failed;
        let _transfer_scope = obs::timer!("stage.transfer").start();
        if launch_main {
            let stop = match fault.transfer {
                TransferFault::Truncated(frac) => {
                    let len = Time::from_nanos((preset.transfer.as_nanos() as f64 * frac) as u64);
                    transfer_start + len
                }
                _ => transfer_end,
            };
            let transfer = BulkTransfer::launch(
                &mut world.sim,
                preset.tcp_large(),
                Route::direct(world.fwd),
                Route::direct(world.rev),
                transfer_start,
                stop,
            );
            if let TransferFault::Truncated(_) = fault.transfer {
                // The shortened run: one throughput sample over the
                // actual duration, no prefix samples (not comparable to
                // full-length ones), then idle to the scheduled end.
                world.sim.run_until(stop);
                let run_secs = stop.saturating_sub(transfer_start).as_secs_f64();
                let trunc_floor = 1448.0 * 8.0 / run_secs;
                r_large = Some(transfer.throughput().max(trunc_floor));
                world.sim.run_until(transfer_end);
            } else {
                world.sim.run_until(transfer_start + quarter);
                let prefix_floor = 1448.0 * 8.0 / preset.transfer.as_secs_f64();
                r_prefix_quarter = Some(transfer.throughput_over(quarter).max(prefix_floor));
                world.sim.run_until(transfer_start + half);
                r_prefix_half = Some(transfer.throughput_over(half).max(prefix_floor));
                world.sim.run_until(transfer_end);
                r_large = Some(transfer.throughput().max(r_floor));
            }
            flow_stats = {
                let s = transfer.stats().borrow();
                tally_flow(&s);
                (s.loss_events(), s.retransmit_rate(), s.rtt.mean())
            };
        } else {
            world.sim.run_until(transfer_end);
        }
        drop(_transfer_scope);
        let (flow_loss_events, flow_retx_rate, flow_rtt) = flow_stats;

        // --- Phase 4 (optional): the window-limited transfer -----------
        let mut r_small = None;
        let mut cursor = transfer_end + preset.epoch_gap;
        if preset.with_small_window {
            let _s = obs::timer!("stage.small_transfer").start();
            world.sim.run_until(cursor);
            let small_end = cursor + preset.transfer;
            if !fault.missing {
                let small = BulkTransfer::launch(
                    &mut world.sim,
                    preset.tcp_small(),
                    Route::direct(world.fwd),
                    Route::direct(world.rev),
                    cursor,
                    small_end,
                );
                world.sim.run_until(small_end);
                tally_flow(&small.stats().borrow());
                r_small = Some(small.throughput().max(r_floor));
            } else {
                world.sim.run_until(small_end);
            }
            cursor = small_end + preset.epoch_gap;
        }
        world.sim.run_until(cursor);

        // --- Summarize the ping windows (reply-safe: the epoch gap has
        //     passed, so all echoes are in) ------------------------------
        let _summarize_scope = obs::timer!("stage.summarize").start();
        let (t_hat, p_hat, t_tilde, p_tilde) = if fault.missing {
            (None, None, None, None)
        } else {
            // Fault windows are fractions of the whole probing span
            // (ping-window start → transfer end); both summaries see the
            // same mask.
            let span = |frac| window_in_span(ping_window_start, transfer_end, frac);
            let mask = ProbeMask {
                outage: fault.ping_outage.map(span),
                forced_loss: fault.reply_burst.map(span),
            };
            let ping = world.ping.borrow();
            let pre = ping.summarize_masked(
                ping_window_start,
                transfer_start.saturating_sub(guard),
                &mask,
            );
            let during =
                ping.summarize_masked(transfer_start, transfer_end.saturating_sub(guard), &mask);
            drop(ping);
            let (t_hat, p_hat) = summary_measurements(&pre);
            let (t_tilde, p_tilde) = summary_measurements(&during);
            (t_hat, p_hat, t_tilde, p_tilde)
        };
        // The epoch's windows are summarized and later epochs start at
        // `cursor`: its probe records go, the trace's totals stay.
        world.ping.borrow_mut().forget_before(cursor);

        records.push(EpochRecord {
            status: faults.status(),
            faults,
            a_hat,
            t_hat,
            p_hat,
            t_tilde,
            p_tilde,
            r_large,
            r_small,
            r_prefix_quarter,
            r_prefix_half,
            flow_loss_events,
            flow_retx_rate,
            flow_rtt,
            true_avail_bw,
        });
    }
    flush_trace_telemetry(&world);
    TraceData { records }
}

/// The catalog a preset draws its paths from, as its
/// [`Preset::catalog`] says: the 2004-style or 2006-style catalog, or
/// the procedural five-class one (DESIGN.md §15). The preset's name
/// plays no part.
pub fn catalog_for(preset: &Preset) -> Vec<PathConfig> {
    match preset.catalog {
        CatalogKind::Y2004 => catalog_2004(preset.paths, preset.seed),
        CatalogKind::Y2006 => catalog_2006(preset.paths, preset.seed),
        CatalogKind::Synth => crate::synth::synth_catalog(preset.paths, preset.seed),
    }
}

/// Generates a complete dataset for `preset` in memory, without the
/// shard cache: [`generate_path`] over the whole catalog through the
/// walk's parallel fan-out, collected in catalog order. Deterministic:
/// the result depends only on the preset (every trace derives its seed
/// from the path seed and trace index). The reference the shard pins
/// compare the cached walk against.
pub fn generate(preset: &Preset) -> Dataset {
    let catalog = catalog_for(preset);
    let ids: Vec<usize> = (0..catalog.len()).collect();
    Dataset {
        preset: preset.clone(),
        paths: regenerate_all(preset, &ids, |id| generate_path(preset, &catalog[id])),
    }
}

/// Loads `preset`'s dataset from the sharded cache at `dir`
/// (`data/<preset>/`): the walk of [`for_each_path`] — which regenerates
/// only the stale, missing, or corrupt shards — with every visited path
/// moved into the merged [`Dataset`]. Returns that dataset — bit
/// identical to [`generate`] — and the shard reuse counts. Telemetry is
/// [`for_each_path`]'s.
pub fn load_or_generate_sharded(
    dir: &std::path::Path,
    preset: &Preset,
) -> std::io::Result<(Dataset, crate::data::ShardStats)> {
    let mut paths = Vec::new();
    let stats = walk_paths(dir, preset, |_, path| {
        paths.push(path);
        Ok(())
    })?;
    let dataset = Dataset {
        preset: preset.clone(),
        paths,
    };
    Ok((dataset, stats))
}

/// Overrides how many workers the parallel generation fan-out uses on
/// this thread (0 restores the `RAYON_NUM_THREADS`-or-core-count
/// default). Generation is deterministic per (path, trace), so the
/// worker count changes wall clock only, never output —
/// `tests/shard_pin.rs` pins multi-worker against single-worker bytes.
pub fn set_generation_workers(n: usize) {
    rayon::set_num_threads(n);
}

/// Generates one path's complete [`PathData`] — every trace, in order,
/// on the calling thread. The job of the one parallel fan-out, per
/// shard in the cache ([`for_each_path`]) and per catalog path in
/// [`generate`]; trace seeds depend only on (path, trace index), so a
/// path's data never depends on the batch it was generated in.
pub fn generate_path(preset: &Preset, config: &PathConfig) -> PathData {
    PathData {
        config: config.clone(),
        traces: (0..preset.traces_per_path)
            .map(|t| run_trace(config, t, preset))
            .collect(),
    }
}

/// Streams `preset`'s dataset through `visit` in catalog order without
/// ever materializing the merged [`Dataset`] (DESIGN.md §15): untrusted
/// shards regenerate first — one path per parallel job, written to disk
/// as each finishes — then every shard is loaded, visited, and dropped.
/// O(one path) resident memory; the 10k-path presets depend on it.
///
/// Telemetry (observation-only, recorded when profiling is enabled): a
/// `testbed.shard_cache_wall` scope around the whole walk, the
/// `testbed.shards.hit` / `.missing` / `.stale` / `.regenerated`
/// counters, a `testbed.paths_streamed` counter, and (from inside the
/// cache core) `testbed.generate_wall` + `testbed.workers`.
pub fn for_each_path<V>(
    dir: &std::path::Path,
    preset: &Preset,
    mut visit: V,
) -> std::io::Result<crate::data::ShardStats>
where
    V: FnMut(usize, &PathData) -> std::io::Result<()>,
{
    walk_paths(dir, preset, |id, path| visit(id, &path))
}

/// The walk of [`for_each_path`], handing each path to `visit` by value.
fn walk_paths<V>(
    dir: &std::path::Path,
    preset: &Preset,
    mut visit: V,
) -> std::io::Result<crate::data::ShardStats>
where
    V: FnMut(usize, PathData) -> std::io::Result<()>,
{
    let mut scope = obs::timer!("testbed.shard_cache_wall").start();
    let catalog = catalog_for(preset);
    let result = Dataset::walk_shards(
        dir,
        preset,
        &catalog,
        |id| generate_path(preset, &catalog[id]),
        |id, path| {
            obs::counter!("testbed.paths_streamed").add(1);
            visit(id, path)
        },
    );
    scope.stop();
    if let Ok(stats) = &result {
        obs::counter!("testbed.shards.hit").add(stats.hits as u64);
        obs::counter!("testbed.shards.missing").add(stats.missing as u64);
        obs::counter!("testbed.shards.stale").add(stats.stale as u64);
        obs::counter!("testbed.shards.regenerated").add(stats.regenerated() as u64);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::EpochStatus;
    use crate::faults::{FaultConfig, OutageRegime, RegimeConfig};

    /// A minimal preset for unit tests: one quiet-ish path would still
    /// take seconds in debug mode at full scale, so keep it very short.
    fn mini_preset() -> Preset {
        Preset {
            name: "mini".into(),
            catalog: CatalogKind::Y2004,
            paths: 3,
            traces_per_path: 1,
            epochs_per_trace: 3,
            pathload_slot: Time::from_secs(6),
            pre_ping: Time::from_secs(5),
            transfer: Time::from_secs(4),
            epoch_gap: Time::from_secs(2),
            w_large: 1 << 20,
            w_small: 20 * 1024,
            with_small_window: true,
            ping_interval: Time::from_millis(100),
            seed: 99,
            faults: FaultConfig::none(),
            regimes: RegimeConfig::none(),
        }
    }

    fn quiet_path() -> PathConfig {
        let mut p = catalog_2004(3, 42).remove(2);
        p.capacity_bps = 10e6;
        p.buffer_packets = 40; // ~1 BDP at 48 ms RTT
        p.cross.utilization = 0.3;
        p.cross.elastic_flows = 0;
        p.cross.shifts_per_trace = 0.0;
        p.cross.bursts_per_trace = 0.0;
        p
    }

    #[test]
    fn trace_produces_one_record_per_epoch_with_sane_values() {
        let preset = mini_preset();
        let path = quiet_path();
        let trace = run_trace(&path, 0, &preset);
        assert_eq!(trace.records.len(), 3);
        for rec in &trace.records {
            assert_eq!(rec.status, EpochStatus::Ok);
            assert!(rec.faults.is_clean());
            let r = rec.complete().expect("fault-free epochs are complete");
            assert!(r.r_large > 100e3, "transfer made progress: {}", r.r_large);
            assert!(r.r_large <= path.capacity_bps * 1.01);
            assert!(r.r_small.unwrap() > 0.0);
            assert!(r.t_hat >= path.base_rtt() * 0.99, "T̂ ≥ propagation");
            assert!((0.0..=1.0).contains(&r.p_hat));
            assert!((0.0..=1.0).contains(&r.p_tilde));
            assert!(r.a_hat > 0.0 && r.a_hat <= path.capacity_bps * 1.6);
            assert!(r.true_avail_bw <= path.capacity_bps);
            assert!(r.r_prefix_quarter > 0.0 && r.r_prefix_half > 0.0);
        }
    }

    #[test]
    fn quiet_path_measures_low_loss_and_good_availbw() {
        let preset = mini_preset();
        let path = quiet_path();
        let trace = run_trace(&path, 0, &preset);
        for rec in &trace.records {
            let r = rec.complete().expect("fault-free epochs are complete");
            assert!(
                r.p_hat < 0.05,
                "30%-loaded path: little ping loss, {}",
                r.p_hat
            );
            // Avail-bw should be in the ballpark of the 7 Mbps residual.
            assert!(
                r.a_hat > 2e6,
                "avail-bw on a 30%-loaded 10 Mbps path: {}",
                r.a_hat
            );
            // The flow itself raises loss/queueing relative to a-priori —
            // the §3.2 mechanism — so p̃ ≥ p̂ typically; just sanity-check
            // the fields are populated and ordered sensibly.
            assert!(r.t_tilde >= path.base_rtt() * 0.99);
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let preset = mini_preset();
        let path = quiet_path();
        let a = run_trace(&path, 0, &preset);
        let b = run_trace(&path, 0, &preset);
        assert_eq!(a, b);
    }

    #[test]
    fn dataset_generation_replays_bit_identically() {
        // The full generate() pass — the parallel per-path fan-out and
        // assembly — must be a pure function of the preset, not just
        // each trace in isolation: this is what makes `data/*.json`
        // caching and the behavior-hash staleness guard sound.
        let preset = mini_preset();
        let a = generate(&preset);
        let b = generate(&preset);
        assert_eq!(a, b);
        // Byte-identical serialized form, i.e. the cache file itself
        // replays.
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn different_trace_indices_differ() {
        let preset = mini_preset();
        let path = quiet_path();
        let a = run_trace(&path, 0, &preset);
        let b = run_trace(&path, 1, &preset);
        assert_ne!(a, b, "trace seeds must differ");
    }

    #[test]
    fn generate_assembles_the_full_grid() {
        let preset = mini_preset();
        let ds = generate(&preset);
        assert_eq!(ds.paths.len(), 3);
        for p in &ds.paths {
            assert_eq!(p.traces.len(), 1);
            assert_eq!(p.traces[0].records.len(), 3);
        }
        assert_eq!(ds.epoch_count(), 9);
    }

    #[test]
    fn missing_epochs_record_nothing_but_keep_the_timeline() {
        let preset = Preset {
            faults: FaultConfig {
                epoch_missing: 1.0,
                ..FaultConfig::none()
            },
            ..mini_preset()
        };
        let trace = run_trace(&quiet_path(), 0, &preset);
        assert_eq!(trace.records.len(), 3, "one record per epoch, even down");
        for r in &trace.records {
            assert_eq!(r.status, EpochStatus::Missing);
            assert!(r.faults.node_down);
            assert_eq!(r.complete(), None);
            assert!(r.a_hat.is_none() && r.t_hat.is_none() && r.r_large.is_none());
            assert!(r.r_small.is_none() && r.r_prefix_half.is_none());
            assert_eq!(r.flow_loss_events, 0);
        }
        assert!(trace.throughput_series().is_empty());
        assert_eq!(trace.throughput_series_gappy(), vec![None, None, None]);
    }

    #[test]
    fn pathload_failure_loses_only_the_availbw_estimate() {
        let preset = Preset {
            faults: FaultConfig {
                pathload_fail: 1.0,
                ..FaultConfig::none()
            },
            ..mini_preset()
        };
        let trace = run_trace(&quiet_path(), 0, &preset);
        for r in &trace.records {
            assert_eq!(r.status, EpochStatus::Degraded);
            assert!(r.faults.pathload_failed && !r.faults.node_down);
            assert!(r.a_hat.is_none(), "Â is the lost measurement");
            assert!(r.t_hat.is_some() && r.p_hat.is_some());
            assert!(r.r_large.is_some() && r.r_prefix_half.is_some());
            assert_eq!(r.complete(), None, "a degraded epoch is not complete");
        }
    }

    #[test]
    fn failed_transfers_leave_throughput_unmeasured() {
        let preset = Preset {
            faults: FaultConfig {
                transfer_fail: 1.0,
                ..FaultConfig::none()
            },
            ..mini_preset()
        };
        let trace = run_trace(&quiet_path(), 0, &preset);
        for r in &trace.records {
            assert_eq!(r.status, EpochStatus::Degraded);
            assert!(r.faults.transfer_failed);
            assert!(r.r_large.is_none() && r.r_prefix_quarter.is_none());
            assert_eq!(r.flow_loss_events, 0);
            // The rest of the epoch still measured.
            assert!(r.a_hat.is_some() && r.t_hat.is_some());
            assert!(r.r_small.is_some(), "the small transfer still runs");
        }
        assert!(trace.throughput_series().is_empty());
    }

    #[test]
    fn truncated_transfers_measure_the_shortened_run_only() {
        let preset = Preset {
            faults: FaultConfig {
                transfer_truncate: 1.0,
                ..FaultConfig::none()
            },
            ..mini_preset()
        };
        let trace = run_trace(&quiet_path(), 0, &preset);
        for r in &trace.records {
            assert_eq!(r.status, EpochStatus::Degraded);
            assert!(r.faults.transfer_truncated);
            let r_large = r.r_large.expect("truncated run still yields a sample");
            assert!(r_large > 100e3, "shortened transfer made progress");
            assert!(
                r.r_prefix_quarter.is_none() && r.r_prefix_half.is_none(),
                "prefixes of a shortened run are not comparable"
            );
        }
    }

    #[test]
    fn ping_outage_degrades_but_reply_burst_inflates_loss() {
        let outage_preset = Preset {
            faults: FaultConfig {
                ping_outage: 1.0,
                ..FaultConfig::none()
            },
            ..mini_preset()
        };
        let clean = run_trace(&quiet_path(), 0, &mini_preset());
        let outage = run_trace(&quiet_path(), 0, &outage_preset);
        for (o, c) in outage.records.iter().zip(&clean.records) {
            assert_eq!(o.status, EpochStatus::Degraded);
            assert!(o.faults.ping_outage);
            // Fewer probes sampled, but the path is quiet: the values
            // that survive stay sane when present at all.
            if let (Some(to), Some(tc)) = (o.t_hat, c.t_hat) {
                assert!((to - tc).abs() < 0.05, "outage barely moves RTT");
            }
        }
        let burst_preset = Preset {
            faults: FaultConfig {
                reply_loss_burst: 1.0,
                ..FaultConfig::none()
            },
            ..mini_preset()
        };
        let burst = run_trace(&quiet_path(), 0, &burst_preset);
        let mean = |t: &TraceData| {
            let ps: Vec<f64> = t.records.iter().filter_map(|r| r.p_hat).collect();
            ps.iter().sum::<f64>() / ps.len().max(1) as f64
        };
        assert!(
            mean(&burst) > mean(&clean),
            "forced reply loss must inflate p̂: {} vs {}",
            mean(&burst),
            mean(&clean)
        );
    }

    #[test]
    fn faulty_generation_is_deterministic() {
        let preset = Preset {
            faults: FaultConfig::uniform(0.3),
            ..mini_preset()
        };
        let a = generate(&preset);
        let b = generate(&preset);
        assert_eq!(a, b);
        assert!(a.degraded_count() > 0, "30% fault rates must hit something");
        assert!(
            a.complete_epochs().count() < a.epoch_count(),
            "some epochs must be discarded"
        );
    }

    #[test]
    fn regime_down_epochs_are_missing_and_replay_deterministically() {
        // Certain entry probabilities pin the chain's shape: epoch 0
        // Healthy, epoch 1 Degraded (entered), epoch 2 Down (escalated,
        // long dwell) — so the third record must be masked even though
        // every FaultConfig probability is zero.
        let preset = Preset {
            regimes: RegimeConfig {
                degraded_entry: 1.0,
                down_entry: 1.0,
                mean_degraded_dwell: 1.0,
                mean_down_dwell: 50.0,
                fault_multiplier: 1.0,
            },
            ..mini_preset()
        };
        let path = quiet_path();
        let a = run_trace(&path, 0, &preset);
        let b = run_trace(&path, 0, &preset);
        assert_eq!(a, b, "regime-modulated traces replay bit-identically");
        let seq = crate::faults::draw_regimes(
            &preset.regimes,
            trace_seed(&path, 0),
            preset.epochs_per_trace,
        );
        assert_eq!(
            seq,
            vec![
                OutageRegime::Healthy,
                OutageRegime::Degraded,
                OutageRegime::Down
            ]
        );
        assert_eq!(a.records[0].status, EpochStatus::Ok);
        assert_eq!(
            a.records[1].status,
            EpochStatus::Ok,
            "no base faults to amplify"
        );
        assert_eq!(a.records[2].status, EpochStatus::Missing);
        assert!(a.records[2].faults.node_down);
    }

    #[test]
    fn zero_regime_generation_matches_the_regime_free_draw() {
        // `Preset.regimes = none` must leave datasets bit-identical to
        // the pre-regime fault layer, faults enabled or not.
        let preset = Preset {
            faults: FaultConfig::uniform(0.3),
            ..mini_preset()
        };
        let path = quiet_path();
        let seed = trace_seed(&path, 0);
        assert_eq!(
            FaultPlan::draw_with_regimes(
                &preset.faults,
                &preset.regimes,
                seed,
                preset.epochs_per_trace
            ),
            FaultPlan::draw(&preset.faults, seed, preset.epochs_per_trace)
        );
    }

    #[test]
    fn catalog_for_selects_by_catalog_kind() {
        assert_eq!(catalog_for(&Preset::quick()).len(), 35);
        let c2006 = catalog_for(&Preset::quick_2006());
        assert_eq!(c2006.len(), 24);
        assert!(c2006.iter().all(|p| !p.name.starts_with("eu")));
    }

    #[test]
    fn a_renamed_preset_keeps_its_catalog() {
        // Catalog words in a name ("synth", "2006") must not switch
        // the catalog: only the `catalog` field does.
        let renamed = Preset {
            name: "x-synth-2006".into(),
            ..Preset::quick()
        };
        assert_eq!(
            catalog_for(&renamed),
            catalog_2004(renamed.paths, renamed.seed)
        );
    }
}
