//! Host contention monitor.
//!
//! The benchmark runs on shared hosts. Each of its cores is one hardware
//! thread of a physical core whose other hardware thread belongs to
//! another tenant, and while that tenant runs, it takes part of the
//! core's execution units and caches. This slows the code itself, not
//! the scheduling of it: a unit's wall and CPU time both grow, by up to
//! 2–4× on the hosts measured (see `README.md`), and how busy the other
//! thread is changes from one second to the next.
//!
//! So a run keeps one sampler thread pinned to each core its units run
//! on. Every [`PERIOD`] a sampler wakes, preempting the unit for a moment,
//! and times four micro-kernels written here with `std` only, so that no
//! change to the program can change them: UTF-8 validation of shard-sized
//! text, float parsing, sorting, and a small discrete-event loop (a heap
//! of timers over FIFO links). A kernel's mean time over the samples
//! taken on a unit's cores while it ran, divided by its [`REFERENCE_NS`]
//! (its time on an idle core), is that kernel's slowdown; the unit's
//! *contention* `m` is the geometric mean of the four.
//!
//! Within a stretch of host load the program's time follows a power of
//! the contention, `t = t₀ · m^β` (correlation 0.98–0.99 over a hundred
//! units of each workload), where `t₀` is the time on idle cores and `β`
//! depends on the work (see
//! [`crate::workload::Workload::contention_exponent`]). A unit's host
//! time is therefore its wall time, less the time its cores spent in the
//! samplers, over `m^β`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often each sampler wakes.
pub const PERIOD: Duration = Duration::from_millis(5);

/// The kernels, in the order of [`REFERENCE_NS`].
pub const KERNELS: [&str; 4] = ["utf8", "f64", "sort", "des"];

/// Each kernel's time on an idle core, nanoseconds (the fastest percent
/// of a long run's samples).
pub const REFERENCE_NS: [f64; 4] = [34_500.0, 19_000.0, 30_500.0, 77_000.0];

/// One wake of a sampler.
#[derive(Debug, Clone, Copy)]
struct Sample {
    cpu: usize,
    /// Start, nanoseconds since the monitor's epoch.
    at_ns: u64,
    /// Each kernel's time.
    ns: [u64; 4],
}

impl Sample {
    fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Contention on a set of cores over an interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contention {
    /// The geometric mean of the kernels' slowdowns; 1 with no samples.
    pub m: f64,
    /// Seconds the samplers ran on those cores in the interval.
    pub sampler_s: f64,
    pub samples: usize,
}

impl Default for Contention {
    /// No samples: contention 1, nothing to subtract.
    fn default() -> Self {
        Contention {
            m: 1.0,
            sampler_s: 0.0,
            samples: 0,
        }
    }
}

impl Contention {
    /// The factor a time on these cores is divided by: `m^β`.
    pub fn factor(&self, exponent: f64) -> f64 {
        self.m.powf(exponent)
    }
}

/// Sampler threads, one pinned to each core a run's units use.
pub struct Monitor {
    epoch: Instant,
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<Sample>>>,
    threads: Vec<JoinHandle<()>>,
}

impl Monitor {
    /// Starts a sampler on each of `cpus`. Fails if a sampler cannot be
    /// pinned to its core.
    pub fn start(cpus: &[usize]) -> Result<Monitor, String> {
        let epoch = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let samples: Arc<Mutex<Vec<Sample>>> = Arc::default();
        let mut monitor = Monitor {
            epoch,
            stop: Arc::clone(&stop),
            samples: Arc::clone(&samples),
            threads: Vec::new(),
        };
        for &cpu in cpus {
            let (stop, samples) = (Arc::clone(&stop), Arc::clone(&samples));
            let (ready_tx, ready_rx) = std::sync::mpsc::channel();
            let handle = std::thread::Builder::new()
                .name(format!("sampler-{cpu}"))
                .spawn(move || {
                    let pinned = pin_current_thread(&[cpu]);
                    let ok = pinned.is_ok();
                    let _ = ready_tx.send(pinned);
                    if ok {
                        sample_until(cpu, epoch, &stop, &samples);
                    }
                })
                .map_err(|e| format!("cannot start a sampler: {e}"))?;
            monitor.threads.push(handle);
            ready_rx
                .recv()
                .map_err(|_| "a sampler exited before pinning".to_string())?
                .map_err(|e| format!("cannot pin a sampler to core {cpu}: {e}"))?;
        }
        Ok(monitor)
    }

    /// Contention on `cpus` between `from` and `to`.
    pub fn contention(&self, cpus: &[usize], from: Instant, to: Instant) -> Contention {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (from, to) = (ns(from), ns(to));
        let samples = self.samples.lock().expect("sampler log poisoned");
        let inside: Vec<&Sample> = samples
            .iter()
            .filter(|s| cpus.contains(&s.cpu) && s.at_ns >= from && s.at_ns + s.total_ns() <= to)
            .collect();
        if inside.is_empty() {
            return Contention::default();
        }
        let n = inside.len() as f64;
        let log_slowdown: f64 = (0..KERNELS.len())
            .map(|k| {
                let mean_ns = inside.iter().map(|s| s.ns[k] as f64).sum::<f64>() / n;
                (mean_ns / REFERENCE_NS[k]).ln()
            })
            .sum();
        Contention {
            m: (log_slowdown / KERNELS.len() as f64).exp(),
            sampler_s: inside.iter().map(|s| s.total_ns()).sum::<u64>() as f64 / 1e9,
            samples: inside.len(),
        }
    }
}

impl Drop for Monitor {
    /// Stops every sampler and waits for it to end.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The sampler loop: sleep a period, time each kernel, log the times.
fn sample_until(cpu: usize, epoch: Instant, stop: &AtomicBool, log: &Mutex<Vec<Sample>>) {
    let mut kernels = Kernels::new();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(PERIOD);
        let start = Instant::now();
        let mut ns = [0u64; 4];
        let mut last = start;
        for (k, slot) in ns.iter_mut().enumerate() {
            black_box(kernels.run(k));
            let now = Instant::now();
            *slot = (now - last).as_nanos() as u64;
            last = now;
        }
        let at_ns = start.saturating_duration_since(epoch).as_nanos() as u64;
        log.lock()
            .expect("sampler log poisoned")
            .push(Sample { cpu, at_ns, ns });
    }
}

/// xorshift64: the kernels' fixed pseudo-random stream.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernels' inputs and buffers, made once per sampler.
struct Kernels {
    /// 40 KB of pseudo-random ASCII, about one `quick` shard.
    text: Vec<u8>,
    /// 200 decimal renderings of floats.
    floats: Vec<String>,
    keys: Vec<u64>,
    rng: u64,
}

impl Kernels {
    fn new() -> Self {
        let mut x: u64 = 0x5eed;
        let text = (0..40_000)
            .map(|_| b" !\"#,-.0123456789:[]abcdefnrtu{}"[(next(&mut x) % 32) as usize])
            .collect();
        let floats = (0..200)
            .map(|i| format!("{}", f64::from(i) * 1.234_567_890_1e-3 + 0.1))
            .collect();
        Kernels {
            text,
            floats,
            keys: vec![0; 2048],
            rng: x,
        }
    }

    /// Runs kernel `k` once; the result depends on all of its work.
    fn run(&mut self, k: usize) -> f64 {
        match k {
            0 => utf8(&self.text),
            1 => parse_floats(&self.floats),
            2 => sort(&mut self.keys, &mut self.rng),
            _ => des(&mut self.rng),
        }
    }
}

/// UTF-8 validation of every 640th suffix of `text`.
fn utf8(text: &[u8]) -> f64 {
    (0..text.len())
        .step_by(640)
        .map(|start| std::str::from_utf8(black_box(&text[start..])).map_or(0, str::len))
        .sum::<usize>() as f64
}

/// Parses every float five times.
fn parse_floats(floats: &[String]) -> f64 {
    let mut sum = 0.0;
    for _ in 0..5 {
        for s in floats {
            sum += black_box(s.as_str()).parse::<f64>().unwrap_or(0.0);
        }
    }
    sum
}

/// Refills `keys` with pseudo-random integers and sorts them.
fn sort(keys: &mut [u64], rng: &mut u64) -> f64 {
    for key in keys.iter_mut() {
        *key = next(rng);
    }
    keys.sort_unstable();
    keys[keys.len() / 2] as f64
}

/// 1 500 steps of a discrete-event loop: a heap of timers over eight
/// FIFO links with bounded queues.
fn des(rng: &mut u64) -> f64 {
    let mut timers: BinaryHeap<Reverse<(u64, u64, u8)>> = BinaryHeap::with_capacity(600);
    let mut links: Vec<VecDeque<(u64, u32)>> =
        (0..8).map(|_| VecDeque::with_capacity(64)).collect();
    for link in 0..8u8 {
        timers.push(Reverse((u64::from(link), u64::from(link), link)));
    }
    let (mut seq, mut delivered) = (8u64, 0.0f64);
    for _ in 0..1_500 {
        let Some(Reverse((now, _, link))) = timers.pop() else {
            break;
        };
        let r = next(rng);
        let queue = &mut links[usize::from(link & 7)];
        if queue.len() < 64 {
            queue.push_back((now, (r % 1500) as u32));
        }
        if !r.is_multiple_of(3) {
            if let Some((sent, size)) = queue.pop_front() {
                delivered += f64::from(size) * 8.0 / ((now - sent + 1) as f64).sqrt();
            }
        }
        let dt = 1 + (r >> 20) % 5_000;
        timers.push(Reverse((now + dt, seq, link)));
        seq += 1;
        if r.is_multiple_of(17) {
            timers.push(Reverse((now + 3 * dt, seq, ((r >> 8) & 7) as u8)));
            seq += 1;
        }
        if timers.len() > 512 {
            timers.pop();
        }
    }
    delivered
}

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_getcpu() -> i32;
}

/// The cores this thread may run on, starting from the one it runs on
/// now and continuing in ascending order, wrapping around.
pub fn allowed_cpus() -> Vec<usize> {
    let mut cpus = affinity();
    // SAFETY: sched_getcpu takes no arguments and only reads the calling
    // thread's state.
    let current = unsafe { sched_getcpu() };
    if let Some(at) = cpus.iter().position(|&c| c as i32 == current) {
        cpus.rotate_left(at);
    }
    cpus
}

/// The cores this thread may run on, in ascending order.
fn affinity() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, exclusively borrowed 128-byte buffer and
    // the size passed is its size; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restricts the calling thread (and the threads it starts from now on)
/// to `cpus`.
pub fn pin_current_thread(cpus: &[usize]) -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        if c >= 1024 {
            return Err(format!("core {c} is out of range"));
        }
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a live 128-byte buffer and the size passed is its
    // size; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samplers_measure_their_cores_and_stop() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let monitor = Monitor::start(&cpus[..1]).expect("sampler starts");
        let from = Instant::now();
        std::thread::sleep(Duration::from_millis(100));
        let c = monitor.contention(&cpus[..1], from, Instant::now());
        assert!(c.samples >= 5, "{c:?}");
        assert!(c.m > 0.1 && c.sampler_s > 0.0, "{c:?}");
        assert!(c.factor(1.0) > 0.0);
        let none = monitor.contention(&[usize::MAX], from, Instant::now());
        assert_eq!(none, Contention::default());
        drop(monitor);
    }

    #[test]
    fn kernels_do_fixed_work() {
        let (mut a, mut b) = (Kernels::new(), Kernels::new());
        for (k, name) in KERNELS.iter().enumerate() {
            let x = a.run(k);
            assert_eq!(x.to_bits(), b.run(k).to_bits(), "kernel {name}");
            assert!(x != 0.0, "kernel {name} did no work");
        }
    }
}
