//! Process resource usage: CPU time of every thread the process ran
//! (live or joined) from `getrusage(2)`, and the peak resident set size
//! of its own address space from `/proc/self/status`. `ru_maxrss` is not
//! used for the latter: Linux carries it across `exec`, so it would
//! report the footprint of whatever launched the benchmark (`cargo run`).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads `struct rusage` with the 64-bit Linux layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
/// this module does not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds of this process, summed over all its
/// threads so far.
pub fn cpu_s() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, exclusively borrowed `struct rusage` laid out
    // as on 64-bit Linux (checked by the `compile_error!` above), and
    // getrusage(RUSAGE_SELF, ..) writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed on a valid buffer");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    secs(&ru.ru_utime) + secs(&ru.ru_stime)
}

/// Peak resident set size of this process image so far, MiB: `VmHWM`
/// of `/proc/self/status`, `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_rss_is_positive() {
        let before = cpu_s();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_s() > before);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
