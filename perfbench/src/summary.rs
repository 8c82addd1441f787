//! Order statistics for the benchmark's own samples, and the digest its
//! output checks use. Kept separate from `tputpred-stats` so a change to
//! the code under test cannot change how it is measured.

/// Linearly interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest percentile of a timing sample that has at least ten
/// samples beyond it, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile as a fraction (`0.99` = p99); 1 (the maximum) when
    /// even the median has fewer than ten samples beyond it.
    pub q: f64,
    pub value: f64,
    pub n: usize,
}

pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    // Percentiles in per mille, so the count beyond is exact.
    let q = [999u32, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&per_mille| n * (1000 - per_mille as usize) >= 10_000)
        .map_or(1.0, |per_mille| f64::from(per_mille) / 1000.0);
    Tail {
        q,
        value: quantile(samples, q),
        n,
    }
}

/// 64-bit FNV-1a, continuing from `h` (start with [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a sequence of digests, in order.
pub fn fold_digests(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).q, 0.99);
        assert_eq!(tail(&xs[..100]).q, 0.9);
        assert_eq!(tail(&xs[..20]).q, 0.5);
        let small = tail(&xs[..5]);
        assert_eq!((small.q, small.value, small.n), (1.0, 4.0, 5));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
