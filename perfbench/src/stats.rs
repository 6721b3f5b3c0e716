//! Small statistics and bookkeeping helpers: quantiles, output digests
//! and the process's peak resident memory.

use std::fmt::Debug;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (any order).
/// Returns `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Number of samples strictly above the `q` quantile.
pub fn beyond(xs: &[f64], q: f64) -> usize {
    let cut = quantile(xs, q);
    xs.iter().filter(|&&x| x > cut).count()
}

/// FNV-1a over the `Debug` rendering of a value. `Debug` prints every
/// `f64` in its shortest round-trip form, so two values digest equal
/// exactly when they are equal bit for bit (up to the sign of NaN).
pub fn digest<T: Debug>(value: &T) -> u64 {
    let text = format!("{value:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64: the benchmark's own input generator, so inputs depend
/// only on `--seed` and never on library internals.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
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
        assert_eq!(beyond(&xs, 0.5), 2);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_separates_bitwise_distinct_floats() {
        assert_eq!(digest(&(1.0f64, 2u8)), digest(&(1.0f64, 2u8)));
        assert_ne!(
            digest(&0.1f64),
            digest(&f64::from_bits(0.1f64.to_bits() + 1))
        );
        assert_ne!(digest(&0.0f64), digest(&-0.0f64));
    }
}
