//! Autocorrelation.
//!
//! The Trojan identification stage extracts zero-span envelope
//! periodicity from the autocorrelation, so all four Trojans can be told
//! apart without supervision (paper Fig 5).

use crate::error::DspError;
use crate::stats;

/// Lags summed together in one pass of [`autocorrelation`]'s kernel.
const LAG_BLOCK: usize = 16;

/// Biased autocorrelation for lags `0..max_lag`, normalized so lag 0
/// equals 1 (unless the signal has zero variance, in which case all lags
/// are 0).
///
/// One pass over the centred signal sums a block of 16 lags, so the
/// signal is read once per block rather than once per lag. Each lag
/// keeps its own accumulator summed in ascending sample order, so every
/// output is bit-identical to the one-lag-per-pass sum.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal or
/// [`DspError::InvalidLength`] when `max_lag` exceeds the signal length.
pub fn autocorrelation(x: &[f64], max_lag: usize) -> Result<Vec<f64>, DspError> {
    if x.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if max_lag > x.len() {
        return Err(DspError::InvalidLength {
            what: "autocorrelation max lag",
            got: max_lag,
        });
    }
    let m = stats::mean(x);
    let centered: Vec<f64> = x.iter().map(|v| v - m).collect();
    let denom: f64 = centered.iter().map(|v| v * v).sum();
    // Guard against effectively-constant signals: the mean subtraction
    // leaves rounding residue, so compare against the signal's own scale.
    let scale = x.iter().map(|v| v * v).sum::<f64>().max(f64::MIN_POSITIVE);
    if denom <= scale * 1e-24 {
        return Ok(vec![0.0; max_lag]);
    }
    let n = centered.len();
    let full = max_lag - max_lag % LAG_BLOCK;
    let mut out = Vec::with_capacity(max_lag);
    for start in (0..full).step_by(LAG_BLOCK) {
        // Every lag of the block has a partner for the first `common`
        // samples; the shorter lags finish their own tails afterwards.
        let common = n - (start + LAG_BLOCK - 1);
        let mut acc = [0.0; LAG_BLOCK];
        for (&a, w) in centered[..common]
            .iter()
            .zip(centered[start..].windows(LAG_BLOCK))
        {
            for (s, &b) in acc.iter_mut().zip(w) {
                *s += a * b;
            }
        }
        for (lag, s) in (start..).zip(acc) {
            let sum = lag_sum(s, &centered[common..n - lag], &centered[common + lag..]);
            out.push(sum / denom);
        }
    }
    for lag in full..max_lag {
        out.push(lag_sum(0.0, &centered[..n - lag], &centered[lag..]) / denom);
    }
    Ok(out)
}

/// Continues the lag sum `acc` over the products `a[i] * b[i]` in
/// ascending `i` (`b` may run past `a`; the extra samples are unused).
fn lag_sum(acc: f64, a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(acc, |s, (&p, &q)| s + p * q)
}

/// Estimates the dominant period (in samples) from an autocorrelation
/// `ac` (as returned by [`autocorrelation`]): the first prominent peak
/// after lag 0. Returns `None` when no periodicity is found.
pub fn dominant_period(ac: &[f64]) -> Option<usize> {
    if ac.len() < 3 {
        return None;
    }
    // Skip the lag-0 main lobe: wait until the autocorrelation first drops
    // below 0.5, then find the highest subsequent local maximum.
    let start = ac.iter().position(|&v| v < 0.5)?;
    let mut best: Option<(usize, f64)> = None;
    for lag in start.max(1)..ac.len() - 1 {
        if ac[lag] > ac[lag - 1] && ac[lag] >= ac[lag + 1] && ac[lag] > 0.2 {
            match best {
                Some((_, v)) if v >= ac[lag] => {}
                _ => best = Some((lag, ac[lag])),
            }
        }
    }
    best.map(|(lag, _)| lag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn autocorrelation_lag0_is_one() {
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let ac = autocorrelation(&x, 10).unwrap();
        assert!((ac[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_of_periodic_signal_peaks_at_period() {
        let period = 25;
        let x: Vec<f64> = (0..500)
            .map(|i| (2.0 * PI * i as f64 / period as f64).sin())
            .collect();
        let ac = autocorrelation(&x, 100).unwrap();
        assert!(ac[period] > 0.9);
        assert!(ac[period / 2] < -0.8);
    }

    #[test]
    fn autocorrelation_validates() {
        assert!(autocorrelation(&[], 5).is_err());
        assert!(autocorrelation(&[1.0, 2.0], 5).is_err());
    }

    #[test]
    fn autocorrelation_of_constant_is_zero() {
        let ac = autocorrelation(&[4.2; 50], 10).unwrap();
        assert!(ac.iter().all(|&v| v == 0.0));
    }

    /// One lag per pass, ascending sample order: the kernel's oracle.
    fn naive_autocorrelation(x: &[f64], max_lag: usize) -> Vec<f64> {
        let m = stats::mean(x);
        let centered: Vec<f64> = x.iter().map(|v| v - m).collect();
        let denom: f64 = centered.iter().map(|v| v * v).sum();
        let scale = x.iter().map(|v| v * v).sum::<f64>().max(f64::MIN_POSITIVE);
        if denom <= scale * 1e-24 {
            return vec![0.0; max_lag];
        }
        (0..max_lag)
            .map(|lag| {
                let mut acc = 0.0;
                for i in 0..x.len() - lag {
                    acc += centered[i] * centered[i + lag];
                }
                acc / denom
            })
            .collect()
    }

    fn assert_bitwise(x: &[f64], max_lag: usize) {
        let got = autocorrelation(x, max_lag).unwrap();
        let want = naive_autocorrelation(x, max_lag);
        assert_eq!(got.len(), max_lag);
        for (lag, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "len {} max_lag {max_lag} lag {lag}: {g} vs {w}",
                x.len()
            );
        }
    }

    fn lcg_signal(n: usize, mut state: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                1.0 + 0.5 * (i as f64 * 0.37).sin() + noise
            })
            .collect()
    }

    #[test]
    fn blocked_kernel_is_bitwise_naive_on_every_short_shape() {
        // Covers every block remainder and every `max_lag < LAG_BLOCK`.
        for len in 1..=70 {
            let x = lcg_signal(len, 0x5EED ^ len as u64);
            for max_lag in 0..=len {
                assert_bitwise(&x, max_lag);
            }
        }
    }

    #[test]
    fn blocked_kernel_is_bitwise_naive_on_the_envelope_shape() {
        // The zero-span identification envelope: 11 980 samples, 4 096
        // lags.
        assert_bitwise(&lcg_signal(11_980, 0xE4E1), 4096);
    }

    #[test]
    fn blocked_kernel_keeps_signed_zero_sums() {
        // Mean exactly 0, so the centred signal keeps its signed zeros:
        // every lag >= 2 sums only `±0.0` products, and a sum that starts
        // from `-0.0` (as `Iterator::sum` does) would flip the sign.
        let mut x = vec![1.0, -1.0];
        x.extend((0..38).map(|i| if i % 3 == 0 { -0.0 } else { 0.0 }));
        for max_lag in 0..=x.len() {
            assert_bitwise(&x, max_lag);
        }
        let ac = autocorrelation(&x, 40).unwrap();
        assert!(ac[2..].iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
        // Exact zeros scattered through a live signal.
        let mut y = lcg_signal(53, 7);
        for v in y.iter_mut().step_by(4) {
            *v = 0.0;
        }
        for v in y.iter_mut().skip(2).step_by(4) {
            *v = -0.0;
        }
        for max_lag in 0..=y.len() {
            assert_bitwise(&y, max_lag);
        }
    }

    #[test]
    fn blocked_kernel_keeps_the_constant_guard() {
        for len in [1, 17, 40] {
            for max_lag in 0..=len {
                assert_bitwise(&vec![4.2; len], max_lag);
                assert_bitwise(&vec![0.0; len], max_lag);
            }
        }
    }

    #[test]
    fn dominant_period_matches_the_two_pass_result() {
        // A sine's period, none for a constant or PN telegraph. The
        // pinned periods are what the former `dominant_period(x,
        // max_lag)`, which ran its own autocorrelation, returned.
        let sine: Vec<f64> = (0..800)
            .map(|i| (2.0 * PI * i as f64 / 40.0).sin())
            .collect();
        let mut state = 0x12345u64;
        let telegraph: Vec<f64> = (0..4096)
            .map(|i| {
                if i % 8 == 0 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                if (state >> 40) & 1 == 1 {
                    1.0
                } else {
                    0.45
                }
            })
            .collect();
        let cases: [(&[f64], usize, Option<usize>); 3] = [
            (&sine, 200, Some(40)),
            (&[1.0; 100], 50, None),
            (&telegraph, 2048, None),
        ];
        for (x, max_lag, pinned) in cases {
            let ac = autocorrelation(x, max_lag).unwrap();
            assert_eq!(dominant_period(&ac), pinned);
            assert_eq!(dominant_period(&naive_autocorrelation(x, max_lag)), pinned);
        }
    }
}
