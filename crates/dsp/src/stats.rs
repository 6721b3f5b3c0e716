//! Batch statistics.
//!
//! The SNR procedure (paper Eq. 1) is an RMS ratio; the envelope
//! classification extracts moments (variance, kurtosis) and
//! robust statistics (median, MAD, percentiles) as features. Everything
//! here is allocation-light and deterministic.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance (divides by `n`). Returns 0 for slices with < 2
/// elements.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root-mean-square value; the quantity in the paper's SNR equation.
///
/// # Example
///
/// ```
/// use psa_dsp::stats::rms;
/// // RMS of a unit sine is 1/sqrt(2).
/// let x: Vec<f64> = (0..10000)
///     .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 100.0).sin())
///     .collect();
/// assert!((rms(&x) - 1.0 / 2f64.sqrt()).abs() < 1e-3);
/// ```
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// Median (by sorting a copy). Returns 0 for an empty slice.
pub fn median(x: &[f64]) -> f64 {
    percentile(x, 50.0)
}

/// Percentile in `[0, 100]` with linear interpolation between order
/// statistics. Returns 0 for an empty slice; clamps `p` into range.
pub fn percentile(x: &[f64], p: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut sorted = x.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let p = p.clamp(0.0, 100.0);
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median absolute deviation (robust spread). Returns 0 for an empty
/// slice.
pub fn mad(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let med = median(x);
    let devs: Vec<f64> = x.iter().map(|v| (v - med).abs()).collect();
    median(&devs)
}

/// Excess kurtosis (fourth standardized moment minus 3). Returns 0 when
/// the variance vanishes or fewer than 4 samples are given.
pub fn kurtosis_excess(x: &[f64]) -> f64 {
    if x.len() < 4 {
        return 0.0;
    }
    let m = mean(x);
    let s = std_dev(x);
    if s == 0.0 {
        return 0.0;
    }
    x.iter().map(|v| ((v - m) / s).powi(4)).sum::<f64>() / x.len() as f64 - 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&x) - 5.0).abs() < 1e-12);
        assert!((variance(&x) - 4.0).abs() < 1e-12);
        assert!((std_dev(&x) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mad(&[]), 0.0);
        assert_eq!(kurtosis_excess(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn rms_of_constant() {
        assert!((rms(&[3.0; 100]) - 3.0).abs() < 1e-12);
        assert!((rms(&[-3.0; 100]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let x = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&x, 0.0), 10.0);
        assert_eq!(percentile(&x, 100.0), 40.0);
        assert!((percentile(&x, 50.0) - 25.0).abs() < 1e-12);
        // Out-of-range p is clamped.
        assert_eq!(percentile(&x, -5.0), 10.0);
        assert_eq!(percentile(&x, 150.0), 40.0);
    }

    #[test]
    fn mad_is_robust_to_outlier() {
        let clean = [1.0, 2.0, 3.0, 4.0, 5.0];
        let spiked = [1.0, 2.0, 3.0, 4.0, 1000.0];
        assert!((mad(&clean) - mad(&spiked)).abs() < 1.01);
        assert!(std_dev(&spiked) > 100.0 * std_dev(&clean));
    }

    #[test]
    fn kurtosis_of_two_level_signal_is_minus_two() {
        // A ±1 square wave has kurtosis 1, excess -2.
        let sq: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!((kurtosis_excess(&sq) + 2.0).abs() < 1e-9);
    }
}
