//! Autocorrelation.
//!
//! The Trojan identification stage extracts zero-span envelope
//! periodicity from the autocorrelation, so all four Trojans can be told
//! apart without supervision (paper Fig 5).

use crate::error::DspError;
use crate::stats;

/// Biased autocorrelation for lags `0..max_lag`, normalized so lag 0
/// equals 1 (unless the signal has zero variance, in which case all lags
/// are 0).
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
    let mut out = Vec::with_capacity(max_lag);
    for lag in 0..max_lag {
        let mut acc = 0.0;
        for i in 0..x.len() - lag {
            acc += centered[i] * centered[i + lag];
        }
        out.push(acc / denom);
    }
    Ok(out)
}

/// Estimates the dominant period of a signal (in samples) from the first
/// prominent autocorrelation peak after lag 0. Returns `None` when no
/// periodicity is found.
pub fn dominant_period(x: &[f64], max_lag: usize) -> Option<usize> {
    let ac = autocorrelation(x, max_lag.min(x.len())).ok()?;
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

    #[test]
    fn dominant_period_of_sine() {
        let period = 40;
        let x: Vec<f64> = (0..800)
            .map(|i| (2.0 * PI * i as f64 / period as f64).sin())
            .collect();
        let p = dominant_period(&x, 200).unwrap();
        assert!((p as i64 - period as i64).abs() <= 1, "period {p}");
    }

    #[test]
    fn dominant_period_absent_for_constant() {
        assert_eq!(dominant_period(&[1.0; 100], 50), None);
    }
}
