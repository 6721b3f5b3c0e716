//! The composed measurement chain: sensor EMF → op-amp → ADC.
//!
//! One `Sensor{1..4}±` channel of the test-chip PCB: the differential
//! coil output enters a THS4504 stage and is digitized. Noise enters as
//! sensor-referred RMS (coil thermal + ambient, supplied by the caller,
//! since it depends on which probe geometry is in use) plus the
//! amplifier's own input noise.

use crate::adc::Adc;
use crate::error::AnalogError;
use crate::opamp::OpAmp;
use psa_field::noise::GaussianNoise;

/// The per-channel analog front end.
///
/// # Example
///
/// ```
/// use psa_analog::frontend::AnalogFrontEnd;
///
/// let fe = AnalogFrontEnd::date24(42);
/// let v = vec![1.0e-5; 4096];
/// let mut out = Vec::new();
/// fe.capture_record_into(&v, 264.0e6, 0.0, 0, &mut out)?;
/// assert_eq!(out.len(), 4096);
/// # Ok::<(), psa_analog::AnalogError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnalogFrontEnd {
    amp: OpAmp,
    adc: Adc,
    seed: u64,
}

impl AnalogFrontEnd {
    /// The test-chip PCB chain: THS4504 + RASC-class ADC.
    pub fn date24(seed: u64) -> Self {
        AnalogFrontEnd {
            amp: OpAmp::ths4504(),
            adc: Adc::rasc(),
            seed,
        }
    }

    /// Builds a custom chain.
    pub fn new(amp: OpAmp, adc: Adc, seed: u64) -> Self {
        AnalogFrontEnd { amp, adc, seed }
    }

    /// The amplifier stage.
    pub fn amp(&self) -> &OpAmp {
        &self.amp
    }

    /// The ADC stage.
    pub fn adc(&self) -> &Adc {
        &self.adc
    }

    /// Captures one record into a caller-owned buffer (cleared first):
    /// adds sensor-referred noise (`sensor_noise_vrms`, from the probe
    /// model) and amplifier input noise, amplifies, and quantizes, all in
    /// that one buffer, so a per-worker acquisition context performs zero
    /// allocations per record after warm-up. Deterministic per
    /// `(seed, record_index)`, so repeated acquisitions see fresh (yet
    /// reproducible) noise.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::EmptyInput`] for an empty record or
    /// [`AnalogError::InvalidParameter`] for a non-positive sample rate.
    pub fn capture_record_into(
        &self,
        sensor_v: &[f64],
        fs_hz: f64,
        sensor_noise_vrms: f64,
        record_index: u64,
        out: &mut Vec<f64>,
    ) -> Result<(), AnalogError> {
        if sensor_v.is_empty() {
            return Err(AnalogError::EmptyInput);
        }
        if fs_hz <= 0.0 {
            return Err(AnalogError::InvalidParameter {
                what: "sample rate must be positive",
            });
        }
        let amp_noise = self.amp.input_noise_vrms(fs_hz / 2.0);
        let sigma = (sensor_noise_vrms * sensor_noise_vrms + amp_noise * amp_noise).sqrt();
        out.clear();
        out.extend_from_slice(sensor_v);
        if sigma > 0.0 {
            let mut g = GaussianNoise::new(
                sigma,
                self.seed ^ record_index.wrapping_mul(0x9E3779B97F4A7C15),
            );
            g.add_to(out);
        }
        self.amp.amplify_in_place(out, fs_hz);
        self.adc.quantize_in_place(out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn record(fe: &AnalogFrontEnd, x: &[f64], fs: f64, noise: f64, idx: u64) -> Vec<f64> {
        let mut out = Vec::new();
        fe.capture_record_into(x, fs, noise, idx, &mut out).unwrap();
        out
    }

    #[test]
    fn chain_amplifies_tone() {
        // Project the output onto the tone phasor (Goertzel-style) so
        // amplifier noise and quantization don't bias the gain estimate.
        let fe = AnalogFrontEnd::date24(1);
        let fs = 264.0e6;
        let f0 = 48.0e6;
        let n = 16384;
        let a_in = 2.0e-3;
        let x: Vec<f64> = (0..n)
            .map(|i| a_in * (2.0 * PI * f0 * i as f64 / fs).sin())
            .collect();
        let y = record(&fe, &x, fs, 0.0, 0);
        let mut re = 0.0;
        let mut im = 0.0;
        for (i, &v) in y.iter().enumerate().skip(n / 4) {
            let ph = 2.0 * PI * f0 * i as f64 / fs;
            re += v * ph.cos();
            im += v * ph.sin();
        }
        let count = (n - n / 4) as f64;
        let a_out = 2.0 * re.hypot(im) / count;
        let gain = a_out / a_in;
        let expected = fe.amp().gain_at_hz(f0);
        assert!(
            (gain / expected - 1.0).abs() < 0.35,
            "gain {gain} vs expected {expected}"
        );
    }

    #[test]
    fn noise_floor_present_with_zero_signal() {
        let fe = AnalogFrontEnd::date24(2);
        let x = vec![0.0; 8192];
        let y = record(&fe, &x, 264.0e6, 1.0e-5, 0);
        let rms = (y.iter().map(|v| v * v).sum::<f64>() / y.len() as f64).sqrt();
        assert!(rms > 0.0, "noise must appear at the output");
    }

    #[test]
    fn records_differ_but_are_reproducible() {
        let fe = AnalogFrontEnd::date24(3);
        let x = vec![0.0; 1024];
        let a = record(&fe, &x, 264.0e6, 1e-5, 0);
        let b = record(&fe, &x, 264.0e6, 1e-5, 1);
        let a2 = record(&fe, &x, 264.0e6, 1e-5, 0);
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn validates_inputs() {
        let fe = AnalogFrontEnd::date24(4);
        let mut out = Vec::new();
        assert!(fe
            .capture_record_into(&[], 264.0e6, 0.0, 0, &mut out)
            .is_err());
        assert!(fe
            .capture_record_into(&[0.0], 0.0, 0.0, 0, &mut out)
            .is_err());
    }

    #[test]
    fn capture_into_reuses_buffer() {
        let fe = AnalogFrontEnd::date24(6);
        let x: Vec<f64> = (0..2048).map(|i| 1e-4 * (i as f64 * 0.03).sin()).collect();
        let mut buf = vec![7.7; 999]; // stale contents must not leak through
        for idx in 0..3u64 {
            fe.capture_record_into(&x, 264.0e6, 1e-5, idx, &mut buf)
                .unwrap();
            let fresh = record(&fe, &x, 264.0e6, 1e-5, idx);
            assert_eq!(buf, fresh, "record {idx}");
        }
        assert!(fe
            .capture_record_into(&[], 264.0e6, 0.0, 0, &mut buf)
            .is_err());
    }

    #[test]
    fn output_is_quantized() {
        let fe = AnalogFrontEnd::date24(5);
        let x: Vec<f64> = (0..512).map(|i| 1e-4 * (i as f64 * 0.05).sin()).collect();
        let y = record(&fe, &x, 264.0e6, 0.0, 0);
        let lsb = fe.adc().lsb();
        for v in y {
            let steps = v / lsb;
            assert!((steps - steps.round()).abs() < 1e-9);
        }
    }
}
