//! Analog measurement-chain substrate for the PSA reproduction.
//!
//! Models the PCB and bench instruments of the paper's evaluation setup
//! (Sec. VI-A): each PSA output channel is amplified by a THS4504 op-amp
//! (50 dB DC gain, 200 MHz gain-bandwidth) and captured by an
//! oscilloscope / spectrum analyzer triggered on the 33 MHz clock.
//!
//! * [`opamp`] — single-pole op-amp model with saturation and
//!   input-referred noise.
//! * [`adc`] — sampling, quantization and aperture jitter.
//! * [`frontend`] — the composed sensor→amp→ADC chain.
//! * [`specan`] — spectrum-analyzer model: windowed FFT sweeps with
//!   RBW/averaging, plus the zero-span mode used for Fig 5.
//!
//! # Example
//!
//! ```
//! use psa_analog::opamp::OpAmp;
//!
//! let amp = OpAmp::ths4504();
//! // 50 dB DC gain = ×316.
//! assert!((amp.gain_at_hz(0.0) - 316.2).abs() < 1.0);
//! // Gain rolls off past the ~632 kHz closed-loop corner.
//! assert!(amp.gain_at_hz(100.0e6) < 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adc;
pub mod error;
pub mod frontend;
pub mod opamp;
pub mod specan;

pub use error::AnalogError;
