//! Mean-time-to-detect simulation (paper Sec. II-A, VI-D).
//!
//! In the run-time threat model the clock starts when the Trojan
//! *activates*; MTTD is the delay until the monitor flags it. The
//! monitor loop alternates acquisition (record time at 264 MS/s) and
//! processing (FFT + comparison on the RASC-class companion), watching
//! one sensor per iteration. The paper reports detection with fewer
//! than ten traces in under 10 ms; baseline methods need 100–10 000
//! traces and correspondingly longer.

use crate::acquisition::AcqContext;
use crate::chip::TestChip;
use crate::cross_domain::Baseline;
use crate::error::CoreError;
use crate::monitor::{ActivationSchedule, Monitor, SlidingConfig, SlidingDetector, StreamSource};
use crate::scenario::Scenario;

/// Timing model of the run-time monitor loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorTiming {
    /// Seconds to acquire one record (4096 samples at 264 MS/s plus
    /// retrigger overhead).
    pub acquisition_s: f64,
    /// Seconds to process one record (4096-point FFT + baseline compare
    /// on the companion FPGA).
    pub processing_s: f64,
}

impl Default for MonitorTiming {
    fn default() -> Self {
        MonitorTiming {
            // 65 536 samples / 264 MS/s = 248 µs, plus retrigger and
            // transfer overhead.
            acquisition_s: 300.0e-6,
            // Streaming 65 536-pt FFT on the companion FPGA plus the
            // baseline comparison.
            processing_s: 350.0e-6,
        }
    }
}

/// Result of one MTTD trial.
#[derive(Debug, Clone, PartialEq)]
pub struct MttdResult {
    /// Whether the Trojan was detected within the trial budget.
    pub detected: bool,
    /// Time from Trojan activation to detection, seconds.
    pub time_to_detect_s: f64,
    /// Traces consumed until detection.
    pub traces_used: usize,
    /// The sensor that fired.
    pub sensor: usize,
}

/// Runs one MTTD trial on a reusable per-worker context: the Trojan
/// activates at t = 0 and the monitor polls `sensor` with single
/// traces, comparing each new averaged window against the baseline.
///
/// `max_traces` bounds the trial (a non-detection returns
/// `detected = false` with the full budget spent).
///
/// This is a **thin batch adapter over the streaming monitor**: the
/// trial is a one-sensor [`Monitor`] session under a constant
/// [`ActivationSchedule`] (Trojan active from record 0) with the
/// batch-compatible [`SlidingConfig`] defaults — same per-record
/// seeding, same rolling window, same envelope comparison, same
/// f64-accumulation order, so results are bit-identical to the
/// historical replay loop (asserted by the workspace tests).
///
/// # Errors
///
/// Propagates acquisition errors.
pub fn mttd_trial_with(
    ctx: &mut AcqContext<'_>,
    scenario: &Scenario,
    baseline: &Baseline,
    sensor: usize,
    timing: &MonitorTiming,
    max_traces: usize,
) -> Result<MttdResult, CoreError> {
    let schedule = ActivationSchedule::constant(scenario.clone(), max_traces);
    mttd_trial_scheduled(ctx, &schedule, baseline, sensor, timing)
}

/// The schedule-driven trial: runs a one-sensor streaming monitor
/// session over `schedule` and reduces its event log to an
/// [`MttdResult`], with the MTTD clock starting at the schedule's first
/// Trojan-active record (record 0 for the batch-compatible constant
/// schedule).
///
/// Alarms fired before activation (false alarms) do not stop the
/// clock — but a false alarm whose flag is *still standing* when the
/// Trojan activates counts as an immediate detection (one trace, one
/// monitor tick): the detector only emits `Alarm` on the
/// quiet→alarmed transition, so no post-activation event would
/// otherwise mark it. A stream with no activation or no
/// post-activation alarm returns `detected = false` with the full
/// horizon spent.
///
/// # Errors
///
/// Propagates acquisition errors; the baseline must cover `sensor`.
pub fn mttd_trial_scheduled(
    ctx: &mut AcqContext<'_>,
    schedule: &ActivationSchedule,
    baseline: &Baseline,
    sensor: usize,
    timing: &MonitorTiming,
) -> Result<MttdResult, CoreError> {
    let detector = SlidingDetector::new(baseline, &[sensor], SlidingConfig::default())?;
    let mut monitor = Monitor::new(StreamSource::new(schedule.clone()), detector, *timing);
    let activation = schedule.first_activation_record();
    let per_tick_s = timing.acquisition_s + timing.processing_s;
    while !monitor.finished() {
        // A flag already up when the Trojan activates is a detection
        // the moment the activation record's iteration completes.
        let standing =
            Some(monitor.next_record()) == activation && monitor.detector().any_alarmed();
        let events = monitor.step(ctx)?;
        if standing {
            return Ok(MttdResult {
                detected: true,
                time_to_detect_s: per_tick_s,
                traces_used: 1,
                sensor,
            });
        }
        if let (Some(alarm), Some(act)) = (
            events
                .iter()
                .find(|e| e.is_alarm() && Some(e.record) >= activation),
            activation,
        ) {
            return Ok(MttdResult {
                detected: true,
                time_to_detect_s: alarm.elapsed_s - act as f64 * per_tick_s,
                traces_used: alarm.record - act + 1,
                sensor,
            });
        }
    }
    Ok(MttdResult {
        detected: false,
        time_to_detect_s: monitor.elapsed_s() - activation.unwrap_or(0) as f64 * per_tick_s,
        traces_used: schedule.horizon() - activation.unwrap_or(0),
        sensor,
    })
}

/// Aggregate MTTD over several trials with different seeds; returns
/// `(mean_time_s, mean_traces, detection_rate)`.
///
/// # Errors
///
/// Propagates trial errors.
pub fn mttd_campaign(
    chip: &TestChip,
    scenario_for_seed: impl Fn(u64) -> Scenario,
    baseline: &Baseline,
    sensor: usize,
    trials: usize,
) -> Result<(f64, f64, f64), CoreError> {
    let timing = MonitorTiming::default();
    let mut ctx = AcqContext::new(chip);
    let mut total_time = 0.0;
    let mut total_traces = 0.0;
    let mut detections = 0usize;
    for t in 0..trials {
        let scenario = scenario_for_seed(1000 + t as u64);
        let r = mttd_trial_with(&mut ctx, &scenario, baseline, sensor, &timing, 64)?;
        if r.detected {
            detections += 1;
            total_time += r.time_to_detect_s;
            total_traces += r.traces_used as f64;
        }
    }
    if detections == 0 {
        return Ok((f64::INFINITY, 64.0, 0.0));
    }
    Ok((
        total_time / detections as f64,
        total_traces / detections as f64,
        detections as f64 / trials as f64,
    ))
}

/// Equivalent detection latency for a baseline method that needs
/// `traces_needed` traces at `per_trace_s` seconds each (the Table I
/// comparison: 100 – >10 000 traces).
pub fn baseline_latency_s(traces_needed: usize, per_trace_s: f64) -> f64 {
    traces_needed as f64 * per_trace_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_timing_is_sub_1ms_per_iteration() {
        let t = MonitorTiming::default();
        assert!(t.acquisition_s + t.processing_s < 1.0e-3);
        assert!(t.acquisition_s > 0.0 && t.processing_s > 0.0);
    }

    #[test]
    fn ten_traces_fit_in_10ms() {
        // The paper's claim is structural: <10 traces at the monitor's
        // loop rate lands far inside 10 ms.
        let t = MonitorTiming::default();
        let ten = 10.0 * (t.acquisition_s + t.processing_s);
        assert!(ten < 10.0e-3, "ten traces take {ten} s");
    }

    #[test]
    fn baseline_latency_scales() {
        // A >10 000-trace method at 1 ms/trace takes >= 10 s — three
        // orders of magnitude beyond the PSA's 10 ms budget.
        assert!(baseline_latency_s(10_001, 1.0e-3) > 10.0);
        assert_eq!(baseline_latency_s(0, 1.0), 0.0);
    }

    // Full MTTD trials run in the workspace integration tests and the
    // `mttd` bench binary (they need the expensive chip build).
}
