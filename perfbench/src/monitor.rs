//! `monitor_stream`: run-time monitor sessions watching one sensor,
//! run serially in a closed loop. Each session is a seeded
//! `ActivationSchedule` whose Trojan switches on mid-stream. One op is
//! one tick (`Monitor::step`, which calls `SlidingDetector::observe`):
//! one record acquired, one FFT, one compare.

use crate::probe::{Acq, Probe};
use crate::stats::{digest, Rng};
use crate::trace::{timed, Tracer, NO_OP};
use crate::{
    input_seed, probe_self_check, repeat_setup, sensor_covers, workers, Args, Counts, OpRecord,
    Outcome, Phase, Unit, Workload,
};
use psa_core::acquisition::AcqContext;
use psa_core::calib;
use psa_core::chip::{SensorSelect, TestChip};
use psa_core::cross_domain::{AnalyzerConfig, Baseline};
use psa_core::monitor::{
    ActivationSchedule, Monitor, MonitorEvent, MonitorEventKind, MonitorReport, SlidingConfig,
    SlidingDetector, StreamSource,
};
use psa_core::mttd::MonitorTiming;
use psa_gatesim::trojan::TrojanKind;
use psa_runtime::engine::Engine;
use psa_runtime::monitor::{MonitorCampaign, MonitorJob};
use psa_runtime::Campaign;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

const STREAM: u64 = 0x5E55;
/// Sessions in the check window: four of each Trojan.
const WINDOW: usize = 16;
/// Upper bound on sessions per phase.
const MAX_SESSIONS: usize = 1 << 14;
/// The watched sensor: the PSA coil over the Trojans' corner, the one a
/// deployed single-sensor monitor would watch.
const SENSOR: usize = 10;
/// Records streamed after the Trojan switches on.
const TAIL: usize = 6;

struct Stream {
    chip: TestChip,
    baseline: Baseline,
    seed: u64,
}

struct SessionOut {
    ops: Vec<OpRecord>,
    unit: Option<Unit>,
    counts: Counts,
    problems: Vec<String>,
}

/// The deployed monitor's detector settings: decisions on averages of
/// at least two records.
fn config() -> SlidingConfig {
    SlidingConfig {
        min_window_records: 2,
        ..SlidingConfig::default()
    }
}

fn setup(seed: u64) -> Result<(Stream, f64, f64), String> {
    let (chip, chip_build) = timed(TestChip::date24);
    // Only the watched sensor's row is learned; the detector reads no other.
    let (row, baseline_s) = timed(|| {
        Baseline::sensor_db_with(
            &AnalyzerConfig::default(),
            &mut AcqContext::new(&chip),
            input_seed(seed, STREAM, usize::MAX),
            SENSOR,
        )
    });
    let mut per_sensor_db = vec![Vec::new(); SENSOR];
    per_sensor_db.push(row);
    let baseline = Baseline { per_sensor_db };
    SlidingDetector::new(&baseline, &[SENSOR], config()).map_err(|e| format!("detector: {e}"))?;
    Ok((
        Stream {
            chip,
            baseline,
            seed,
        },
        chip_build,
        baseline_s,
    ))
}

impl Stream {
    /// Session `j`: its Trojan, activation record and schedule.
    fn session(&self, j: usize) -> (TrojanKind, usize, ActivationSchedule) {
        let kind = TrojanKind::ALL[j % TrojanKind::ALL.len()];
        let mut rng = Rng::new(input_seed(self.seed, STREAM, j));
        let at = rng.range(3, 6);
        let schedule =
            ActivationSchedule::trojan_at(kind, at, at + TAIL).with_seed(rng.next_u64() >> 16);
        (kind, at, schedule)
    }

    fn phase(&self, seconds: f64, tracer: &Tracer) -> Phase {
        let campaign = Campaign::new(&self.chip, Engine::serial());
        let ids: Vec<usize> = (0..MAX_SESSIONS).collect();
        let origin = tracer.now();
        let deadline = origin + seconds;
        // One probe for the whole phase, with its own reference context:
        // a tick acquires one record, and the context the op just used
        // would be cache-warm where the replay's buffers are not, tilting
        // the acquisition-coverage comparison by several percent.
        let probe = Mutex::new((Probe::new(tracer, NO_OP, None), AcqContext::new(&self.chip)));
        let results = tracer.span("runtime.map", NO_OP, None, |map| {
            campaign.run(&ids, |ctx, _, &j| {
                if j >= WINDOW && tracer.now() >= deadline {
                    return None;
                }
                Some(Box::new(tracer.span("runtime.job", NO_OP, map, |job| {
                    self.run_session(ctx, j, tracer, job, deadline, &probe)
                })))
            })
        });
        let mut phase = Phase {
            workers: 1,
            origin,
            deadline,
            window: WINDOW,
            ..Phase::default()
        };
        for (j, out) in results.into_iter().enumerate() {
            let Some(out) = out else { continue };
            phase.ops.extend(out.ops);
            phase.counts += out.counts;
            if j < WINDOW {
                phase.window_counts += out.counts;
                phase.window_counts.jobs += 1;
            }
            phase.units.extend(out.unit);
            phase.problems.extend(out.problems);
        }
        phase
    }

    fn run_session(
        &self,
        ctx: &mut AcqContext<'_>,
        j: usize,
        tracer: &Tracer,
        job: Option<usize>,
        deadline: f64,
        probe: &Mutex<(Probe<'_>, AcqContext<'_>)>,
    ) -> SessionOut {
        let (kind, at, schedule) = self.session(j);
        let mut out = SessionOut {
            ops: Vec::new(),
            unit: None,
            counts: Counts::default(),
            problems: Vec::new(),
        };
        let detector = match SlidingDetector::new(&self.baseline, &[SENSOR], config()) {
            Ok(d) => d,
            Err(e) => {
                out.problems
                    .push(format!("monitor_stream session {j}: {e}"));
                return out;
            }
        };
        let mut monitor = Monitor::new(
            StreamSource::new(schedule.clone()),
            detector,
            MonitorTiming::default(),
        );
        let mut probe = probe.lock().expect("probe lock poisoned");
        while !monitor.finished() {
            if j >= WINDOW && tracer.now() >= deadline {
                return out;
            }
            let record = monitor.next_record();
            let id = ((j as u64) << 16) | record as u64;
            let rec = tracer.span("op", id, job, |op| {
                let start = tracer.now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    tracer.span("core.call", id, op, |_| monitor.step(ctx).map(|_| ()))
                }));
                let end = tracer.now();
                if let Ok(Err(e)) = &result {
                    eprintln!("monitor_stream session {j} tick {record}: {e}");
                }
                OpRecord {
                    id,
                    start,
                    end,
                    ok: matches!(result, Ok(Ok(()))),
                    cache_miss: false,
                    custom_acqs: 0,
                }
            });
            out.ops.push(rec);
            if !rec.ok {
                return out;
            }
            let acq = Acq {
                scenario: schedule.scenario_at(record),
                sensor: SensorSelect::Psa(SENSOR),
                records: 1,
                record_cycles: calib::RECORD_CYCLES,
            };
            out.counts += Counts::of_op(std::slice::from_ref(&acq), 1);
            if tracer.enabled() {
                let probed = tracer.span("probe", id, job, |p| {
                    let (probe, reference) = &mut *probe;
                    probe.rebind(id, p);
                    probe.acquire(reference, &acq)?;
                    let row = &probe.replayed().records[0];
                    probe
                        .span("dsp.fft", || {
                            reference.fullres_amplitude_row(row).map(|_| ())
                        })
                        .map_err(|e| format!("amplitude row: {e}"))
                });
                if let Err(e) = probed {
                    out.problems
                        .push(format!("monitor_stream session {j} tick {record}: {e}"));
                }
            }
        }
        let report = monitor.report(Some(SENSOR));
        let (wrong, false_alarm) = self.judge(kind, at, monitor.events(), &report);
        out.unit = Some(Unit {
            index: j,
            digest: digest(&(monitor.events(), &report)),
            wrong,
            false_alarm,
            quality: mttd_sim_ms(&monitor, at),
        });
        out
    }

    /// Why a session disagrees with its schedule, if it does, and
    /// whether the disagreement is a false alarm.
    fn judge(
        &self,
        kind: TrojanKind,
        at: usize,
        events: &[MonitorEvent],
        report: &MonitorReport,
    ) -> (Option<String>, bool) {
        if !report.detected {
            return (Some(format!("{kind:?} missed")), false);
        }
        match report.localized_sensor {
            Some(s) if sensor_covers(&self.chip, s, kind) => {}
            other => return (Some(format!("{kind:?} localized to {other:?}")), false),
        }
        if report.false_alarms == 0 {
            return (None, false);
        }
        let records: Vec<usize> = events
            .iter()
            .filter(|e| e.record < at && matches!(e.kind, MonitorEventKind::Alarm { .. }))
            .map(|e| e.record)
            .collect();
        let why = format!(
            "false alarm at record(s) {records:?}, before {kind:?} switched on at record {at}"
        );
        (Some(why), true)
    }

    /// Session digests of the window on the engine's workers, through
    /// the runtime's own monitor campaign.
    fn cross_check(&self, workers: usize) -> Vec<u64> {
        let jobs: Vec<MonitorJob> = (0..WINDOW)
            .map(|j| {
                MonitorJob::new(format!("session {j}"), self.session(j).2)
                    .with_sensors(&[SENSOR])
                    .with_config(config())
                    .expecting(SENSOR)
            })
            .collect();
        match MonitorCampaign::with_baseline(
            &self.chip,
            Engine::new(workers),
            self.baseline.clone(),
        )
        .run(&jobs)
        {
            Ok(outcomes) => outcomes
                .iter()
                .map(|o| digest(&(&o.events[..], &o.report)))
                .collect(),
            Err(e) => vec![digest(&e.to_string())],
        }
    }
}

/// Simulated time from the Trojan switching on to the first alarm, ms:
/// cycles on the modelled chip's 33 MHz clock, from the start of the
/// activation record to the end of the alarming record.
fn mttd_sim_ms(monitor: &Monitor, at: usize) -> Option<f64> {
    let start = (at * calib::RECORD_CYCLES) as u64;
    monitor
        .events()
        .iter()
        .find(|e| e.record >= at && matches!(e.kind, MonitorEventKind::Alarm { .. }))
        .map(|e| (e.cycle - start) as f64 / calib::CLK_HZ * 1e3)
}

/// Runs `monitor_stream`.
///
/// # Errors
///
/// A set-up failure or a failed probe self-check.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (state, setup) = repeat_setup(|| setup(args.seed))?;
    let untraced = state.phase(args.seconds, &Tracer::new(false));
    let traced = if args.trace {
        let tracer = Tracer::new(true);
        probe_self_check(&state.chip, &tracer)?;
        let mut phase = state.phase(args.seconds, &tracer);
        phase.spans = tracer.into_spans();
        Some(phase)
    } else {
        None
    };
    let cross_workers = workers();
    Ok(Outcome {
        workload: Workload::MonitorStream,
        setup,
        untraced,
        traced,
        cross_check: state.cross_check(cross_workers),
        cross_workers,
    })
}
