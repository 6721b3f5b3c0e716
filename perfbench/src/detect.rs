//! `detect_localize`: the paper's Sec. VI-D pipeline
//! (`CrossDomainAnalyzer::analyze_with`) on seeded scenarios cycling
//! clean / T1 / T2 / T3 / T4, fanned across the engine's workers with
//! `Campaign::run` in a closed loop. One op is one verdict: 16 sensors ×
//! 5 records, then the zero-span identification on the localized
//! sensor.

use crate::probe::{Acq, Probe};
use crate::stats::digest;
use crate::trace::{timed, Tracer, NO_OP};
use crate::{
    input_seed, probe_self_check, repeat_setup, sensor_covers, workers, Args, Counts, OpRecord,
    Outcome, Phase, Unit, Workload,
};
use psa_core::acquisition::AcqContext;
use psa_core::calib;
use psa_core::chip::{SensorSelect, TestChip};
use psa_core::cross_domain::{AnalyzerConfig, Baseline, CrossDomainAnalyzer, Verdict};
use psa_core::identify::TemplateLibrary;
use psa_core::scenario::Scenario;
use psa_dsp::peak::local_max_envelope;
use psa_gatesim::trojan::TrojanKind;
use psa_runtime::engine::Engine;
use psa_runtime::Campaign;
use std::panic::{catch_unwind, AssertUnwindSafe};

const STREAM: u64 = 0xD7EC;
/// Verdicts in the check window: one of each scenario kind.
const WINDOW: usize = 5;
/// Upper bound on ops per phase (ops past the deadline are skipped).
const MAX_OPS: usize = 1 << 16;
const KINDS: [Option<TrojanKind>; 5] = [
    None,
    Some(TrojanKind::T1),
    Some(TrojanKind::T2),
    Some(TrojanKind::T3),
    Some(TrojanKind::T4),
];
/// Records `identify::signature_from_parts_with` zero-spans.
const ZERO_SPAN_RECORDS: usize = 6;
/// Half-width of the baseline envelope in `analyze_with`.
const ENVELOPE_HALF_WINDOW: usize = 8;

struct Detect {
    chip: TestChip,
    baseline: Baseline,
    templates: TemplateLibrary,
    seed: u64,
}

struct OpOut {
    rec: OpRecord,
    unit: Option<Unit>,
    counts: Counts,
    problem: Option<String>,
}

fn setup(seed: u64, workers: usize) -> Result<(Detect, f64, f64), String> {
    let (chip, chip_build) = timed(TestChip::date24);
    let (baseline, baseline_s) = timed(|| {
        Campaign::new(&chip, Engine::new(workers)).learn_baseline(input_seed(
            seed,
            STREAM,
            usize::MAX,
        ))
    });
    let templates =
        TemplateLibrary::reference(&chip).map_err(|e| format!("template library: {e}"))?;
    let detect = Detect {
        chip,
        baseline,
        templates,
        seed,
    };
    Ok((detect, chip_build, baseline_s))
}

impl Detect {
    fn scenario(&self, i: usize) -> Scenario {
        let base = match KINDS[i % KINDS.len()] {
            None => Scenario::baseline(),
            Some(k) => Scenario::trojan_active(k),
        };
        base.with_seed(input_seed(self.seed, STREAM, i))
    }

    fn analyzer(&self) -> CrossDomainAnalyzer<'_> {
        CrossDomainAnalyzer::with_templates(
            &self.chip,
            AnalyzerConfig::default(),
            self.templates.clone(),
        )
    }

    fn phase(&self, seconds: f64, tracer: &Tracer, workers: usize) -> Phase {
        let analyzer = self.analyzer();
        let campaign = Campaign::new(&self.chip, Engine::new(workers));
        let ids: Vec<usize> = (0..MAX_OPS).collect();
        let origin = tracer.now();
        let deadline = origin + seconds;
        let results = tracer.span("runtime.map", NO_OP, None, |map| {
            campaign.run(&ids, |ctx, _, &i| {
                if i >= WINDOW && tracer.now() >= deadline {
                    return None;
                }
                Some(Box::new(tracer.span("runtime.job", i as u64, map, |job| {
                    self.op(&analyzer, ctx, i, tracer, job)
                })))
            })
        });
        let mut phase = Phase {
            workers,
            origin,
            deadline,
            window: WINDOW,
            ..Phase::default()
        };
        for (i, out) in results.into_iter().enumerate() {
            let Some(out) = out else { continue };
            phase.ops.push(out.rec);
            if out.rec.ok {
                phase.counts += out.counts;
                if i < WINDOW {
                    phase.window_counts += out.counts;
                }
            }
            phase.units.extend(out.unit);
            phase.problems.extend(out.problem);
        }
        phase
    }

    fn op(
        &self,
        analyzer: &CrossDomainAnalyzer<'_>,
        ctx: &mut AcqContext<'_>,
        i: usize,
        tracer: &Tracer,
        job: Option<usize>,
    ) -> OpOut {
        let id = i as u64;
        let scenario = self.scenario(i);
        let kind = KINDS[i % KINDS.len()];
        let (rec, verdict, unit) = tracer.span("op", id, job, |op| {
            let start = tracer.now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                tracer.span("core.call", id, op, |_| {
                    analyzer.analyze_with(ctx, &scenario, &self.baseline)
                })
            }));
            let end = tracer.now();
            let verdict = match result {
                Ok(Ok(v)) => Some(v),
                Ok(Err(e)) => {
                    eprintln!("detect_localize op {i}: {e}");
                    None
                }
                Err(_) => None,
            };
            let rec = OpRecord {
                id,
                start,
                end,
                ok: verdict.is_some(),
                cache_miss: false,
                custom_acqs: 0,
            };
            let unit = verdict.as_ref().map(|v| Unit {
                index: i,
                digest: digest(v),
                wrong: self.judge(kind, v),
                false_alarm: kind.is_none() && v.detected,
                quality: None,
            });
            (rec, verdict, unit)
        });
        let Some(verdict) = verdict else {
            return OpOut {
                rec,
                unit,
                counts: Counts::default(),
                problem: None,
            };
        };
        let acqs = self.plan(&scenario, &verdict);
        let ffts =
            (self.chip.sensor_bank().len() * AnalyzerConfig::default().traces_per_sensor) as u64;
        let counts = Counts {
            jobs: 1,
            ..Counts::of_op(&acqs, ffts)
        };
        let problem = if tracer.enabled() {
            tracer
                .span("probe", id, job, |p| {
                    self.probe(ctx, &acqs, &verdict, &mut Probe::new(tracer, id, p))
                })
                .err()
                .map(|e| format!("detect_localize op {i}: {e}"))
        } else {
            None
        };
        OpOut {
            rec,
            unit,
            counts,
            problem,
        }
    }

    /// Why a verdict disagrees with its scenario, if it does.
    fn judge(&self, kind: Option<TrojanKind>, v: &Verdict) -> Option<String> {
        match (kind, v.detected) {
            (None, false) => None,
            (None, true) => Some("false alarm on a clean scenario".into()),
            (Some(k), false) => Some(format!("{k:?} missed")),
            (Some(k), true) => {
                let Some(sensor) = v.localized_sensor else {
                    return Some(format!("{k:?} detected without a localized sensor"));
                };
                if !sensor_covers(&self.chip, sensor, k) {
                    Some(format!(
                        "{k:?} localized to sensor {sensor}, which does not cover it"
                    ))
                } else if v.identified != Some(k) {
                    Some(format!("{k:?} identified as {:?}", v.identified))
                } else {
                    None
                }
            }
        }
    }

    /// The acquisitions `analyze_with` makes for this verdict.
    fn plan(&self, scenario: &Scenario, verdict: &Verdict) -> Vec<Acq> {
        let acq = |sensor, records| Acq {
            scenario: scenario.clone(),
            sensor: SensorSelect::Psa(sensor),
            records,
            record_cycles: calib::RECORD_CYCLES,
        };
        let per_sensor = AnalyzerConfig::default().traces_per_sensor;
        let mut acqs: Vec<Acq> = (0..self.chip.sensor_bank().len())
            .map(|s| acq(s, per_sensor))
            .collect();
        acqs.extend(
            verdict
                .localized_sensor
                .map(|top| acq(top, ZERO_SPAN_RECORDS)),
        );
        acqs
    }

    /// Replays the verdict's acquisitions, spectra and zero-span, and
    /// checks the replayed spectra reproduce the verdict's decision
    /// statistic bit for bit.
    fn probe(
        &self,
        ctx: &mut AcqContext<'_>,
        acqs: &[Acq],
        verdict: &Verdict,
        probe: &mut Probe<'_>,
    ) -> Result<(), String> {
        let sensors = self.chip.sensor_bank().len();
        let mut peak = f64::NEG_INFINITY;
        for (s, acq) in acqs.iter().take(sensors).enumerate() {
            probe.acquire(ctx, acq)?;
            let traces = probe.replayed();
            let spec = probe
                .span("dsp.fft", || ctx.fullres_spectrum_db(traces))
                .map_err(|e| format!("spectrum: {e}"))?;
            let env = local_max_envelope(&self.baseline.per_sensor_db[s], ENVELOPE_HALF_WINDOW);
            let sensor_peak = spec
                .iter()
                .zip(&env)
                .map(|(a, b)| a - b)
                .fold(f64::NEG_INFINITY, f64::max);
            peak = peak.max(sensor_peak);
        }
        if peak.to_bits() != verdict.peak_excess_db.to_bits() {
            return Err(format!(
                "replayed spectra give peak excess {peak} dB, the verdict {} dB",
                verdict.peak_excess_db
            ));
        }
        if let (Some(acq), Some(line)) = (acqs.get(sensors), verdict.prominent_freq_hz) {
            probe.acquire(ctx, acq)?;
            let concat = probe.replayed().concatenated();
            let specan = ctx.specan().clone();
            probe
                .span("analog.zero_span", || {
                    specan.zero_span_trace_rbw(
                        &concat,
                        calib::sample_rate_hz(),
                        line,
                        calib::IDENTIFY_RBW_HZ,
                    )
                })
                .map_err(|e| format!("zero span: {e}"))?;
        }
        Ok(())
    }

    /// Window verdict digests on one worker.
    fn cross_check(&self) -> Vec<u64> {
        let analyzer = self.analyzer();
        let ids: Vec<usize> = (0..WINDOW).collect();
        Campaign::new(&self.chip, Engine::serial()).run(&ids, |ctx, _, &i| {
            analyzer
                .analyze_with(ctx, &self.scenario(i), &self.baseline)
                .map_or_else(|e| digest(&e.to_string()), |v| digest(&v))
        })
    }
}

/// Runs `detect_localize`.
///
/// # Errors
///
/// A set-up failure or a failed probe self-check.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let workers = workers();
    let (state, setup) = repeat_setup(|| setup(args.seed, workers))?;
    let untraced = state.phase(args.seconds, &Tracer::new(false), workers);
    let traced = if args.trace {
        let tracer = Tracer::new(true);
        probe_self_check(&state.chip, &tracer)?;
        let mut phase = state.phase(args.seconds, &tracer, workers);
        phase.spans = tracer.into_spans();
        Some(phase)
    } else {
        None
    };
    Ok(Outcome {
        workload: Workload::DetectLocalize,
        setup,
        untraced,
        traced,
        cross_check: state.cross_check(),
        cross_workers: 1,
    })
}
