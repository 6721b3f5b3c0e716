//! `program_search`: the beam search over custom switch-matrix
//! programmings, one search per Trojan in turn, on the engine's
//! workers. One op is one programming evaluation
//! (`progsearch::score_program_with`: 2 × 2 records of 2048 cycles and
//! 16 384-point spectra). It is the only workload that builds sensors:
//! each new programming costs a `TestChip::synthesize_custom` flux
//! integral on a miss of the worker context's custom-sensor cache.
//!
//! The search loop is `psa_runtime::progsearch::ProgramSearch::search`
//! driven one round at a time through `Campaign::run`, so each
//! evaluation is timed on its own; the check window compares every
//! report with the library's own `search` on one worker.

use crate::probe::{Acq, Probe};
use crate::stats::digest;
use crate::trace::{timed, Tracer, NO_OP};
use crate::{
    input_seed, probe_self_check, repeat_setup, workers, Args, Counts, OpRecord, Outcome, Phase,
    Unit, Workload,
};
use psa_array::program::CoilProgram;
use psa_core::acquisition::{AcqContext, TraceSet};
use psa_core::chip::{SensorSelect, TestChip};
use psa_core::progsearch::{
    cmp_scores, eval_scenario_pair, neighbors, score_program_with, DetectionSnr, ProgramScore,
    ProgramSearchConfig,
};
use psa_dsp::peak::local_max_envelope;
use psa_gatesim::trojan::TrojanKind;
use psa_runtime::engine::Engine;
use psa_runtime::progsearch::{ProgramSearch, RoundSummary, SearchReport};
use psa_runtime::Campaign;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

const STREAM: u64 = 0x5EA4;
/// Searches in the check window: one per Trojan.
const WINDOW: usize = 4;
/// Upper bound on searches per phase.
const MAX_SEARCHES: usize = 1 << 12;
/// Fixed-probe reference rows of one search.
type ProbeRows = Vec<(SensorSelect, DetectionSnr)>;

struct Search {
    chip: TestChip,
    config: ProgramSearchConfig,
    seed: u64,
    /// `ProgramSearch::probe_baselines` of each window search.
    probe_rows: Vec<ProbeRows>,
}

struct EvalOut {
    rec: OpRecord,
    score: Option<ProgramScore>,
    counts: Counts,
    problem: Option<String>,
}

/// Search `s`: its Trojan and base seed.
fn spec(seed: u64, s: usize) -> (TrojanKind, u64) {
    (
        TrojanKind::ALL[s % TrojanKind::ALL.len()],
        input_seed(seed, STREAM, s),
    )
}

fn setup(seed: u64, workers: usize) -> Result<(Search, f64, f64), String> {
    let (chip, chip_build) = timed(TestChip::date24);
    let config = ProgramSearchConfig::default();
    let (probe_rows, baseline) = timed(|| {
        let search = ProgramSearch::new(&chip, Engine::new(workers), config.clone())?;
        (0..WINDOW)
            .map(|s| {
                let (kind, base) = spec(seed, s);
                search.probe_baselines(kind, base)
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let probe_rows = probe_rows.map_err(|e| format!("probe baselines: {e}"))?;
    let search = Search {
        chip,
        config,
        seed,
        probe_rows,
    };
    Ok((search, chip_build, baseline))
}

/// Spectra `detection_snr_with` renders for one evaluation, in records:
/// quiet and active averages, plus one prefix average of `k` records
/// for each `k` it tries before detecting.
fn ffts_of(config: &ProgramSearchConfig, snr: &DetectionSnr) -> u64 {
    let r = config.records_per_eval;
    let prefixes = snr.records_to_detect.unwrap_or(r).min(r - 1);
    (2 * r + prefixes * (prefixes + 1) / 2) as u64
}

impl Search {
    fn phase(&self, seconds: f64, tracer: &Tracer, workers: usize) -> Phase {
        let campaign = Campaign::new(&self.chip, Engine::new(workers));
        let origin = tracer.now();
        let deadline = origin + seconds;
        let mut phase = Phase {
            workers,
            origin,
            deadline,
            window: WINDOW,
            ..Phase::default()
        };
        let mut next_id = 0;
        for s in 0..MAX_SEARCHES {
            let in_window = s < WINDOW;
            if !in_window && tracer.now() >= deadline {
                break;
            }
            let (kind, base) = spec(self.seed, s);
            let mut run = Run {
                campaign: &campaign,
                tracer,
                deadline: (!in_window).then_some(deadline),
                in_window,
                next_id: &mut next_id,
                phase: &mut phase,
            };
            let Some(report) = self.search(&mut run, kind, base) else {
                continue;
            };
            let gain = report.improvement_db(&self.config);
            let digest = match self.probe_rows.get(s) {
                Some(rows) => digest(&(&report, rows)),
                None => digest(&report),
            };
            phase.units.push(Unit {
                index: s,
                digest,
                wrong: (gain <= 0.0).then(|| {
                    format!("{kind:?}: searched programming does not beat the best preset")
                }),
                false_alarm: false,
                quality: Some(gain),
            });
        }
        phase
    }

    /// `ProgramSearch::search`, one engine map per round. `None` when an
    /// evaluation failed or the deadline cut the search short.
    fn search(&self, run: &mut Run<'_, '_>, kind: TrojanKind, base: u64) -> Option<SearchReport> {
        let lattice = self.chip.sensor_bank().lattice();
        let (rows, cols) = (lattice.rows(), lattice.cols());
        let presets: Vec<CoilProgram> = (0..16)
            .map(CoilProgram::preset)
            .collect::<Result<_, _>>()
            .ok()?;
        let preset_scores = self.evaluate(run, kind, base, &presets)?;
        let mut seen: BTreeSet<CoilProgram> = presets.iter().copied().collect();
        let mut scored = preset_scores.clone();
        scored.sort_by(|a, b| cmp_scores(a, b, self.config.objective));
        let mut rounds = Vec::new();
        for round in 1..=self.config.max_rounds {
            if run.deadline.is_some_and(|d| run.tracer.now() >= d) {
                return None;
            }
            let beam = &scored[..self.config.beam_width.min(scored.len())];
            let fresh: BTreeSet<CoilProgram> = beam
                .iter()
                .flat_map(|s| neighbors(&s.program, rows, cols, &self.config))
                .filter(|q| !seen.contains(q))
                .collect();
            if fresh.is_empty() {
                break;
            }
            let fresh: Vec<CoilProgram> = fresh.into_iter().collect();
            let fresh_scores = self.evaluate(run, kind, base, &fresh)?;
            seen.extend(fresh.iter().copied());
            scored.extend(fresh_scores);
            scored.sort_by(|a, b| cmp_scores(a, b, self.config.objective));
            rounds.push(RoundSummary {
                round,
                evaluated: fresh.len(),
                best: scored[0],
            });
        }
        Some(SearchReport {
            kind,
            base_seed: base,
            presets: preset_scores,
            rounds,
            best: scored[0],
            evaluated: seen.len(),
        })
    }

    /// One engine map scoring `programs`; `None` if any evaluation failed.
    fn evaluate(
        &self,
        run: &mut Run<'_, '_>,
        kind: TrojanKind,
        base: u64,
        programs: &[CoilProgram],
    ) -> Option<Vec<ProgramScore>> {
        let first = *run.next_id;
        *run.next_id += programs.len() as u64;
        let tracer = run.tracer;
        let results = tracer.span("runtime.map", NO_OP, None, |map| {
            run.campaign.run(programs, |ctx, idx, &p| {
                let id = first + idx as u64;
                tracer.span("runtime.job", id, map, |job| {
                    self.eval_op(ctx, kind, base, p, id, tracer, job)
                })
            })
        });
        let mut scores = Vec::with_capacity(results.len());
        for out in results {
            run.phase.ops.push(out.rec);
            run.phase.counts += out.counts;
            if run.in_window {
                run.phase.window_counts += out.counts;
            }
            run.phase.problems.extend(out.problem);
            scores.push(out.score);
        }
        scores.into_iter().collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_op(
        &self,
        ctx: &mut AcqContext<'_>,
        kind: TrojanKind,
        base: u64,
        program: CoilProgram,
        id: u64,
        tracer: &Tracer,
        job: Option<usize>,
    ) -> EvalOut {
        let (quiet, active) = eval_scenario_pair(kind, base, &program);
        let (rec, score) = tracer.span("op", id, job, |op| {
            let cached = ctx.custom_cache_len();
            let start = tracer.now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                tracer.span("core.call", id, op, |_| {
                    score_program_with(ctx, &quiet, &active, program, &self.config)
                })
            }));
            let end = tracer.now();
            let score = match result {
                Ok(Ok(s)) => Some(s),
                Ok(Err(e)) => {
                    eprintln!("program_search evaluation {id}: {e}");
                    None
                }
                Err(_) => None,
            };
            let rec = OpRecord {
                id,
                start,
                end,
                ok: score.is_some(),
                cache_miss: ctx.custom_cache_len() != cached,
                custom_acqs: 2,
            };
            (rec, score)
        });
        let Some(score) = score else {
            return EvalOut {
                rec,
                score,
                counts: Counts::default(),
                problem: None,
            };
        };
        let acq = |scenario| Acq {
            scenario,
            sensor: SensorSelect::Custom(program),
            records: self.config.records_per_eval,
            record_cycles: self.config.record_cycles,
        };
        let acqs = [acq(quiet), acq(active)];
        let counts = Counts {
            jobs: 1,
            ..Counts::of_op(&acqs, ffts_of(&self.config, &score.snr))
        };
        let problem = if tracer.enabled() {
            tracer
                .span("probe", id, job, |p| {
                    self.probe(ctx, &acqs, &score, &mut Probe::new(tracer, id, p))
                })
                .err()
                .map(|e| format!("program_search evaluation {id}: {e}"))
        } else {
            None
        };
        EvalOut {
            rec,
            score: Some(score),
            counts,
            problem,
        }
    }

    /// Replays an evaluation's acquisitions and spectra, and checks the
    /// replayed spectra reproduce its SNR bit for bit.
    fn probe(
        &self,
        ctx: &mut AcqContext<'_>,
        acqs: &[Acq; 2],
        score: &ProgramScore,
        probe: &mut Probe<'_>,
    ) -> Result<(), String> {
        let spectrum = |probe: &Probe<'_>, ctx: &mut AcqContext<'_>, traces: &TraceSet| {
            probe
                .span("dsp.fft", || ctx.fullres_spectrum_db(traces))
                .map_err(|e| format!("spectrum: {e}"))
        };
        probe.acquire(ctx, &acqs[0])?;
        let quiet = spectrum(probe, ctx, probe.replayed())?;
        let envelope = local_max_envelope(&quiet, self.config.envelope_half_window);
        probe.acquire(ctx, &acqs[1])?;
        let active = spectrum(probe, ctx, probe.replayed())?;
        let (lo, hi) = self.config.band_bins();
        let hi = hi
            .min(active.len().saturating_sub(1))
            .min(envelope.len().saturating_sub(1));
        let snr = (lo..=hi)
            .map(|k| active[k] - envelope[k])
            .fold(f64::NEG_INFINITY, f64::max);
        if snr.to_bits() != score.snr.snr_db.to_bits() {
            return Err(format!(
                "replayed spectra give SNR {snr} dB, the evaluation {} dB",
                score.snr.snr_db
            ));
        }
        let r = self.config.records_per_eval;
        let prefixes = score.snr.records_to_detect.unwrap_or(r).min(r - 1);
        for k in 1..=prefixes {
            let replayed = probe.replayed();
            let prefix = TraceSet {
                records: replayed.records[..k].to_vec(),
                fs_hz: replayed.fs_hz,
                sensor: replayed.sensor,
            };
            spectrum(probe, ctx, &prefix)?;
        }
        Ok(())
    }

    /// Window report digests from the library's own search on one worker.
    fn cross_check(&self) -> Vec<u64> {
        let search = match ProgramSearch::new(&self.chip, Engine::serial(), self.config.clone()) {
            Ok(s) => s,
            Err(e) => return vec![digest(&e.to_string())],
        };
        (0..WINDOW)
            .map(|s| {
                let (kind, base) = spec(self.seed, s);
                match (
                    search.search(kind, base),
                    search.probe_baselines(kind, base),
                ) {
                    (Ok(report), Ok(rows)) => digest(&(&report, &rows)),
                    (Err(e), _) | (_, Err(e)) => digest(&e.to_string()),
                }
            })
            .collect()
    }
}

/// State of one phase threaded through a search.
struct Run<'a, 'c> {
    campaign: &'a Campaign<'c>,
    tracer: &'a Tracer,
    /// Deadline after which the search is abandoned (none in the window).
    deadline: Option<f64>,
    in_window: bool,
    next_id: &'a mut u64,
    phase: &'a mut Phase,
}

/// Runs `program_search`.
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
        workload: Workload::ProgramSearch,
        setup,
        untraced,
        traced,
        cross_check: state.cross_check(),
        cross_workers: 1,
    })
}
