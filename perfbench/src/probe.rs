//! The layer probe.
//!
//! `psa_core` runs gatesim, currents, EMF, the analog front end and the
//! FFT inside its own calls, and the library carries no timing code. So
//! the probe replays an op's own acquisitions through the public
//! per-layer functions, with one span per layer call, and checks every
//! replayed record bit for bit against `AcqContext`'s output for the
//! same scenario and sensor. A mismatch means the replay no longer runs
//! the program the op ran; the traced run then fails instead of
//! reporting layer numbers for a different program.

use crate::trace::Tracer;
use psa_analog::frontend::AnalogFrontEnd;
use psa_core::acquisition::{AcqContext, TraceSet};
use psa_core::calib;
use psa_core::chip::{CustomSensor, SensorSelect, TestChip};
use psa_core::scenario::Scenario;
use psa_field::induction::induced_emf_into;
use psa_gatesim::activity::{ActivitySimulator, Source};
use psa_gatesim::current::trace_to_currents_into;

/// One acquisition an op makes: `records` consecutive records of
/// `record_cycles` cycles from `sensor` while the chip runs `scenario`.
#[derive(Debug, Clone)]
pub struct Acq {
    /// What the chip does.
    pub scenario: Scenario,
    /// The sensing selection (PSA preset or custom programming).
    pub sensor: SensorSelect,
    /// Records acquired.
    pub records: usize,
    /// Record length, clock cycles.
    pub record_cycles: usize,
}

impl Acq {
    /// Simulated clock cycles, warm-up included.
    pub fn cycles(&self) -> u64 {
        (self.scenario.warmup_cycles + self.records * self.record_cycles) as u64
    }
}

/// Replays acquisitions for one op, reusing its scratch buffers across
/// them the way an `AcqContext` does.
#[derive(Debug)]
pub struct Probe<'t> {
    tracer: &'t Tracer,
    op: u64,
    parent: Option<usize>,
    custom: Option<CustomSensor>,
    currents: Vec<(Source, Vec<f64>)>,
    flux: Vec<f64>,
    emf: Vec<f64>,
    replayed: TraceSet,
    reference: TraceSet,
    reference_first: bool,
}

impl<'t> Probe<'t> {
    /// A probe whose spans belong to `op`, under span `parent`.
    pub fn new(tracer: &'t Tracer, op: u64, parent: Option<usize>) -> Self {
        Probe {
            tracer,
            op,
            parent,
            custom: None,
            currents: Vec::new(),
            flux: Vec::new(),
            emf: Vec::new(),
            replayed: TraceSet::default(),
            reference: TraceSet::default(),
            reference_first: false,
        }
    }

    /// Moves the probe, and its warm scratch buffers, to another op.
    pub fn rebind(&mut self, op: u64, parent: Option<usize>) {
        self.op = op;
        self.parent = parent;
    }

    /// Runs `f` in a span of this probe's op.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.span(name, self.op, self.parent, |_| f())
    }

    /// The records of the last [`acquire`](Self::acquire).
    pub fn replayed(&self) -> &TraceSet {
        &self.replayed
    }

    /// Replays `acq` layer by layer and acquires it through `ctx` for
    /// reference; succeeds once every replayed sample matches the
    /// reference bit for bit.
    ///
    /// # Errors
    ///
    /// A library error, or the first record that differs.
    pub fn acquire(&mut self, ctx: &mut AcqContext<'_>, acq: &Acq) -> Result<(), String> {
        // Alternate which of the two runs first, so warm caches favour
        // neither side of the acquisition-coverage comparison.
        self.reference_first = !self.reference_first;
        if !self.reference_first {
            self.replay(ctx.chip(), acq)?;
        }
        let reference = &mut self.reference;
        self.tracer
            .span("core.acquire", self.op, self.parent, |_| {
                ctx.acquire_len_into(
                    &acq.scenario,
                    acq.sensor,
                    acq.records,
                    acq.record_cycles,
                    reference,
                )
            })
            .map_err(|e| format!("reference acquisition failed: {e}"))?;
        if self.reference_first {
            self.replay(ctx.chip(), acq)?;
        }
        compare(&self.replayed, &self.reference, acq)
    }

    fn replay(&mut self, chip: &TestChip, acq: &Acq) -> Result<(), String> {
        let fs = calib::sample_rate_hz();
        let scenario = &acq.scenario;
        let preset;
        let (couplings, noise_vrms): (&[f64], f64) = match acq.sensor {
            SensorSelect::Custom(program) => {
                if self.custom.as_ref().map(CustomSensor::program) != Some(&program) {
                    let sensor = self
                        .span("array.synth", || chip.synthesize_custom(&program))
                        .map_err(|e| format!("synthesize_custom: {e}"))?;
                    self.custom = Some(sensor);
                }
                let custom = self.custom.as_ref().expect("synthesized above");
                let noise =
                    custom.noise_vrms(chip.tgate(), fs / 2.0, scenario.vdd, scenario.temp_c);
                (custom.couplings(), noise)
            }
            SensorSelect::Psa(_) => {
                preset = chip
                    .couplings_for(acq.sensor)
                    .map_err(|e| format!("couplings_for: {e}"))?;
                let noise =
                    chip.sensor_noise_vrms(acq.sensor, fs / 2.0, scenario.vdd, scenario.temp_c);
                (&preset, noise)
            }
            other => {
                return Err(format!(
                    "the probe replays PSA and custom sensors, not {other:?}"
                ))
            }
        };
        // `acquisition::frontend_for` seeds the PSA chain this way.
        let frontend = AnalogFrontEnd::date24(scenario.seed ^ 0xFE);
        let mut sim = self.span("gatesim.advance", || {
            let mut sim = ActivitySimulator::new(scenario.chip_config());
            if scenario.warmup_cycles > 0 {
                let _ = sim.advance(scenario.warmup_cycles);
            }
            sim
        });
        let out = &mut self.replayed;
        out.fs_hz = fs;
        out.sensor = acq.sensor;
        out.records.resize_with(acq.records, Vec::new);
        for (index, record) in out.records.iter_mut().enumerate() {
            let activity = self
                .tracer
                .span("gatesim.advance", self.op, self.parent, |_| {
                    sim.advance(acq.record_cycles)
                });
            let currents = &mut self.currents;
            self.tracer
                .span("gatesim.currents", self.op, self.parent, |_| {
                    trace_to_currents_into(&activity, chip.charges_fc(), calib::CLK_HZ, currents)
                });
            let pairs: Vec<(&[f64], f64)> = self
                .currents
                .iter()
                .zip(couplings)
                .map(|((_, wave), &k)| (wave.as_slice(), k))
                .collect();
            let (flux, emf) = (&mut self.flux, &mut self.emf);
            self.tracer
                .span("field.emf", self.op, self.parent, |_| {
                    induced_emf_into(&pairs, calib::EFFECTIVE_MOMENT_AREA_M2, fs, flux, emf)
                })
                .map_err(|e| format!("induced_emf_into: {e}"))?;
            let emf = &self.emf;
            self.tracer
                .span("analog.frontend", self.op, self.parent, |_| {
                    frontend.capture_record_into(emf, fs, noise_vrms, index as u64, record)
                })
                .map_err(|e| format!("capture_record_into: {e}"))?;
        }
        Ok(())
    }
}

fn compare(replayed: &TraceSet, reference: &TraceSet, acq: &Acq) -> Result<(), String> {
    let what = || {
        format!(
            "{:?} seed {} ({} x {} cycles)",
            acq.sensor, acq.scenario.seed, acq.records, acq.record_cycles
        )
    };
    if replayed.records.len() != reference.records.len()
        || replayed.fs_hz.to_bits() != reference.fs_hz.to_bits()
    {
        return Err(format!(
            "layer probe shape differs from AcqContext on {}",
            what()
        ));
    }
    for (r, (a, b)) in replayed.records.iter().zip(&reference.records).enumerate() {
        let first = (a.len() != b.len())
            .then_some(a.len().min(b.len()))
            .or_else(|| {
                a.iter()
                    .zip(b)
                    .position(|(x, y)| x.to_bits() != y.to_bits())
            });
        if let Some(i) = first {
            return Err(format!(
                "layer probe record {r} differs from AcqContext at sample {i} on {}",
                what()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_names_the_first_differing_sample() {
        let acq = Acq {
            scenario: Scenario::baseline(),
            sensor: SensorSelect::Psa(10),
            records: 2,
            record_cycles: 4,
        };
        let set = |records: Vec<Vec<f64>>| TraceSet {
            records,
            fs_hz: 1.0,
            sensor: SensorSelect::Psa(10),
        };
        let a = set(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert!(compare(&a, &a.clone(), &acq).is_ok());
        let drifted = set(vec![
            vec![1.0, 2.0],
            vec![3.0, f64::from_bits(4.0f64.to_bits() + 1)],
        ]);
        let err = compare(&a, &drifted, &acq).expect_err("one ulp apart");
        assert!(
            err.contains("record 1") && err.contains("sample 1"),
            "{err}"
        );
        assert!(compare(&a, &set(vec![vec![1.0, 2.0]]), &acq).is_err());
        assert!(compare(&a, &set(vec![vec![1.0, 2.0], vec![3.0]]), &acq).is_err());
    }
}
