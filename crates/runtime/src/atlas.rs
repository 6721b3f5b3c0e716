//! Atlas campaigns: fan placement-sweep jobs (placements × VDD/temp
//! corners × seeds) across the engine.
//!
//! An [`AtlasJob`] is one synthetic-Trojan placement evaluated at one
//! operating corner. The campaign first learns each corner's 16-sensor
//! baseline *at that corner* (run-time baseline learning happens
//! in-situ, so a drifted supply drifts the baseline with it), fanning
//! the `corners × sensors` learning jobs across workers, then fans the
//! placement evaluations. Every job is a pure function of its
//! description, so the collected grid of localization errors is
//! **byte-identical at any worker count** — the `localize_atlas`
//! binary's CI determinism gate `cmp`s exactly this.

use crate::campaign::Campaign;
use crate::engine::Engine;
use psa_core::atlas::{
    placement_seed, PlacementOutcome, PlacementSweep, PlacementSweepConfig, SyntheticEmitter,
};
use psa_core::chip::TestChip;
use psa_core::cross_domain::Baseline;
use psa_core::error::CoreError;
use psa_core::scenario::Scenario;
use psa_layout::emitter::EmitterSite;

/// One operating corner of the atlas: supply, temperature, and the
/// per-corner seed the baseline and every placement at this corner
/// derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasCorner {
    /// Corner label reproduced in reports.
    pub label: String,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Ambient temperature, °C.
    pub temp_c: f64,
    /// Base seed for this corner's scenarios.
    pub seed: u64,
}

impl AtlasCorner {
    /// A corner.
    pub fn new(label: impl Into<String>, vdd: f64, temp_c: f64, seed: u64) -> Self {
        AtlasCorner {
            label: label.into(),
            vdd,
            temp_c,
            seed,
        }
    }

    /// The quiet-chip scenario of this corner (what the baseline is
    /// learned from and what the emitter is superposed on).
    pub fn scenario(&self) -> Scenario {
        Scenario::baseline()
            .with_seed(self.seed)
            .with_vdd(self.vdd)
            .with_temp_c(self.temp_c)
    }
}

/// One placement evaluation: the placed emitter (which carries its
/// site) and the corner index it runs at.
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasJob {
    /// Index into the campaign's corner list.
    pub corner: usize,
    /// The placed emitter; `emitter.site` is the single source of truth
    /// for the placement (seed salting and scoring both read it).
    pub emitter: SyntheticEmitter,
}

impl AtlasJob {
    /// A reference-emitter job at `site` under corner `corner`.
    pub fn reference(site: EmitterSite, corner: usize) -> Self {
        AtlasJob {
            corner,
            emitter: SyntheticEmitter::reference_at(site),
        }
    }
}

/// One finished placement: the corner it ran at plus the scored outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasOutcome {
    /// Index into the campaign's corner list.
    pub corner: usize,
    /// The placement's scored outcome.
    pub outcome: PlacementOutcome,
}

/// The per-corner state the atlas and joint-localization campaigns
/// evaluate against: each corner's 16-sensor baseline, learned at that
/// corner, and its detection envelopes.
#[derive(Debug)]
pub(crate) struct CornerStore {
    pub(crate) corners: Vec<AtlasCorner>,
    pub(crate) baselines: Vec<Baseline>,
    /// Per-corner precomputed local-max envelopes (pure functions of
    /// the baselines; computed once instead of once per placement).
    pub(crate) envelopes: Vec<Vec<Vec<f64>>>,
}

impl CornerStore {
    /// Learns every corner's baseline in parallel (one engine job per
    /// `(corner, sensor)`) and precomputes its envelopes.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an empty corner list;
    /// acquisition errors from the baseline learning.
    pub(crate) fn learn(
        campaign: &Campaign<'_>,
        sweep: &PlacementSweep<'_>,
        corners: Vec<AtlasCorner>,
    ) -> Result<Self, CoreError> {
        if corners.is_empty() {
            return Err(CoreError::InvalidParameter {
                what: "campaign needs at least one operating corner",
            });
        }
        let n_sensors = campaign.chip().sensor_bank().len();
        let jobs: Vec<(usize, usize)> = (0..corners.len())
            .flat_map(|c| (0..n_sensors).map(move |s| (c, s)))
            .collect();
        let spectra = campaign
            .run(&jobs, |ctx, _, &(c, s)| {
                sweep.baseline_sensor_db_with(ctx, &corners[c].scenario(), s)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let mut spectra = spectra.into_iter();
        let baselines: Vec<Baseline> = (0..corners.len())
            .map(|_| Baseline {
                per_sensor_db: spectra.by_ref().take(n_sensors).collect(),
            })
            .collect();
        let envelopes = baselines
            .iter()
            .map(|b| sweep.baseline_envelopes(b))
            .collect();
        Ok(CornerStore {
            corners,
            baselines,
            envelopes,
        })
    }

    /// Rejects a job list naming a corner outside the store.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] on the first unknown corner.
    pub(crate) fn check_jobs(
        &self,
        mut job_corners: impl Iterator<Item = usize>,
    ) -> Result<(), CoreError> {
        if job_corners.any(|c| c >= self.corners.len()) {
            return Err(CoreError::InvalidParameter {
                what: "job names a corner outside the campaign's corner list",
            });
        }
        Ok(())
    }
}

/// An engine-backed atlas campaign: one shared chip, per-corner learned
/// baselines, placements fanned across workers.
#[derive(Debug)]
pub struct AtlasCampaign<'c> {
    campaign: Campaign<'c>,
    sweep: PlacementSweep<'c>,
    store: CornerStore,
}

impl<'c> AtlasCampaign<'c> {
    /// Builds the sweep and learns every corner's 16-sensor baseline in
    /// parallel (one engine job per `(corner, sensor)`).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an empty corner list or an
    /// invalid sweep configuration; acquisition errors from the
    /// baseline learning.
    pub fn new(
        chip: &'c TestChip,
        engine: Engine,
        config: PlacementSweepConfig,
        corners: Vec<AtlasCorner>,
    ) -> Result<Self, CoreError> {
        let campaign = Campaign::new(chip, engine);
        let sweep = PlacementSweep::new(chip, config)?;
        let store = CornerStore::learn(&campaign, &sweep, corners)?;
        Ok(AtlasCampaign {
            campaign,
            sweep,
            store,
        })
    }

    /// The corner list, in baseline order.
    pub fn corners(&self) -> &[AtlasCorner] {
        &self.store.corners
    }

    /// Evaluates every placement job, collecting outcomes in submission
    /// order. Each placement runs under an independent noise/activity
    /// realization ([`placement_seed`]: the corner seed salted with the
    /// site coordinates) — the baseline was learned under the corner's
    /// own seed, so detection is measured against genuine baseline-vs-
    /// test variance, not a replay of the identical RNG stream.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when a job names an unknown
    /// corner; otherwise the first failing placement's error (all jobs
    /// are still attempted).
    pub fn run(&self, jobs: &[AtlasJob]) -> Result<Vec<AtlasOutcome>, CoreError> {
        self.store.check_jobs(jobs.iter().map(|j| j.corner))?;
        self.campaign
            .run(jobs, |ctx, _, job| {
                let corner = &self.store.corners[job.corner];
                let scenario = corner
                    .scenario()
                    .with_seed(placement_seed(corner.seed, &job.emitter.site));
                self.sweep
                    .evaluate_enveloped_with(
                        ctx,
                        &scenario,
                        &job.emitter,
                        &self.store.baselines[job.corner],
                        &self.store.envelopes[job.corner],
                    )
                    .map(|outcome| AtlasOutcome {
                        corner: job.corner,
                        outcome,
                    })
            })
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_layout::Point;

    #[test]
    fn corner_scenario_applies_operating_point() {
        let c = AtlasCorner::new("hot", 1.1, 85.0, 42);
        let s = c.scenario();
        assert_eq!(s.vdd, 1.1);
        assert_eq!(s.temp_c, 85.0);
        assert_eq!(s.seed, 42);
        assert_eq!(s.trojan, None, "corner scenarios are Trojan-quiet");
    }

    #[test]
    fn reference_job_carries_its_site() {
        let site = EmitterSite::new(Point::new(250.0, 750.0), 40.0);
        let job = AtlasJob::reference(site, 2);
        assert_eq!(job.emitter.site, site);
        assert_eq!(job.corner, 2);
    }

    // Chip-bound campaign behaviour (baseline learning, worker-count
    // invariance) is covered by the workspace integration tests.
}
