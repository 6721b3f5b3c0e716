//! Crate smoke tests: the campaign engine against the real chip —
//! parallel output must be byte-identical to serial output.

use psa_core::acquisition::AcqContext;
use psa_core::chip::{SensorSelect, TestChip};
use psa_core::cross_domain::{AnalyzerConfig, Baseline};
use psa_core::scenario::Scenario;
use psa_gatesim::trojan::TrojanKind;
use psa_runtime::{AcquireJob, Campaign, Engine};
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

fn jobs() -> Vec<AcquireJob> {
    vec![
        AcquireJob::new(Scenario::baseline(), SensorSelect::Psa(10), 1).with_seed(11),
        AcquireJob::new(
            Scenario::trojan_active(TrojanKind::T4),
            SensorSelect::Psa(10),
            1,
        )
        .with_seed(12),
        AcquireJob::new(Scenario::baseline(), SensorSelect::Psa(0), 1).with_seed(13),
        AcquireJob::new(Scenario::noise(), SensorSelect::SingleCoil, 1).with_seed(14),
    ]
}

#[test]
fn parallel_acquire_is_byte_identical_to_serial() {
    let serial = Campaign::new(chip(), Engine::serial());
    let parallel = Campaign::new(chip(), Engine::new(4));
    let jobs = jobs();
    let a = serial.acquire(&jobs).expect("serial acquire");
    let b = parallel.acquire(&jobs).expect("parallel acquire");
    assert_eq!(a, b);
    // And per-job seeding means distinct jobs produce distinct records.
    assert_ne!(a[0].records, a[2].records);
}

#[test]
fn parallel_spectra_are_byte_identical_to_serial() {
    let serial = Campaign::new(chip(), Engine::serial());
    let parallel = Campaign::new(chip(), Engine::new(3));
    let jobs = jobs();
    let a = serial.fullres_spectra_db(&jobs).expect("serial spectra");
    let b = parallel
        .fullres_spectra_db(&jobs)
        .expect("parallel spectra");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert!(x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()));
    }
}

#[test]
fn parallel_baseline_matches_core_serial_baseline() {
    // Campaign::learn_baseline fans sensors across workers; the result
    // must be byte-identical to the serial learning loop.
    let campaign = Campaign::new(chip(), Engine::new(4));
    let parallel = campaign.learn_baseline(0xB45E);
    let serial = Baseline::learn_with(
        chip(),
        &AnalyzerConfig::default(),
        &mut AcqContext::new(chip()),
        0xB45E,
    );
    assert_eq!(parallel.per_sensor_db.len(), serial.per_sensor_db.len());
    for (p, s) in parallel.per_sensor_db.iter().zip(&serial.per_sensor_db) {
        assert!(p.iter().zip(s).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}

#[test]
fn invalid_job_surfaces_error() {
    let campaign = Campaign::new(chip(), Engine::new(2));
    let bad = vec![AcquireJob::new(
        Scenario::baseline(),
        SensorSelect::Psa(99),
        1,
    )];
    assert!(campaign.acquire(&bad).is_err());
}
