//! End-to-end integration: the full cross-domain pipeline on the
//! assembled chip — detection, localization, identification, and the
//! no-Trojan control, spanning every workspace crate.

use psa_repro::core::acquisition::AcqContext;
use psa_repro::core::chip::TestChip;
use psa_repro::core::cross_domain::{AnalyzerConfig, Baseline, CrossDomainAnalyzer};
use psa_repro::core::scenario::Scenario;
use psa_repro::gatesim::trojan::TrojanKind;
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

fn baseline() -> &'static Baseline {
    static BASE: OnceLock<Baseline> = OnceLock::new();
    BASE.get_or_init(|| {
        Baseline::learn_with(
            chip(),
            &AnalyzerConfig::default(),
            &mut AcqContext::new(chip()),
            42,
        )
    })
}

#[test]
fn control_run_stays_quiet() {
    let analyzer = CrossDomainAnalyzer::new(chip()).unwrap();
    let mut ctx = AcqContext::new(chip());
    let verdict = analyzer
        .analyze_with(&mut ctx, &Scenario::baseline().with_seed(777), baseline())
        .expect("analysis runs");
    assert!(!verdict.detected, "false positive on the control run");
    assert_eq!(verdict.localized_sensor, None);
    assert_eq!(verdict.identified, None);
}

#[test]
fn t4_detected_localized_identified() {
    let analyzer = CrossDomainAnalyzer::new(chip()).unwrap();
    let mut ctx = AcqContext::new(chip());
    let verdict = analyzer
        .analyze_with(
            &mut ctx,
            &Scenario::trojan_active(TrojanKind::T4).with_seed(104),
            baseline(),
        )
        .expect("analysis runs");
    assert!(verdict.detected);
    assert_eq!(verdict.localized_sensor, Some(10), "paper: sensor 10");
    assert_eq!(verdict.identified, Some(TrojanKind::T4));
    // The prominent component is the 48 MHz sideband family line.
    let f = verdict.prominent_freq_hz.expect("component found");
    assert!((f - 48.0e6).abs() < 1.0e6, "prominent at {f} Hz");
    // Detection cost matches the paper: fewer than ten traces per sensor.
    assert!(verdict.traces_per_sensor < 10);
}

#[test]
fn small_trojan_t3_detected_and_localized() {
    // T3 is 1.14 % of the chip — the Trojan the baselines miss.
    let analyzer = CrossDomainAnalyzer::new(chip()).unwrap();
    let mut ctx = AcqContext::new(chip());
    let verdict = analyzer
        .analyze_with(
            &mut ctx,
            &Scenario::trojan_active(TrojanKind::T3).with_seed(103),
            baseline(),
        )
        .expect("analysis runs");
    assert!(verdict.detected, "PSA must catch the small Trojan");
    assert_eq!(verdict.localized_sensor, Some(10));
    assert_eq!(verdict.identified, Some(TrojanKind::T3));
}

#[test]
fn t1_and_t2_verdicts() {
    let analyzer = CrossDomainAnalyzer::new(chip()).unwrap();
    let mut ctx = AcqContext::new(chip());
    for (kind, seed) in [(TrojanKind::T1, 101u64), (TrojanKind::T2, 102)] {
        let verdict = analyzer
            .analyze_with(
                &mut ctx,
                &Scenario::trojan_active(kind).with_seed(seed),
                baseline(),
            )
            .expect("analysis runs");
        assert!(verdict.detected, "{kind} not detected");
        assert_eq!(verdict.localized_sensor, Some(10), "{kind} mislocalized");
        assert_eq!(verdict.identified, Some(kind), "{kind} misidentified");
    }
}

#[test]
fn localized_region_contains_the_trojan() {
    let analyzer = CrossDomainAnalyzer::new(chip()).unwrap();
    let mut ctx = AcqContext::new(chip());
    let verdict = analyzer
        .analyze_with(
            &mut ctx,
            &Scenario::trojan_active(TrojanKind::T4).with_seed(200),
            baseline(),
        )
        .expect("analysis runs");
    let region = verdict.localized_region.expect("region reported");
    let t4 = chip()
        .floorplan()
        .module(psa_repro::layout::floorplan::ModuleKind::TrojanT4)
        .expect("T4 placed");
    assert!(
        region.intersects(&t4.region),
        "localized region {region} misses T4 at {}",
        t4.region
    );
}

#[test]
fn concurrent_trojans_still_detected_and_localized() {
    // Extension beyond the paper's one-at-a-time evaluation: T1 and T4
    // active together. Both sit under sensor 10; the monitor must still
    // detect and localize (identification may report either culprit).
    let analyzer = CrossDomainAnalyzer::new(chip()).unwrap();
    let mut ctx = AcqContext::new(chip());
    let scenario = Scenario::trojans_active(&[TrojanKind::T1, TrojanKind::T4]).with_seed(400);
    let verdict = analyzer
        .analyze_with(&mut ctx, &scenario, baseline())
        .expect("analysis runs");
    assert!(verdict.detected);
    assert_eq!(verdict.localized_sensor, Some(10));
    let f = verdict.prominent_freq_hz.expect("component found");
    assert!((f - 48.0e6).abs() < 1.0e6);
    assert!(verdict.identified.is_some());
}

#[test]
fn ranking_contrast_sensor10_vs_sensor0() {
    // The Fig 4 contrast, end to end: sensor 10's anomaly amplitude beats
    // the empty corner's by a wide margin.
    let analyzer = CrossDomainAnalyzer::new(chip()).unwrap();
    let mut ctx = AcqContext::new(chip());
    let verdict = analyzer
        .analyze_with(
            &mut ctx,
            &Scenario::trojan_active(TrojanKind::T1).with_seed(300),
            baseline(),
        )
        .expect("analysis runs");
    let amp_of = |sensor: usize| {
        verdict
            .ranking
            .iter()
            .find(|a| a.sensor == sensor)
            .map(|a| a.amplitude_v)
            .expect("sensor in ranking")
    };
    assert!(amp_of(10) > 3.0 * amp_of(0), "insufficient contrast");
}
