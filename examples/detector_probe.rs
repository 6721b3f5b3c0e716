//! Per-trojan outcomes for each baseline detector.
use psa_repro::core::acquisition::AcqContext;
use psa_repro::core::chip::TestChip;
use psa_repro::core::detector::{BackscatterDetector, Detector, EuclideanDetector};
use psa_repro::core::scenario::Scenario;
use psa_repro::gatesim::trojan::TrojanKind;

fn main() {
    let chip = TestChip::date24();
    let probe = EuclideanDetector::external_probe(60);
    let coil = EuclideanDetector::single_coil(60);
    let back = BackscatterDetector::default();
    let dets: [&dyn Detector; 3] = [&probe, &coil, &back];
    // One shared context: `detect_with` recycles its scratch buffers
    // across all 24 attempts.
    let mut ctx = AcqContext::new(&chip);
    for det in dets {
        print!("{}: ", det.name());
        for kind in TrojanKind::ALL {
            for seed in [7000u64, 7031] {
                let out = det
                    .detect_with(&mut ctx, &Scenario::trojan_active(kind).with_seed(seed))
                    .unwrap();
                print!("{kind}({}) ", if out.detected { "Y" } else { "n" });
            }
        }
        println!();
    }
}
