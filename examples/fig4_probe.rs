//! Quick Fig-4 probe: full-resolution excess at 48/84 MHz per trojan,
//! sensors 10 and 0.
use psa_core::acquisition::AcqContext;
use psa_core::chip::{SensorSelect, TestChip};
use psa_core::scenario::Scenario;
use psa_gatesim::trojan::TrojanKind;

fn main() {
    let chip = TestChip::date24();
    let mut ctx = AcqContext::new(&chip);
    let b48 = ctx.fullres_freq_bin(48.0e6);
    let b84 = ctx.fullres_freq_bin(84.0e6);
    let mut spec_of = |scen: &Scenario, s: usize| {
        let t = ctx.acquire(scen, SensorSelect::Psa(s), 5).unwrap();
        ctx.fullres_spectrum_db(&t).unwrap()
    };
    for sensor in [10usize, 0] {
        let base = spec_of(&Scenario::baseline(), sensor);
        for kind in TrojanKind::ALL {
            let act = spec_of(&Scenario::trojan_active(kind), sensor);
            // search +-3 bins for the line
            let excess = |b: usize| {
                (b - 3..=b + 3)
                    .map(|k| act[k] - base[k])
                    .fold(f64::MIN, f64::max)
            };
            println!(
                "sensor {sensor} {kind}: excess 48 MHz {:+.1} dB, 84 MHz {:+.1} dB",
                excess(b48),
                excess(b84)
            );
        }
    }
}
