//! Regenerates Sec. VI-D — mean time to detect.

use psa_bench::experiments;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = psa_bench::harness::engine_from_cli(&args);
    println!("== Sec. VI-D: run-time MTTD ==");
    let chip = experiments::build_chip();
    // Sanctioned wall-clock read: feeds the stderr timing line only,
    // never a byte-compared artifact (see clippy.toml).
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let baseline = psa_runtime::Campaign::new(&chip, engine)
        .learn_baseline(experiments::RUNTIME_BASELINE_SEED);
    print!(
        "{}",
        experiments::mttd_table_with(&chip, &engine, &baseline).render()
    );
    eprintln!(
        "[psa-runtime] mttd sweep: {} worker(s), wall {:.2} s",
        engine.workers(),
        t0.elapsed().as_secs_f64()
    );
}
