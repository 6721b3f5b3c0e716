//! Regenerates Fig 5 — zero-span envelopes and Trojan identification.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = psa_bench::harness::engine_from_cli(&args);
    println!("== Fig 5: zero-span time-domain identification at 48 MHz ==");
    let chip = psa_bench::experiments::build_chip();
    print!(
        "{}",
        psa_bench::experiments::fig5_report_with(&chip, &engine, None)
    );
}
