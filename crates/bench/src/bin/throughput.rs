//! Per-stage hot-path throughput in records/sec: acquisition, the
//! packed real-input FFT, the production spectrum pipeline, monitor
//! ticks, and an engine-parallel campaign stage.
//!
//! ```text
//! throughput [--jobs N] [--bench-json [PATH]]
//! ```
//!
//! Stdout carries only deterministic artifacts — per-stage record
//! counts and float digests byte-identical at any worker count — so CI
//! can diff a serial run against `PSA_JOBS=2`. Rates go to stderr, and
//! `--bench-json` writes them as `psa-bench-json/1` with a
//! `records_per_s` field per stage (default path
//! `BENCH_throughput.json`), the document `bench_check --rates` gates
//! against. Set `PSA_BENCH_FAST=1` to cut record counts (CI smoke).
//!
//! A "record" is one full-resolution capture:
//! `calib::RECORD_CYCLES × calib::SAMPLES_PER_CYCLE` samples
//! (8192 × 8 = 65 536 at 264 MS/s).

use psa_bench::harness::{bench_json_path, ThroughputTimer};
use psa_core::acquisition::{AcqContext, TraceSet};
use psa_core::chip::SensorSelect;
use psa_core::cross_domain::{AnalyzerConfig, Baseline};
use psa_core::monitor::{ActivationSchedule, SlidingConfig, SlidingDetector, StreamSource};
use psa_core::scenario::Scenario;
use psa_dsp::window::Window;
use psa_gatesim::trojan::TrojanKind;
use psa_runtime::Campaign;

/// The sensor every stage reads — the paper's best-coupled PSA coil.
const SENSOR: usize = 10;

/// Per-stage record counts: `(acquire, transforms, monitor ticks,
/// campaign jobs)`.
fn record_counts() -> (usize, usize, usize, usize) {
    let fast = std::env::var("PSA_BENCH_FAST").is_ok_and(|v| v != "0");
    if fast {
        (2, 8, 4, 2)
    } else {
        (32, 256, 24, 32)
    }
}

/// Deterministic digest of a float series, printed on stdout so the
/// serial-vs-parallel byte-compare checks the *computation*, not just
/// the stage labels.
fn digest(xs: &[f64]) -> String {
    let sum: f64 = xs.iter().sum();
    format!("{sum:.6e}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = psa_bench::harness::engine_from_cli(&args);
    let json_path = bench_json_path(&args, "BENCH_throughput.json");
    let (n_acquire, n_transform, n_ticks, n_jobs) = record_counts();
    let mut timer = ThroughputTimer::new();

    let chip = psa_bench::experiments::build_chip();
    let mut ctx = AcqContext::new(&chip);
    let scenario = Scenario::baseline().with_seed(0x7B);
    println!("== hot-path throughput (records of {} samples) ==", {
        psa_core::calib::RECORD_CYCLES * psa_core::calib::SAMPLES_PER_CYCLE
    });

    // Stage 1: full record acquisition (gatesim → currents → EMF →
    // analog front end), the pipeline ahead of any spectral work.
    let mut traces = TraceSet::default();
    timer.time("acquire", n_acquire as u64, || {
        ctx.acquire_into(&scenario, SensorSelect::Psa(SENSOR), n_acquire, &mut traces)
            .expect("built-in sensor acquisition");
    });
    let acquire_rms: Vec<f64> = traces.records.iter().map(|r| rms(r)).collect();
    println!(
        "stage acquire: {n_acquire} records, digest {}",
        digest(&acquire_rms)
    );

    // Stage 2: the packed one-sided real-input FFT of one windowed
    // record.
    let windowed = Window::Hann.applied(&traces.records[0]);
    let mut last_bin = Vec::new();
    timer.time("fft_real", n_transform as u64, || {
        for _ in 0..n_transform {
            let spec = psa_dsp::rfft::rfft_one_sided(&windowed).expect("pow2 record");
            last_bin.push(spec[spec.len() / 4].re);
        }
    });
    println!(
        "stage fft_real: {n_transform} records, digest {}",
        digest(&last_bin)
    );

    // Stage 3: the production per-record spectrum pipeline (window +
    // packed FFT + amplitude scaling through cached scratch buffers).
    let mut peaks = Vec::new();
    timer.time("spectrum", n_transform as u64, || {
        for i in 0..n_transform {
            let record = &traces.records[i % traces.records.len()];
            let amp = ctx
                .fullres_amplitude_row(record)
                .expect("record-length spectrum");
            peaks.push(amp.iter().fold(0.0, |a: f64, &b| a.max(b)));
        }
    });
    println!(
        "stage spectrum: {n_transform} records, digest {}",
        digest(&peaks)
    );

    // Stage 4: streaming monitor ticks — acquisition plus the sliding
    // cached-row spectrum update and threshold compare, per tick.
    let baseline = one_sensor_baseline(&mut ctx);
    let stream = StreamSource::new(
        ActivationSchedule::trojan_at(TrojanKind::T1, 3, n_ticks).with_seed(0x7B17),
    );
    let config = SlidingConfig {
        min_window_records: 2,
        ..SlidingConfig::default()
    };
    let mut detector =
        SlidingDetector::new(&baseline, &[SENSOR], config).expect("valid monitor config");
    let mut alarm_records = Vec::new();
    timer.time("monitor", n_ticks as u64, || {
        for record in 0..stream.horizon() {
            let scenario = stream.schedule().scenario_at(record);
            let obs = detector
                .observe(&mut ctx, &stream, &scenario, 0)
                .expect("monitor tick");
            if obs.newly_alarmed {
                alarm_records.push(record as f64);
            }
        }
    });
    println!(
        "stage monitor: {n_ticks} records, digest {}",
        digest(&alarm_records)
    );

    // Stage 5: engine-parallel acquisition — one record per job across
    // distinct scenario seeds, reduced in submission order so stdout is
    // byte-identical at any worker count.
    let campaign = Campaign::new(&chip, engine);
    let seeds: Vec<u64> = (0..n_jobs as u64).map(|j| 0xC0DE + 131 * j).collect();
    let job_rms = timer.time("campaign", n_jobs as u64, || {
        campaign.run(&seeds, |ctx, _, &seed| {
            let mut out = TraceSet::default();
            ctx.acquire_into(
                &Scenario::baseline().with_seed(seed),
                SensorSelect::Psa(SENSOR),
                1,
                &mut out,
            )
            .expect("built-in sensor acquisition");
            rms(&out.records[0])
        })
    });
    println!(
        "stage campaign: {n_jobs} records, digest {}",
        digest(&job_rms)
    );

    eprintln!(
        "[psa-runtime] throughput: {} worker(s), total wall {:.2} s",
        engine.workers(),
        timer.total_s()
    );
    for (name, secs, records) in timer.entries() {
        eprintln!(
            "[psa-runtime]   {name:<12} {records:>5} records {secs:>9.3} s  {:>10.2} rec/s",
            ThroughputTimer::rate(*secs, *records)
        );
    }
    if let Some(path) = json_path {
        timer
            .write_json(&path, engine.workers())
            .expect("bench-json path is writable");
        eprintln!("[psa-runtime] wrote {}", path.display());
    }
}

/// Root-mean-square of one record — a cheap deterministic digest input.
fn rms(record: &[f64]) -> f64 {
    (record.iter().map(|x| x * x).sum::<f64>() / record.len() as f64).sqrt()
}

/// Baseline with only [`SENSOR`] learned (placeholder rows elsewhere) —
/// keeps setup off the 16-sensor learning cost; the monitor stage never
/// reads the other slots.
fn one_sensor_baseline(ctx: &mut AcqContext<'_>) -> Baseline {
    let config = AnalyzerConfig::default();
    let mut per_sensor_db = vec![Vec::new(); SENSOR];
    per_sensor_db.push(Baseline::sensor_db_with(&config, ctx, 0xBA5E, SENSOR));
    Baseline { per_sensor_db }
}
