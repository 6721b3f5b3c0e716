//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload detect_localize|monitor_stream|program_search \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every metric by name and unit, the output checks, and as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`). Exits non-zero on any wrong output, digest
//! mismatch, probe mismatch or failed op.

use perfbench::metrics::{self, Metric};
use perfbench::{parse_args, Outcome, Phase, MAX_FALSE_ALARM_SHARE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload detect_localize|monitor_stream|program_search \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {}: {} s per phase, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match perfbench::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&outcome)
}

fn report(out: &Outcome) -> ExitCode {
    let mut problems: Vec<String> = Vec::new();
    let (lines, e2e) = metrics::end_to_end(out);
    for line in &lines {
        println!("{line}");
    }

    let mut phases: Vec<(&str, &Phase)> = vec![("untraced", &out.untraced)];
    if let Some(t) = &out.traced {
        phases.push(("traced", t));
    }
    for (label, phase) in &phases {
        problems.extend(phase.problems.iter().cloned());
        for unit in &phase.units {
            match &unit.wrong {
                Some(why) if unit.false_alarm => println!("{label} unit {}: {why}", unit.index),
                Some(why) => problems.push(format!("{label} unit {}: wrong: {why}", unit.index)),
                None => {}
            }
        }
        let false_alarms = phase.units.iter().filter(|u| u.false_alarm).count();
        if false_alarms as f64 > MAX_FALSE_ALARM_SHARE * phase.units.len() as f64 {
            problems.push(format!(
                "{label}: {false_alarms} of {} units are false alarms (allowed share {MAX_FALSE_ALARM_SHARE})",
                phase.units.len()
            ));
        }
        let failed = phase.ops.iter().filter(|o| !o.ok).count();
        if failed > 0 {
            problems.push(format!("{label}: {failed} op(s) failed"));
        }
        let digests = phase.window_digests();
        let same = digests == out.cross_check;
        println!(
            "check: {label} window of {} unit(s) on {} worker(s) vs {} worker(s): {}",
            phase.window,
            phase.workers,
            out.cross_workers,
            if same {
                "digests match"
            } else {
                "DIGESTS DIFFER"
            }
        );
        if !same {
            problems.push(format!(
                "{label}: window digests differ from the {}-worker run",
                out.cross_workers
            ));
        }
    }

    let mut result: Vec<Metric> = e2e;
    if let Some(traced) = &out.traced {
        let same_counts = traced.window_counts == out.untraced.window_counts;
        println!(
            "check: window work counts traced vs untraced: {} ({:?})",
            if same_counts { "identical" } else { "DIFFER" },
            traced.window_counts
        );
        if !same_counts {
            problems.push(format!(
                "window counts differ: traced {:?}, untraced {:?}",
                traced.window_counts, out.untraced.window_counts
            ));
        }
        let (layers, coverage) = metrics::per_layer(out, traced);
        problems.extend(coverage);
        for x in &layers {
            println!("{} = {} {}", x.name, x.value, x.unit);
        }
        result = layers;
    }

    for x in &result {
        if !x.value.is_finite() {
            problems.push(format!("{} was not measured", x.name));
        }
    }
    for p in &problems {
        println!("problem: {p}");
    }
    let reported = out.traced.as_ref().unwrap_or(&out.untraced);
    let attempted = reported.ops.len();
    let failed = reported.ops.iter().filter(|o| !o.ok).count();
    let correct = problems.is_empty();
    let body: Vec<String> = result
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() {
                x.value.to_string()
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
