//! The benchmark's own checks: deterministic counts and digests, the
//! layer probe's equivalence with `AcqContext`, and agreement between
//! the code and `BENCHMARK.json`.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::{parse_args, probe_self_check, run, Args, Workload};
use psa_core::chip::TestChip;
use std::collections::BTreeSet;

fn args(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 3,
        seconds: 0.2,
        trace,
    }
}

#[test]
fn counts_and_digests_repeat_exactly_traced_and_untraced() {
    for workload in Workload::ALL {
        let plain = run(&args(workload, false)).expect("untraced run");
        let traced_run = run(&args(workload, true)).expect("traced run");
        let traced = traced_run.traced.as_ref().expect("traced phase");
        let name = workload.name();
        assert!(plain.untraced.window_counts.ops > 0, "{name}: empty window");
        assert_eq!(
            plain.untraced.window_counts, traced_run.untraced.window_counts,
            "{name}"
        );
        assert_eq!(plain.untraced.window_counts, traced.window_counts, "{name}");
        assert_eq!(
            plain.untraced.window_digests(),
            traced.window_digests(),
            "{name}"
        );
        assert_eq!(plain.untraced.window_digests(), plain.cross_check, "{name}");
        assert!(traced.problems.is_empty(), "{name}: {:?}", traced.problems);
        let names: BTreeSet<&str> = traced.spans.iter().map(|s| s.name).collect();
        for layer in [
            "gatesim.advance",
            "gatesim.currents",
            "field.emf",
            "analog.frontend",
            "dsp.fft",
            "core.call",
        ] {
            assert!(names.contains(layer), "{name}: no {layer} span");
        }
    }
}

#[test]
fn probe_matches_acq_context_on_preset_custom_and_short_records() {
    let chip = TestChip::date24();
    let tracer = Tracer::new(true);
    probe_self_check(&chip, &tracer).expect("probe replays AcqContext bit for bit");
    let names: BTreeSet<&str> = tracer.into_spans().iter().map(|s| s.name).collect();
    for layer in [
        "gatesim.advance",
        "gatesim.currents",
        "field.emf",
        "analog.frontend",
        "array.synth",
        "core.acquire",
        "analog.zero_span",
    ] {
        assert!(names.contains(layer), "no {layer} span");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let names: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END)
        .chain(PER_LAYER)
        .collect();
    for name in &names {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing"
        );
    }
    assert_eq!(text.matches("\"name\": ").count(), names.len());
}

#[test]
fn arguments_are_checked() {
    let ok = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let a = ok("--workload monitor_stream --seed 4 --seconds 2.5 --trace 1").expect("valid");
    assert_eq!(a.workload, Workload::MonitorStream);
    assert!(a.trace && a.seed == 4 && a.seconds == 2.5);
    for bad in [
        "--workload nope --seed 1 --seconds 1",
        "--workload monitor_stream --seed x --seconds 1",
        "--workload monitor_stream --seed 1 --seconds 0",
        "--workload monitor_stream --seed 1 --seconds 1 --trace 2",
        "--workload monitor_stream --seconds 1",
        "--workload monitor_stream --seed 1 --seconds",
    ] {
        assert!(ok(bad).is_err(), "accepted `{bad}`");
    }
}
