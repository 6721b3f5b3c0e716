//! Metric definitions: end-to-end metrics from the untraced phase and
//! per-layer metrics from the traced phase's spans.

use crate::stats::{beyond, median, peak_rss_mb, quantile};
use crate::trace::{self_times, Span, NO_OP};
use crate::{Outcome, Phase, Workload};
use std::collections::BTreeMap;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// End-to-end metrics reported in the result line (`--trace 0`).
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "op_latency_p50_ms",
    "op_latency_tail_ms",
    "peak_rss_mb",
];

/// Per-layer metrics reported in the result line (`--trace 1`).
pub const PER_LAYER: [&str; 25] = [
    "gatesim.advance_ms_per_rec",
    "gatesim.cycles_per_op",
    "gatesim.currents_ms_per_rec",
    "field.emf_ms_per_rec",
    "analog.frontend_ms_per_rec",
    "analog.zero_span_ms_per_call",
    "dsp.fft_ms_per_rec",
    "dsp.ffts_per_op",
    "array.synth_ms_per_prog",
    "array.synth_per_op",
    "core.custom_cache_miss_ratio",
    "core.acquire_ms_per_rec",
    "core.records_per_op",
    "core.score_ms_per_op",
    "core.other_ms_per_op",
    "runtime.jobs",
    "runtime.busy_frac",
    "runtime.tail_idle_ms",
    "runtime.job_ms_p50",
    "setup.chip_build_s",
    "setup.baseline_s",
    "setup.rest_s",
    "trace.overhead_frac",
    "trace.acquire_coverage",
    "trace.op_coverage",
];

/// Layers the probe replays for an op. Their self times, plus the
/// synthesis when the op's own call synthesized, stand in for the child
/// spans of the library call.
const OP_LAYERS: [&str; 6] = [
    "gatesim.advance",
    "gatesim.currents",
    "field.emf",
    "analog.frontend",
    "dsp.fft",
    "analog.zero_span",
];

/// The four layers of one acquisition.
const ACQ_LAYERS: [&str; 4] = [
    "gatesim.advance",
    "gatesim.currents",
    "field.emf",
    "analog.frontend",
];

/// Largest share by which the replayed layers may miss the reference
/// acquisition, or exceed the op's library call.
pub const COVERAGE_TOLERANCE: f64 = 0.05;

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Ops completed per host second, all workers, from the phase start to
/// its deadline (or to the last completion, if that came first). An op
/// running across the deadline counts by the share of its span inside
/// the interval, so the rate does not jump with where the deadline
/// falls in an op.
pub fn ops_per_s(phase: &Phase) -> f64 {
    let ok: Vec<_> = phase.ops.iter().filter(|o| o.ok).collect();
    let last = ok.iter().map(|o| o.end).fold(phase.origin, f64::max);
    let end = last.min(phase.deadline);
    let done: f64 = ok
        .iter()
        .map(|o| ((end.min(o.end) - o.start) / (o.end - o.start)).clamp(0.0, 1.0))
        .sum();
    done / (end - phase.origin)
}

/// Latencies of the completed ops, ms.
pub fn latencies_ms(phase: &Phase) -> Vec<f64> {
    phase
        .ops
        .iter()
        .filter(|o| o.ok)
        .map(|o| (o.end - o.start) * 1e3)
        .collect()
}

/// The human-readable report lines and the result-line metrics of the
/// untraced phase.
pub fn end_to_end(out: &Outcome) -> (Vec<String>, Vec<Metric>) {
    let p = &out.untraced;
    let lat = latencies_ms(p);
    let q = out.workload.tail_quantile();
    let setup: Vec<f64> = out.setup.iter().map(|s| s.total).collect();
    let attempted = p.ops.len();
    let failed = p.ops.iter().filter(|o| !o.ok).count();
    let wrong = p.units.iter().filter(|u| u.wrong.is_some()).count();
    let quality: Vec<f64> = p
        .units
        .iter()
        .take(p.window)
        .filter_map(|u| u.quality)
        .collect();
    let quality_mean = quality.iter().sum::<f64>() / quality.len().max(1) as f64;
    let metrics = vec![
        m("setup_s", median(&setup), "s"),
        m("ops_per_s", ops_per_s(p), "ops/s"),
        m("op_latency_p50_ms", median(&lat), "ms"),
        m("op_latency_tail_ms", quantile(&lat, q), "ms"),
        m("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
    ];
    let mut lines: Vec<String> = metrics
        .iter()
        .map(|x| format!("{} = {} {}", x.name, x.value, x.unit))
        .collect();
    lines[0].push_str(&format!("  (median of {} set-ups)", setup.len()));
    lines[1].push_str(&format!("  ({} ops on {} worker(s))", lat.len(), p.workers));
    lines[3].push_str(&format!(
        "  (p{}, {} of {} samples beyond)",
        q * 100.0,
        beyond(&lat, q),
        lat.len()
    ));
    lines.insert(
        4,
        format!(
            "failed_frac = {} ratio  ({failed} of {attempted} ops)",
            failed as f64 / attempted.max(1) as f64
        ),
    );
    lines.insert(
        5,
        format!(
            "wrong_frac = {} ratio  ({wrong} of {} {})",
            wrong as f64 / p.units.len().max(1) as f64,
            p.units.len(),
            unit_name(out.workload)
        ),
    );
    let window = |unit: &str| {
        format!(
            "{quality_mean} {unit}  (mean over the {} window units)",
            p.window
        )
    };
    let (mttd, gain) = match out.workload {
        Workload::MonitorStream => (window("ms"), "n/a (program_search only)".to_string()),
        Workload::ProgramSearch => ("n/a (monitor_stream only)".to_string(), window("dB")),
        Workload::DetectLocalize => (
            "n/a (monitor_stream only)".to_string(),
            "n/a (program_search only)".to_string(),
        ),
    };
    lines.insert(6, format!("mttd_sim_ms = {mttd}"));
    lines.insert(7, format!("search_gain_db = {gain}"));
    (lines, metrics)
}

fn unit_name(w: Workload) -> &'static str {
    match w {
        Workload::DetectLocalize => "verdicts",
        Workload::MonitorStream => "sessions",
        Workload::ProgramSearch => "searches",
    }
}

/// Per-layer metrics of the traced phase, and the coverage problems
/// found (empty when the layers cover the ops within tolerance).
pub fn per_layer(out: &Outcome, traced: &Phase) -> (Vec<Metric>, Vec<String>) {
    let spans = &traced.spans;
    let selfs = self_times(spans);
    let total = |name: &str, op_only: bool| -> (f64, usize) {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name && (!op_only || s.op != NO_OP))
            .fold((0.0, 0), |(t, n), (_, d)| (t + d, n + 1))
    };
    let c = traced.counts;
    let w = traced.window_counts;
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let ms_per_rec = |name: &str| per(total(name, true).0 * 1e3, c.records);
    let ms_per_call = |name: &str| {
        let (t, n) = total(name, false);
        per(t * 1e3, n as u64)
    };

    // Per op: the library call, the replayed layers standing in for its
    // children, and the op wrapper's own self time.
    let mut layer_by_op: BTreeMap<u64, f64> = BTreeMap::new();
    let mut synth_by_op: BTreeMap<u64, f64> = BTreeMap::new();
    let mut op_self = Vec::new();
    for (s, &d) in spans.iter().zip(&selfs).filter(|(s, _)| s.op != NO_OP) {
        if OP_LAYERS.contains(&s.name) {
            *layer_by_op.entry(s.op).or_insert(0.0) += d;
        } else if s.name == "array.synth" {
            *synth_by_op.entry(s.op).or_insert(0.0) += d;
        } else if s.name == "op" {
            op_self.push(d);
        }
    }
    let ok_ops: Vec<_> = traced.ops.iter().filter(|o| o.ok).collect();
    let (mut call_sum, mut attributed_sum) = (0.0, 0.0);
    for op in &ok_ops {
        call_sum += op.end - op.start;
        attributed_sum += layer_by_op.get(&op.id).copied().unwrap_or(0.0);
        if op.cache_miss {
            attributed_sum += synth_by_op.get(&op.id).copied().unwrap_or(0.0);
        }
    }
    let n_ops = ok_ops.len().max(1) as f64;
    let acq_layers: f64 = ACQ_LAYERS.iter().map(|l| total(l, true).0).sum();
    let acquire = total("core.acquire", true).0;
    let acquire_coverage = acq_layers / acquire;
    let op_coverage = attributed_sum / call_sum;

    let (busy, tail, job_p50) = engine_use(spans, traced.workers);
    let untraced_lat = latencies_ms(&out.untraced);
    let traced_lat = latencies_ms(traced);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let misses = traced.ops.iter().filter(|o| o.cache_miss).count() as f64;
    let custom_acqs: u64 = traced.ops.iter().map(|o| o.custom_acqs).sum();
    let setup_median =
        |f: fn(&crate::SetupTimes) -> f64| median(&out.setup.iter().map(f).collect::<Vec<_>>());

    let metrics = vec![
        m(
            "gatesim.advance_ms_per_rec",
            ms_per_rec("gatesim.advance"),
            "ms",
        ),
        m(
            "gatesim.cycles_per_op",
            per(w.cycles as f64, w.ops),
            "count",
        ),
        m(
            "gatesim.currents_ms_per_rec",
            ms_per_rec("gatesim.currents"),
            "ms",
        ),
        m("field.emf_ms_per_rec", ms_per_rec("field.emf"), "ms"),
        m(
            "analog.frontend_ms_per_rec",
            ms_per_rec("analog.frontend"),
            "ms",
        ),
        m(
            "analog.zero_span_ms_per_call",
            ms_per_call("analog.zero_span"),
            "ms",
        ),
        m(
            "dsp.fft_ms_per_rec",
            per(total("dsp.fft", true).0 * 1e3, c.ffts),
            "ms",
        ),
        m("dsp.ffts_per_op", per(w.ffts as f64, w.ops), "count"),
        m("array.synth_ms_per_prog", ms_per_call("array.synth"), "ms"),
        m("array.synth_per_op", per(w.synth as f64, w.ops), "count"),
        m(
            "core.custom_cache_miss_ratio",
            per(misses, custom_acqs),
            "ratio",
        ),
        m("core.acquire_ms_per_rec", ms_per_rec("core.acquire"), "ms"),
        m("core.records_per_op", per(w.records as f64, w.ops), "count"),
        m(
            "core.score_ms_per_op",
            (call_sum - attributed_sum) * 1e3 / n_ops,
            "ms",
        ),
        m("core.other_ms_per_op", mean(&op_self) * 1e3, "ms"),
        m("runtime.jobs", w.jobs as f64, "count"),
        m("runtime.busy_frac", busy, "ratio"),
        m("runtime.tail_idle_ms", tail, "ms"),
        m("runtime.job_ms_p50", job_p50, "ms"),
        m("setup.chip_build_s", setup_median(|s| s.chip_build), "s"),
        m("setup.baseline_s", setup_median(|s| s.baseline), "s"),
        m(
            "setup.rest_s",
            setup_median(|s| s.total - s.chip_build - s.baseline),
            "s",
        ),
        m(
            "trace.overhead_frac",
            mean(&traced_lat) / mean(&untraced_lat) - 1.0,
            "ratio",
        ),
        m("trace.acquire_coverage", acquire_coverage, "ratio"),
        m("trace.op_coverage", op_coverage, "ratio"),
    ];
    let mut problems = Vec::new();
    if !((1.0 - COVERAGE_TOLERANCE)..=(1.0 + COVERAGE_TOLERANCE)).contains(&acquire_coverage) {
        problems.push(format!(
            "coverage: replayed acquisition layers sum to {acquire_coverage:.4} of AcqContext's acquisition time (allowed 1 ± {COVERAGE_TOLERANCE})"
        ));
    }
    if op_coverage.is_nan() || op_coverage > 1.0 + COVERAGE_TOLERANCE {
        problems.push(format!(
            "coverage: replayed layers claim {op_coverage:.4} of the library calls' time (allowed ≤ {})",
            1.0 + COVERAGE_TOLERANCE
        ));
    }
    (metrics, problems)
}

/// Engine use from `runtime.map` and `runtime.job` spans: busy share of
/// the workers' time inside maps, mean idle at the end of a map (from
/// the first worker running out of jobs to the map's return, ms), and
/// the median job, ms.
fn engine_use(spans: &[Span], workers: usize) -> (f64, f64, f64) {
    let maps: BTreeMap<usize, &Span> = spans
        .iter()
        .filter(|s| s.name == "runtime.map")
        .map(|s| (s.id, s))
        .collect();
    let mut last_end: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut job_ms = Vec::new();
    let mut busy = 0.0;
    for job in spans.iter().filter(|s| s.name == "runtime.job") {
        let Some(map) = job.parent.filter(|p| maps.contains_key(p)) else {
            continue;
        };
        busy += job.dur();
        job_ms.push(job.dur() * 1e3);
        let e = last_end.entry((map, job.worker)).or_insert(0.0);
        *e = e.max(job.end);
    }
    let capacity: f64 = maps.values().map(|s| s.dur() * workers as f64).sum();
    let idle: Vec<f64> = maps
        .iter()
        .filter_map(|(&id, map)| {
            let first_done = last_end
                .range((id, 0)..=(id, usize::MAX))
                .map(|(_, &e)| e)
                .min_by(f64::total_cmp)?;
            Some((map.end - first_done) * 1e3)
        })
        .collect();
    let mean_idle = idle.iter().sum::<f64>() / idle.len().max(1) as f64;
    (busy / capacity, mean_idle, median(&job_ms))
}
