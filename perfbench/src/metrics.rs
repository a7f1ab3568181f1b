//! What the benchmark reports: the metric declarations (mirrored in
//! `BENCHMARK.json`), the per-repetition record each workload returns,
//! output-check accounting, and the JSON result line.

use crate::trace::median;
use std::collections::BTreeMap;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperTestbed,
    Warehouse,
    ChaosDay,
}

use Workload::{ChaosDay, PaperTestbed, Warehouse};

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [PaperTestbed, Warehouse, ChaosDay];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            PaperTestbed => "paper-testbed",
            Warehouse => "warehouse",
            ChaosDay => "chaos-day",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Workloads whose calls exercise the layer. On the others the layer
    /// does no work and the metric reads 0.
    pub on: &'static [Workload],
}

const fn m(name: &'static str, unit: &'static str, on: &'static [Workload]) -> Metric {
    Metric { name, unit, on }
}

const EVERY: &[Workload] = &[PaperTestbed, Warehouse, ChaosDay];
const PT: &[Workload] = &[PaperTestbed];
const WH: &[Workload] = &[Warehouse];
const CD: &[Workload] = &[ChaosDay];
const CLUSTER: &[Workload] = &[Warehouse, ChaosDay];

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s", EVERY),
    m("setup_s", "s", EVERY),
    m("sim_req_per_s", "req/s", EVERY),
    m("peak_rss_mb", "MB", EVERY),
    m("emu", "ratio", EVERY),
    m("p99_over_sla", "ratio", EVERY),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("core.engine.step_ms.p50", "ms", PT),
    m("core.engine.step_ms.p99", "ms", PT),
    m("core.engine.ns_per_req", "ns", PT),
    m("core.engine.requests", "count", PT),
    m("core.profiling.calibrate_sla_ms", "ms", EVERY),
    m("core.profiling.profile_service_ms", "ms", EVERY),
    m("core.profiling.derive_thresholds_ms", "ms", EVERY),
    m("controller.ticks", "count", PT),
    m("controller.sla_violation_ticks", "count", EVERY),
    m("controller.be_kills", "count", EVERY),
    m("controller.emu_gain_pct", "%", PT),
    m("cluster.run_s", "s", CLUSTER),
    m("cluster.us_per_machine_epoch", "us", CLUSTER),
    m("cluster.run_1thread_s", "s", WH),
    m("cluster.parallel_efficiency", "ratio", WH),
    m("cluster.steals", "count", CLUSTER),
    m("cluster.fast_path_epochs", "count", CLUSTER),
    m("cluster.requeues", "count", CLUSTER),
    m("cluster.be_kills", "count", CLUSTER),
    m("cluster.jobs_completed", "count", CLUSTER),
    m("cluster.jobs_submitted", "count", CLUSTER),
    m("cluster.wasted_job_share", "ratio", CLUSTER),
    m("cluster.snapshot_capture_s", "s", CD),
    m("cluster.resume_ms", "ms", CD),
    m("snapshot.encode_ms", "ms", CD),
    m("snapshot.encode_mb_per_s", "MB/s", CD),
    m("snapshot.decode_ms", "ms", CD),
    m("snapshot.decode_mb_per_s", "MB/s", CD),
    m("snapshot.engine_bytes", "bytes", CD),
    m("snapshot.scheduler_bytes", "bytes", CD),
    m("snapshot.mb", "MB", CD),
    m("snapshot.restart_s", "s", CD),
    m("telemetry.record_s", "s", CD),
    m("telemetry.export_jsonl_ms", "ms", CD),
    m("telemetry.chrome_trace_ms", "ms", CD),
    m("telemetry.why_report_ms", "ms", CD),
    m("telemetry.jsonl_bytes", "bytes", CD),
    m("chaos.fault_events", "count", CD),
    m("sim.calendar.schedule_pop_ns", "ns", EVERY),
    m("sim.histogram.record_ns", "ns", EVERY),
    m("sim.histogram.p99_ns", "ns", EVERY),
    m("sim.dist.lognormal_sample_ns", "ns", EVERY),
    m("sim.stats.pearson_4k_us", "us", EVERY),
    m("sim.stats.welford_push_ns", "ns", EVERY),
    m("machine.admit_grow_kill_cycle_us", "us", EVERY),
    m("bench.trace_overhead_pct", "%", EVERY),
    m("bench.uncovered_pct", "%", EVERY),
    m("bench.self_s.core", "s", EVERY),
    m("bench.self_s.cluster", "s", CLUSTER),
    m("bench.self_s.snapshot", "s", CD),
    m("bench.self_s.telemetry", "s", CD),
];

/// One repetition of a workload, as the end-to-end metrics see it.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host seconds from workload start until outputs are checked and
    /// artifacts built.
    pub wall_s: f64,
    /// Host seconds of each top-level call, in order.
    pub steps: Vec<(&'static str, f64)>,
    /// Simulated LC requests completed inside the `SIM_STEPS` calls.
    pub sim_requests: u64,
    /// Rhythm's EMU (simulated).
    pub emu: f64,
    /// p99 latency over the SLA (simulated).
    pub p99_over_sla: f64,
    /// Digest of every simulated output of the repetition.
    pub fingerprint: u64,
    /// Digest of the prepared thresholds.
    pub setup_fingerprint: u64,
    /// chaos-day: `from_bytes` + `ClusterRunner::resume`, host seconds.
    pub restart_s: Option<f64>,
    /// chaos-day: encoded capture size in MB.
    pub snapshot_mb: Option<f64>,
    /// paper-testbed: Rhythm's EMU gain over Heracles in percent.
    pub emu_gain_pct: Option<f64>,
    /// paper-testbed: p99 over the SLA of the worst Rhythm cell.
    pub worst_p99_over_sla: Option<f64>,
}

/// Output checks: how many were made and which failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: Vec<String>,
}

impl Checks {
    /// Records one check; a failure is kept by name, never aborts.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed.push(what.to_string());
        }
    }

    /// Failed checks as a count.
    pub fn failed_count(&self) -> u64 {
        self.failed.len() as u64
    }
}

/// Per-layer values of one traced repetition, by metric name.
#[derive(Clone, Debug, Default)]
pub struct LayerValues(pub BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Sets a per-layer value. Panics on a name `PER_LAYER` does not
    /// declare, which is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Adds to a per-layer value (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let sum = self.0.get(name).copied().unwrap_or(0.0) + value;
        self.set(name, sum);
    }

    /// The per-key median over several repetitions.
    pub fn median_of(reps: &[LayerValues]) -> LayerValues {
        let mut keys: Vec<&'static str> = reps.iter().flat_map(|r| r.0.keys().copied()).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut out = LayerValues::default();
        for k in keys {
            let vals: Vec<f64> = reps.iter().filter_map(|r| r.0.get(k).copied()).collect();
            out.0.insert(k, median(&vals));
        }
        out
    }
}

/// Steps that count as set-up: `prepare` and runner construction.
pub const SETUP_STEPS: &[&str] = &["core.prepare", "cluster.runner_new"];
/// Steps that simulate the workload's requests.
pub const SIM_STEPS: &[&str] = &["core.engine.run", "cluster.run"];

/// Each step's median host time over the repetitions, in step order;
/// `None` when the repetitions did not run the same steps.
pub fn step_medians(reps: &[Rep]) -> Option<Vec<(&'static str, f64)>> {
    let first = reps.first()?;
    let same = |r: &Rep| {
        r.steps.len() == first.steps.len()
            && r.steps.iter().zip(&first.steps).all(|(a, b)| a.0 == b.0)
    };
    if !reps.iter().all(same) {
        return None;
    }
    let medians = first
        .steps
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            (
                name,
                median(&reps.iter().map(|r| r.steps[i].1).collect::<Vec<_>>()),
            )
        })
        .collect();
    Some(medians)
}

/// End-to-end values of a workload from its untraced repetitions.
///
/// Host times are per-step medians: each top-level call's median over
/// the repetitions, summed, plus the median of what the calls leave
/// uncovered. A burst of host contention slows a few steps of one
/// repetition; a per-step median drops it, where the median of whole
/// repetitions would not. Simulated values are the first repetition's
/// (every repetition is checked to repeat them). `None` when the
/// repetitions ran different steps.
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Option<BTreeMap<&'static str, f64>> {
    let steps = step_medians(reps)?;
    let first = reps.first()?;
    let glue = median(
        &reps
            .iter()
            .map(|r| r.wall_s - r.steps.iter().map(|s| s.1).sum::<f64>())
            .collect::<Vec<_>>(),
    );
    let sum = |names: &[&str]| -> f64 {
        steps
            .iter()
            .filter(|s| names.contains(&s.0))
            .map(|s| s.1)
            .sum()
    };
    let total: f64 = steps.iter().map(|s| s.1).sum();
    Some(BTreeMap::from([
        ("wall_s", total + glue),
        ("setup_s", sum(SETUP_STEPS)),
        (
            "sim_req_per_s",
            first.sim_requests as f64 / sum(SIM_STEPS).max(1e-9),
        ),
        ("peak_rss_mb", peak_rss_mb),
        ("emu", first.emu),
        ("p99_over_sla", first.p99_over_sla),
    ]))
}

/// Per-layer values for `workload`: the measured values, 0 for a layer
/// the workload bypasses. A metric the workload should have measured but
/// did not is a failed check.
pub fn per_layer(
    workload: Workload,
    values: &LayerValues,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for d in PER_LAYER {
        let v = values.0.get(d.name).copied();
        if d.on.contains(&workload) {
            checks.check(
                &format!("per-layer metric {} measured", d.name),
                v.is_some(),
            );
        }
        out.insert(d.name, v.unwrap_or(0.0));
    }
    out
}

/// Throughput in MB/s (10^6 bytes) of `bytes` handled in `secs`.
pub fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs.max(1e-12)
}

/// Parallel efficiency: the one-thread time over `threads` times the
/// `threads`-thread time. 1 means perfect scaling; serial dispatch,
/// merge and barriers pull it down.
pub fn parallel_efficiency(one_thread_s: f64, n_thread_s: f64, threads: usize) -> f64 {
    one_thread_s / (threads.max(1) as f64 * n_thread_s.max(1e-12))
}

/// Formats a number for JSON with every digit Rust's shortest
/// round-trip form keeps.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and one entry per
/// declared metric in `decls`. A value that is missing or not finite is
/// a failed check, so `correct` turns false instead of the line turning
/// into invalid JSON.
pub fn result_line(
    decls: &[Metric],
    values: &BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) -> String {
    let mut parts = Vec::new();
    for d in decls {
        let v = values.get(d.name).copied();
        checks.check(
            &format!("metric {} is a finite number", d.name),
            v.is_some_and(f64::is_finite),
        );
        parts.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(v.unwrap_or(0.0)),
            d.unit
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed.is_empty(),
        checks.attempted,
        checks.failed_count(),
        parts.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn declared_in_benchmark_json(key: &str) -> Vec<(String, Option<String>)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let end = body.find(']').expect("array closes");
        let body = &body[..end];
        let field = |obj: &str, f: &str| -> Option<String> {
            let at = obj.find(&format!("\"{f}\""))?;
            let rest = &obj[at + f.len() + 2..];
            let q = rest.find('"')?;
            let rest = &rest[q + 1..];
            Some(rest[..rest.find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name").expect("name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name {n}");
            assert!(n.len() <= 64, "{n} too long");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names repeat");
        assert!(PER_LAYER.len() <= 128);
        assert!(!valid_name("") && !valid_name("a b") && !valid_name("x/y"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        for (key, decls) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let json = declared_in_benchmark_json(key);
            let ours: Vec<(String, Option<String>)> = decls
                .iter()
                .map(|d| (d.name.to_string(), Some(d.unit.to_string())))
                .collect();
            assert_eq!(json, ours, "{key} in BENCHMARK.json");
        }
        let workloads = declared_in_benchmark_json("workloads");
        let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    /// A repetition of prepare (a quarter of the wall time), one run (a
    /// half) and an export, with a tenth of the wall time uncovered.
    fn rep(wall_s: f64) -> Rep {
        Rep {
            wall_s,
            steps: vec![
                ("core.prepare", wall_s / 4.0),
                ("cluster.run", wall_s / 2.0),
                ("telemetry.export_jsonl", wall_s * 0.15),
            ],
            sim_requests: 1_000,
            emu: 1.4,
            p99_over_sla: 0.9,
            ..Rep::default()
        }
    }

    #[test]
    fn every_declared_metric_is_emitted_for_every_workload() {
        for w in Workload::ALL {
            let e2e = end_to_end(&[rep(2.0), rep(1.0), rep(3.0)], 50.0).unwrap();
            let mut checks = Checks::default();
            let line = result_line(END_TO_END, &e2e, &mut checks);
            assert!(checks.failed.is_empty(), "{w:?}: {:?}", checks.failed);
            for d in END_TO_END {
                assert!(line.contains(&format!("\"{}\": {{\"value\": ", d.name)));
            }

            // A traced repetition that measured exactly the layers the
            // workload exercises emits every declared per-layer metric
            // and fails no check.
            let mut lv = LayerValues::default();
            for d in PER_LAYER.iter().filter(|d| d.on.contains(&w)) {
                lv.set(d.name, 1.5);
            }
            let mut checks = Checks::default();
            let values = per_layer(w, &lv, &mut checks);
            let line = result_line(PER_LAYER, &values, &mut checks);
            assert!(checks.failed.is_empty(), "{w:?}: {:?}", checks.failed);
            for d in PER_LAYER {
                let expect = if d.on.contains(&w) { "1.5" } else { "0" };
                let entry = format!(
                    "\"{}\": {{\"value\": {expect}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                );
                assert!(line.contains(&entry), "{w:?} lacks {entry}");
            }
        }
    }

    #[test]
    fn a_layer_left_unmeasured_fails_a_check() {
        let mut checks = Checks::default();
        let _ = per_layer(ChaosDay, &LayerValues::default(), &mut checks);
        assert!(checks
            .failed
            .iter()
            .any(|f| f.contains("snapshot.encode_ms")));
        assert!(!checks
            .failed
            .iter()
            .any(|f| f.contains("core.engine.step_ms")));
    }

    #[test]
    fn end_to_end_takes_per_step_medians() {
        let e2e = end_to_end(&[rep(2.0), rep(1.0), rep(3.0)], 50.0).unwrap();
        assert!((e2e["wall_s"] - 2.0).abs() < 1e-12);
        assert!((e2e["setup_s"] - 0.5).abs() < 1e-12);
        // 1000 requests over 1.0 s of simulation in the median rep.
        assert!((e2e["sim_req_per_s"] - 1000.0).abs() < 1e-9);
        assert_eq!(e2e["peak_rss_mb"], 50.0);

        // A burst that slows one step of one repetition drops out, where
        // the median of whole repetitions would take it in.
        let mut burst = [rep(2.0), rep(2.0), rep(2.0)];
        burst[0].steps[1].1 += 5.0;
        burst[0].wall_s += 5.0;
        burst[1].steps[0].1 += 5.0;
        burst[1].wall_s += 5.0;
        let e2e = end_to_end(&burst, 50.0).unwrap();
        assert!((e2e["wall_s"] - 2.0).abs() < 1e-12, "{e2e:?}");

        // Repetitions that ran different steps have no per-step median.
        let mut odd = rep(2.0);
        odd.steps.pop();
        assert!(end_to_end(&[rep(2.0), odd], 50.0).is_none());
    }

    #[test]
    fn non_finite_values_fail_a_check_and_stay_valid_json() {
        let mut values = BTreeMap::new();
        for d in END_TO_END {
            values.insert(d.name, 1.0);
        }
        values.insert("emu", f64::NAN);
        let mut checks = Checks::default();
        let line = result_line(END_TO_END, &values, &mut checks);
        assert_eq!(
            checks.failed,
            vec!["metric emu is a finite number".to_string()]
        );
        assert!(line.contains("\"emu\": {\"value\": 0, \"unit\": \"ratio\"}"));
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 6, \"failed\": 1,"));
    }

    #[test]
    fn derived_ratios_from_synthetic_spans() {
        use crate::trace::Span;
        let secs = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-9;
        let span = |id, name, start_ns, end_ns| Span {
            id,
            parent: None,
            run: 1,
            name,
            start_ns,
            end_ns,
        };
        // 15 MB encoded in 50 ms is 300 MB/s.
        let encode = span(0, "snapshot.encode", 1_000_000, 51_000_000);
        assert!((mb_per_s(15_000_000, secs(&encode)) - 300.0).abs() < 1e-9);
        // 4 s on one thread against 2.5 s on two threads: 0.8.
        let one = span(1, "cluster.run_1thread", 0, 4_000_000_000);
        let two = span(2, "cluster.run", 0, 2_500_000_000);
        assert!((parallel_efficiency(secs(&one), secs(&two), 2) - 0.8).abs() < 1e-12);
        // Perfect scaling reads 1; a zero thread count counts as one.
        assert!((parallel_efficiency(2.0, 1.0, 2) - 1.0).abs() < 1e-12);
        assert!((parallel_efficiency(2.0, 2.0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn layer_medians_are_per_key() {
        let mut a = LayerValues::default();
        a.set("cluster.run_s", 1.0);
        let mut b = LayerValues::default();
        b.set("cluster.run_s", 3.0);
        b.set("cluster.steals", 4.0);
        let mut c = LayerValues::default();
        c.set("cluster.run_s", 2.0);
        let med = LayerValues::median_of(&[a, b, c]);
        assert_eq!(med.0["cluster.run_s"], 2.0);
        assert_eq!(med.0["cluster.steals"], 4.0);
    }
}
