//! End-to-end guarantees of the telemetry subsystem.
//!
//! Three promises are checked against whole cluster runs:
//!
//! 1. **Thread-count invariance** — the JSONL and Chrome-trace exports
//!    of a fully-instrumented run are byte-identical for 1 and 8 worker
//!    threads (per-replica streams are recorded inside each engine; the
//!    cluster tail is merged single-threaded in replica order at the
//!    epoch barriers).
//! 2. **Observation is free** — enabling telemetry does not perturb the
//!    simulation: per-machine fingerprints and merged metrics match an
//!    uninstrumented run bit-for-bit.
//! 3. **The streams are populated** — a managed run produces flight
//!    recorder events, a non-empty decision audit trail whose records
//!    explain themselves, and per-epoch tail points.
//! 4. **Faults are observable and invariant** — with a fault plan
//!    active, the cluster event stream carries the machine-lifecycle
//!    events (fault_injected / machine_down / machine_up) and the
//!    exports remain byte-identical across worker-thread counts.

use rhythm::prelude::*;
use rhythm::telemetry::EventKind;
use std::sync::OnceLock;

/// One shared profiled context (Algorithm 1 dominates test wall-clock).
fn ctx() -> &'static ServiceContext {
    static CTX: OnceLock<ServiceContext> = OnceLock::new();
    CTX.get_or_init(|| ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 11))
}

fn cell(threads: usize, telemetry: TelemetryConfig) -> ClusterConfig {
    let mut c = ClusterConfig::new(2 * ctx().service.len()).with_scaled_jobs(0.02);
    c.duration_s = 60;
    c.jobs_per_machine = 3;
    c.load = LoadGen::constant(0.8);
    c.seed = 0x7E1E;
    c.threads = threads;
    c.telemetry = telemetry;
    c
}

#[test]
fn exports_are_thread_count_invariant() {
    let serial = run_cluster(ctx(), &ControllerChoice::Rhythm, &cell(1, TelemetryConfig::full()));
    let parallel = run_cluster(ctx(), &ControllerChoice::Rhythm, &cell(8, TelemetryConfig::full()));
    let (ts, tp) = (serial.telemetry.unwrap(), parallel.telemetry.unwrap());
    assert!(ts.decisions() > 0, "no decisions audited");
    assert_eq!(ts.export_jsonl(), tp.export_jsonl(), "JSONL export diverged across thread counts");
    assert_eq!(ts.chrome_trace(), tp.chrome_trace(), "Chrome trace diverged across thread counts");
    assert_eq!(ts.why_report(), tp.why_report());
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    let off = run_cluster(ctx(), &ControllerChoice::Rhythm, &cell(4, TelemetryConfig::disabled()));
    let on = run_cluster(ctx(), &ControllerChoice::Rhythm, &cell(4, TelemetryConfig::full()));
    assert!(off.telemetry.is_none());
    assert!(on.telemetry.is_some());
    assert_eq!(
        off.fingerprints, on.fingerprints,
        "enabling telemetry changed per-machine results"
    );
    let a = serde_json::to_string(&off.metrics).unwrap();
    let b = serde_json::to_string(&on.metrics).unwrap();
    assert_eq!(a, b, "enabling telemetry changed merged metrics");
}

#[test]
fn fault_exports_are_thread_count_invariant() {
    let faulted = |threads: usize| {
        let mut c = cell(threads, TelemetryConfig::full());
        c.faults = FaultPlan::new()
            .crash(14.0, 1)
            .slow_node(20.0, 2, 0.6)
            .recover(34.0, 1)
            .recover(44.0, 2);
        run_cluster(ctx(), &ControllerChoice::Rhythm, &c)
    };
    let serial = faulted(1);
    let parallel = faulted(8);
    let (ts, tp) = (serial.telemetry.unwrap(), parallel.telemetry.unwrap());
    // The machine-lifecycle events are in the stream, in plan order.
    let kinds: Vec<&ClusterEventKind> = ts.cluster_events.iter().map(|e| &e.kind).collect();
    let count = |want: ClusterEventKind| kinds.iter().filter(|k| ***k == want).count();
    assert_eq!(count(ClusterEventKind::FaultInjected), 4, "{kinds:?}");
    assert_eq!(count(ClusterEventKind::MachineDown), 1);
    assert_eq!(count(ClusterEventKind::MachineUp), 2, "crash + straggler recoveries");
    let down = ts
        .cluster_events
        .iter()
        .find(|e| e.kind == ClusterEventKind::MachineDown)
        .expect("machine_down recorded");
    assert_eq!(down.job, 1, "machine_down carries the global machine index");
    // Byte-identical exports for any worker-thread count, faults active.
    assert_eq!(
        ts.export_jsonl(),
        tp.export_jsonl(),
        "JSONL export diverged across thread counts under faults"
    );
    assert_eq!(
        ts.chrome_trace(),
        tp.chrome_trace(),
        "Chrome trace diverged across thread counts under faults"
    );
    assert_eq!(serial.fingerprints, parallel.fingerprints);
    // The JSONL lines name the fault events.
    let jsonl = ts.export_jsonl();
    for needle in ["fault_injected", "machine_down", "machine_up"] {
        assert!(jsonl.contains(needle), "JSONL export lacks {needle}");
    }
}

#[test]
fn streams_are_populated_and_self_describing() {
    let outcome = run_cluster(ctx(), &ControllerChoice::Rhythm, &cell(4, TelemetryConfig::full()));
    let tel = outcome.telemetry.unwrap();
    assert!(!tel.replicas.is_empty());
    assert!(!tel.cluster_tail.is_empty(), "no cluster tail points merged");
    for (r, rep) in tel.replicas.iter().enumerate() {
        assert!(rep.recorded > 0, "replica {r}: flight recorder empty");
        assert!(!rep.audit.is_empty(), "replica {r}: audit trail empty");
        assert!(!rep.tail.is_empty(), "replica {r}: tail series empty");
        // Every action in the ring has a matching audit record at its
        // timestamp (the recorder may additionally have wrapped).
        let actions = rep
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Action { .. }))
            .count();
        assert!(actions > 0, "replica {r}: no Action events recorded");
        for rec in &rep.audit {
            let mut why = String::new();
            rec.write_why(&mut why);
            assert!(why.contains("because"), "unexplained decision: {why}");
            assert!(rec.slacklimit >= 0.0 && rec.loadlimit > 0.0);
        }
    }
    // The JSONL export has the meta line plus one line per record.
    let jsonl = tel.export_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines[0].contains("\"rhythm-trace/v1\""), "bad meta line: {}", lines[0]);
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    let records: usize = tel
        .replicas
        .iter()
        .map(|r| r.events.len() + r.audit.len() + r.tail.len())
        .sum::<usize>()
        + tel.cluster_tail.len();
    assert_eq!(lines.len(), 1 + records);
    // The Chrome trace is one JSON document with the required envelope.
    let chrome = tel.chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.contains("\"ph\":"));
}
