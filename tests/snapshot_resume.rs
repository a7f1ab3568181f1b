//! The durable-state contract, end to end: a run snapshotted at epoch k
//! and resumed to the horizon is **bit-identical** to a run that never
//! stopped — same machine fingerprints, same metrics, same telemetry
//! exports — for any worker-thread count.
//!
//! One straight-through reference run stands in for every grid cell:
//! threading is already proven observation-invariant, so every resume
//! must land on the same bytes, telemetry exports included.

use rhythm::prelude::*;
use rhythm::workloads::apps;

const CAPTURE_EPOCH: u32 = 7;

fn ctx() -> ServiceContext {
    ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 11)
}

fn cfg(threads: usize) -> ClusterConfig {
    // 16 machines over solr's 2 Servpods = 8 replicas.
    let mut c = ClusterConfig::new(16).with_scaled_jobs(0.02);
    c.duration_s = 40;
    c.jobs_per_machine = 2;
    c.load = LoadGen::constant(0.5);
    c.threads = threads;
    c.telemetry = TelemetryConfig::full();
    c
}

fn assert_identical(a: &ClusterOutcome, b: &ClusterOutcome, what: &str) {
    assert_eq!(a.fingerprints, b.fingerprints, "{what}: machine fingerprints");
    assert_eq!(a.metrics.jobs, b.metrics.jobs, "{what}: job stats");
    assert_eq!(a.metrics.requeues, b.metrics.requeues, "{what}: requeues");
    assert_eq!(
        a.metrics.completed_requests, b.metrics.completed_requests,
        "{what}: completed requests"
    );
    let (ta, tb) = (
        a.telemetry.as_ref().expect("telemetry on"),
        b.telemetry.as_ref().expect("telemetry on"),
    );
    assert_eq!(ta.export_jsonl(), tb.export_jsonl(), "{what}: jsonl export");
    assert_eq!(ta.chrome_trace(), tb.chrome_trace(), "{what}: chrome trace");
    assert_eq!(ta.why_report(), tb.why_report(), "{what}: why report");
}

#[test]
fn resume_matches_straight_run_across_thread_grid() {
    let ctx = ctx();
    let reference = run_cluster(&ctx, &ControllerChoice::Rhythm, &cfg(1));
    for capture_threads in [1usize, 4] {
        let capture_run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &cfg(capture_threads))
            .snapshot_at(CAPTURE_EPOCH)
            .run();
        assert_identical(
            &reference,
            &capture_run.outcome,
            &format!("capturing run on {capture_threads} threads"),
        );
        let bytes = capture_run.snapshots[0].1.to_bytes();
        // The snapshot must not remember how it was made: resume on
        // every thread count.
        for threads in [1usize, 4] {
            let snap = ClusterSnapshot::from_bytes(&bytes).expect("snapshot bytes parse");
            let resumed = ClusterRunner::resume(&snap, &ctx, &ControllerChoice::Rhythm, &cfg(threads))
                .expect("snapshot matches its config")
                .run();
            assert_identical(
                &reference,
                &resumed.outcome,
                &format!("captured on {capture_threads}, resumed on {threads} threads"),
            );
        }
    }
}

/// The golden hetero cell (4 machines, one 3-instance gang): small
/// enough that its job ledger holds offered and running gang members
/// within a few epochs.
fn hetero_cfg() -> ClusterConfig {
    let mut c = ClusterConfig::new(4).with_scaled_jobs(0.02);
    c.duration_s = 60;
    c.load = LoadGen::constant(0.6);
    c.policy = PlacementPolicy::HeteroAware;
    c.seed = 0x601D;
    c.threads = 2;
    c.machine_specs = vec![
        MachineSpec::dense_compute(),
        MachineSpec::paper_testbed(),
        MachineSpec::lean_node(),
        MachineSpec::paper_testbed(),
    ];
    c.priority_preemption = true;
    c.queue_aging_s = Some(20.0);
    c.gang_patience_epochs = 3;
    let wc = c.be_mix[0].clone();
    c.job_plan = vec![
        JobSpec::solitary(wc.clone()).with_priority(2).with_deadline(30.0),
        JobSpec::solitary(wc.clone()).with_priority(1).with_gang(3),
        JobSpec::solitary(wc.clone()).with_priority(1).with_deadline(45.0),
        JobSpec::solitary(wc.clone()),
        JobSpec::solitary(wc),
    ];
    c
}

#[test]
fn ledger_naming_an_unknown_machine_is_refused() {
    use rhythm::cluster::JobState;
    let ctx = ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 11);
    let c = hetero_cfg();
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
        .snapshot_at(2)
        .snapshot_at(6)
        .run();
    let mut rewrites = 0;
    for (_, snap) in &run.snapshots {
        for (i, job) in snap.scheduler.jobs.iter().enumerate() {
            let bogus = match job.state {
                JobState::Offered(_) => JobState::Offered(999_999),
                JobState::Running(_) => JobState::Running(999_999),
                JobState::Queued | JobState::Done => continue,
            };
            let mut bad = snap.clone();
            bad.scheduler.jobs[i].state = bogus;
            rewrites += 1;
            assert!(
                matches!(
                    ClusterSnapshot::from_bytes(&bad.to_bytes()),
                    Err(SnapshotError::Corrupt(_))
                ),
                "job {i} rewritten to {bogus:?} must not decode"
            );
            assert!(
                ClusterRunner::resume(&bad, &ctx, &ControllerChoice::Rhythm, &c).is_err(),
                "job {i} rewritten to {bogus:?} must not resume"
            );
        }
    }
    assert!(rewrites > 0, "no offered or running job to rewrite");
}

#[test]
fn snapshot_files_reject_corruption_and_truncation() {
    let ctx = ctx();
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &cfg(1))
        .snapshot_at(CAPTURE_EPOCH)
        .run();
    let bytes = run.snapshots[0].1.to_bytes();

    // Format-version bump: refused as Incompatible, not mis-decoded.
    let mut wrong_version = bytes.clone();
    wrong_version[4] ^= 0xFF; // version is the u32 after the 4-byte magic
    assert!(matches!(
        ClusterSnapshot::from_bytes(&wrong_version),
        Err(SnapshotError::Incompatible { .. })
    ));

    // Schema-hash drift (a crate changed its layout): also Incompatible.
    // Layout: magic(4) + version(u32) + schema count(u64) + first entry's
    // name (u64 length prefix + bytes) + its u64 hash — flip a hash byte.
    let name_len = rhythm::cluster::expected_schemas()[0].0.len();
    let hash_byte = 4 + 4 + 8 + 8 + name_len;
    let mut wrong_schema = bytes.clone();
    wrong_schema[hash_byte] ^= 0xFF;
    assert!(matches!(
        ClusterSnapshot::from_bytes(&wrong_schema),
        Err(SnapshotError::Incompatible { .. })
    ));

    // Truncation anywhere: an error, never a panic or a silent partial
    // decode.
    for cut in [3usize, 16, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            ClusterSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }

    // Trailing garbage is refused too.
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(ClusterSnapshot::from_bytes(&padded).is_err());
}
