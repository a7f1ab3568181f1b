//! The three workloads, driven from outside through the simulator's
//! public functions only.
//!
//! Each function runs one repetition and returns its [`Rep`]. With an
//! enabled tracer the same repetition records spans, splits `prepare`
//! into its three profiling calls and (paper-testbed) steps every engine
//! one controller period at a time; the simulated outputs must not
//! change. With `probes` set, a traced repetition also runs the extra
//! simulations some per-layer metrics need, after its wall time is taken.

use crate::metrics::{mb_per_s, parallel_efficiency, Checks, LayerValues, Rep};
use crate::trace::{now, quantile, secs_since, Tracer};
use rhythm_chaos::{outcome_fingerprint, Scenario};
use rhythm_cluster::{ClusterConfig, ClusterOutcome, ClusterRunner, ClusterSnapshot};
use rhythm_core::experiment::{ControllerChoice, ExperimentConfig, ServiceContext};
use rhythm_core::metrics::{improvement, RunMetrics};
use rhythm_core::profiling::{calibrate_sla, derive_thresholds, profile_service, ProfileConfig};
use rhythm_core::runtime::{Engine, EngineOutput};
use rhythm_sim::{SimDuration, SimTime};
use rhythm_snapshot::SnapshotFile;
use rhythm_telemetry::TelemetryConfig;
use rhythm_workloads::{apps, BeKind, BeSpec, LoadGen, ServiceSpec};
use std::sync::Arc;

/// What every repetition of one invocation shares.
pub struct Env {
    /// The workload seed from the command line.
    pub seed: u64,
    /// Cluster worker threads: the host's CPUs, at most 8.
    pub threads: usize,
}

/// paper-testbed loads, in percent of max load.
const LOADS_PCT: [u32; 2] = [65, 85];
/// paper-testbed cell length, virtual seconds.
const CELL_S: u64 = 180;
/// Controller period of every workload, virtual ms.
const PERIOD_MS: u64 = 2_000;
/// warehouse size and horizon.
const WAREHOUSE_MACHINES: usize = 1024;
const WAREHOUSE_S: u64 = 120;
/// chaos-day size, scenario and capture barrier (machine 3 is down
/// from t=100 s to t=136 s, so the capture at t=120 s holds a crash).
const CHAOS_MACHINES: usize = 256;
const CHAOS_SCENARIO: &str = "rolling-crashes";
const CAPTURE_EPOCH: u32 = 60;

/// Seed of every `prepare`. The paper profiles each LC service once, so
/// set-up is the same work under every workload seed; `--seed` draws
/// what the workload then runs: cell seeds, job plans, load curves.
const PROFILE_SEED: u64 = 0x0005_EED0_F11E;

/// Derives an independent stream seed from the workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a accumulator for output digests.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Feeds `bytes` eight at a time (the tail zero-padded), then the
    /// length, so exports of 100+ MB digest in tens of milliseconds.
    fn feed_bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(w);
            self.feed(u64::from_le_bytes(buf));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.feed(u64::from_le_bytes(tail));
        self.feed(bytes.len() as u64);
    }

    fn feed_thresholds(&mut self, ctx: &ServiceContext) {
        self.feed(ctx.sla_ms.to_bits());
        for t in &ctx.thresholds.thresholds {
            self.feed(t.loadlimit.to_bits());
            self.feed(t.slacklimit.to_bits());
        }
    }
}

/// `ServiceContext::prepare`, or — when tracing — the three profiling
/// calls it makes, each in its own span, assembled the same way.
fn prepare(
    tr: &mut Tracer,
    lv: &mut LayerValues,
    service: ServiceSpec,
    probe: &[BeSpec],
    seed: u64,
) -> ServiceContext {
    if !tr.enabled() {
        return ServiceContext::prepare(service, probe, seed);
    }
    let (sla_ms, a) = tr.span("core.profiling.calibrate_sla", |_| {
        calibrate_sla(&service, seed)
    });
    let (profile, b) = tr.span("core.profiling.profile_service", |_| {
        profile_service(
            &service,
            &ProfileConfig {
                seed,
                ..ProfileConfig::default()
            },
        )
    });
    let (thresholds, c) = tr.span("core.profiling.derive_thresholds", |_| {
        derive_thresholds(&service, &profile, sla_ms, probe, seed)
    });
    lv.add("core.profiling.calibrate_sla_ms", a * 1e3);
    lv.add("core.profiling.profile_service_ms", b * 1e3);
    lv.add("core.profiling.derive_thresholds_ms", c * 1e3);
    ServiceContext {
        service: Arc::new(service),
        sla_ms,
        thresholds,
        seed,
    }
}

/// One engine cell through `ServiceContext::run`, or — when tracing —
/// the same engine stepped one controller period at a time with
/// `run_until`, each step in its own span.
fn engine_cell(
    tr: &mut Tracer,
    ctx: &ServiceContext,
    choice: ControllerChoice,
    cfg: &ExperimentConfig,
    steps_ms: &mut Vec<f64>,
) -> ((EngineOutput, RunMetrics), f64) {
    tr.begin_run();
    if !tr.enabled() {
        return tr.span("core.engine.run", |_| ctx.run(choice, cfg));
    }
    tr.span("core.engine.run", |tr| {
        let ecfg = ctx.engine_config(&choice, cfg);
        let (mut engine, _) = tr.span("core.engine.new", |_| {
            Engine::new(Arc::clone(&ctx.service), ecfg)
        });
        tr.span("core.engine.start", |_| engine.start());
        let period = SimDuration::from_millis(PERIOD_MS);
        let mut t = SimTime::ZERO + period;
        while t <= engine.ends_at() {
            let ((), s) = tr.span("core.engine.run_until", |_| engine.run_until(t));
            steps_ms.push(s * 1e3);
            t += period;
        }
        tr.span("core.engine.drain", |_| engine.run_until(SimTime::MAX));
        let (out, _) = tr.span("core.engine.finish_run", |_| engine.finish_run());
        let metrics = RunMetrics::from_output(&out);
        (out, metrics)
    })
}

/// The five evaluation services, prepared against the colocation BEs;
/// then Rhythm and Heracles on one engine cell per (service, BE, load).
pub fn paper_testbed(env: &Env, tr: &mut Tracer, checks: &mut Checks, lv: &mut LayerValues) -> Rep {
    let t0 = now();
    let seed = mix(env.seed, 1);
    let bes = BeSpec::colocation_set();
    let mut setup_fp = Digest::new();
    let mut ctxs = Vec::new();
    for service in apps::evaluation_apps() {
        let (ctx, _) = tr.span("core.prepare", |tr| {
            prepare(tr, lv, service, &bes, PROFILE_SEED)
        });
        setup_fp.feed_thresholds(&ctx);
        ctxs.push(ctx);
    }

    let mut fp = Digest::new();
    let mut idle_cells = 0;
    let (mut sim_s, mut requests) = (0.0, 0u64);
    let (mut ticks, mut violations, mut kills) = (0u64, 0u64, 0u64);
    let (mut emus, mut gains, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    let mut steps_ms = Vec::new();
    for ctx in &ctxs {
        for be in &bes {
            for load_pct in LOADS_PCT {
                let cfg = ExperimentConfig {
                    bes: vec![be.clone()],
                    load: LoadGen::constant(f64::from(load_pct) / 100.0),
                    duration_s: CELL_S,
                    seed: mix(seed, u64::from(load_pct)),
                    record_timeline: false,
                    controller_period_ms: PERIOD_MS,
                };
                let mut pair = Vec::new();
                for choice in [ControllerChoice::Rhythm, ControllerChoice::Heracles] {
                    let ((out, metrics), s) = engine_cell(tr, ctx, choice, &cfg, &mut steps_ms);
                    sim_s += s;
                    requests += out.completed;
                    for agent in out.pods.iter().filter_map(|p| p.agent) {
                        ticks += agent.ticks;
                        violations += agent.sla_violations;
                        kills += agent.be_kills;
                    }
                    idle_cells += usize::from(out.completed == 0);
                    for v in [
                        metrics.emu.to_bits(),
                        metrics.p99_ms.to_bits(),
                        metrics.be_throughput.to_bits(),
                        metrics.sla_violations,
                        metrics.be_kills,
                        out.completed,
                    ] {
                        fp.feed(v);
                    }
                    pair.push(metrics);
                }
                let (rhythm, heracles) = (&pair[0], &pair[1]);
                emus.push(rhythm.emu);
                gains.push(improvement(rhythm.emu, heracles.emu) * 100.0);
                tails.push(rhythm.tail_ratio);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let emu = mean(&emus);
    let emu_gain_pct = mean(&gains);
    checks.check("every engine cell completed requests", idle_cells == 0);
    checks.check(
        "paper-testbed EMU is positive",
        emu > 0.0 && emu.is_finite(),
    );
    let tail = mean(&tails);
    let worst = tails.iter().copied().fold(0.0, f64::max);
    checks.check(
        "paper-testbed p99/SLA is positive",
        tail > 0.0 && worst.is_finite(),
    );
    let wall_s = secs_since(t0);

    if tr.enabled() {
        lv.set("core.engine.step_ms.p50", quantile(&steps_ms, 0.5));
        lv.set("core.engine.step_ms.p99", quantile(&steps_ms, 0.99));
        lv.set(
            "core.engine.ns_per_req",
            sim_s * 1e9 / requests.max(1) as f64,
        );
        lv.set("core.engine.requests", requests as f64);
        lv.set("controller.ticks", ticks as f64);
        lv.set("controller.sla_violation_ticks", violations as f64);
        lv.set("controller.be_kills", kills as f64);
        lv.set("controller.emu_gain_pct", emu_gain_pct);
    }
    Rep {
        wall_s,
        sim_requests: requests,
        emu,
        p99_over_sla: tail,
        worst_p99_over_sla: Some(worst),
        fingerprint: fp.0,
        setup_fingerprint: setup_fp.0,
        emu_gain_pct: Some(emu_gain_pct),
        ..Rep::default()
    }
}

/// The probe BEs of `rhythm_bench::cluster::context`, which prepares the
/// e-commerce service every cluster cell shares.
fn cluster_probe() -> Vec<BeSpec> {
    vec![
        BeSpec::of(BeKind::Wordcount),
        BeSpec::of(BeKind::StreamDram { big: true }),
    ]
}

/// Per-layer values every cluster run reports.
fn cluster_layers(lv: &mut LayerValues, out: &ClusterOutcome, cfg: &ClusterConfig, run_s: f64) {
    let epochs = cfg.duration_s * 1_000 / cfg.controller_period_ms.max(1);
    let m = &out.metrics;
    lv.set("cluster.run_s", run_s);
    lv.set(
        "cluster.us_per_machine_epoch",
        run_s * 1e6 / (cfg.machines as f64 * epochs.max(1) as f64),
    );
    lv.set("cluster.steals", out.sharding.steals as f64);
    lv.set(
        "cluster.fast_path_epochs",
        out.sharding.fast_path_epochs as f64,
    );
    lv.set("cluster.requeues", m.requeues as f64);
    lv.set("cluster.be_kills", m.jobs.kills as f64);
    lv.set("cluster.jobs_completed", m.jobs.completed as f64);
    lv.set("cluster.jobs_submitted", m.jobs.submitted as f64);
    lv.set(
        "cluster.wasted_job_share",
        m.jobs.wasted_jobs / (m.jobs.completed as f64 + m.jobs.wasted_jobs).max(1e-12),
    );
    lv.set("controller.sla_violation_ticks", m.sla_violations as f64);
    lv.set("controller.be_kills", m.be_kills as f64);
}

/// Sanity checks every cluster outcome must pass.
fn check_outcome(checks: &mut Checks, what: &str, out: &ClusterOutcome) {
    let m = &out.metrics;
    checks.check(
        &format!("{what}: requests completed"),
        m.completed_requests > 0,
    );
    checks.check(
        &format!("{what}: EMU is positive"),
        m.emu > 0.0 && m.emu.is_finite(),
    );
    checks.check(
        &format!("{what}: p99/SLA is positive"),
        m.tail_ratio > 0.0 && m.tail_ratio.is_finite(),
    );
    checks.check(
        &format!("{what}: one fingerprint per machine"),
        out.fingerprints.len() == m.machines,
    );
}

/// `ClusterRunner` at N=1024 on the e-commerce cell of
/// `rhythm_bench::cluster::cell_config`: no telemetry, faults or capture.
pub fn warehouse(
    env: &Env,
    tr: &mut Tracer,
    checks: &mut Checks,
    lv: &mut LayerValues,
    probes: bool,
) -> Rep {
    let t0 = now();
    let seed = mix(env.seed, 2);
    let (ctx, _) = tr.span("core.prepare", |tr| {
        prepare(tr, lv, apps::ecommerce(), &cluster_probe(), PROFILE_SEED)
    });
    let mut setup_fp = Digest::new();
    setup_fp.feed_thresholds(&ctx);
    let mut cfg = rhythm_bench::cluster::cell_config(WAREHOUSE_MACHINES, seed);
    cfg.duration_s = WAREHOUSE_S;
    cfg.threads = env.threads;
    let choice = ControllerChoice::Rhythm;
    let (runner, _) = tr.span("cluster.runner_new", |_| {
        ClusterRunner::new(&ctx, &choice, &cfg)
    });
    tr.begin_run();
    let (run, run_s) = tr.span("cluster.run", |_| runner.run());
    let out = run.outcome;
    check_outcome(checks, "warehouse", &out);
    let fp = outcome_fingerprint(&out);
    let wall_s = secs_since(t0);

    if tr.enabled() {
        cluster_layers(lv, &out, &cfg, run_s);
    }
    if probes {
        let mut one = cfg.clone();
        one.threads = 1;
        tr.begin_run();
        let (single, one_s) = tr.span("cluster.run_1thread", |_| {
            ClusterRunner::new(&ctx, &choice, &one).run()
        });
        checks.check(
            "warehouse: fingerprints equal at 1 thread and at nproc threads",
            outcome_fingerprint(&single.outcome) == fp,
        );
        lv.set("cluster.run_1thread_s", one_s);
        lv.set(
            "cluster.parallel_efficiency",
            parallel_efficiency(one_s, run_s, env.threads),
        );
    }
    Rep {
        wall_s,
        sim_requests: out.metrics.completed_requests,
        emu: out.metrics.emu,
        p99_over_sla: out.metrics.tail_ratio,
        fingerprint: fp,
        setup_fingerprint: setup_fp.0,
        ..Rep::default()
    }
}

/// Size and digest of one export.
fn export_digest(text: &str) -> (usize, u64) {
    let mut d = Digest::new();
    d.feed_bytes(text.as_bytes());
    (text.len(), d.0)
}

/// The JSONL, chrome-trace and why-report exports of one run.
struct Exports {
    /// Size and digest of each export.
    digests: [(usize, u64); 3],
    /// Build time of each export, in ms.
    ms: [f64; 3],
}

/// Builds the exports of one run, each in its own span (the digest is
/// taken outside it). `None` when the run collected no telemetry.
fn exports(tr: &mut Tracer, out: &ClusterOutcome) -> Option<Exports> {
    let t = out.telemetry.as_ref()?;
    let (jsonl, a) = tr.span("telemetry.export_jsonl", |_| t.export_jsonl());
    let jsonl = export_digest(&jsonl);
    let (chrome, b) = tr.span("telemetry.chrome_trace", |_| t.chrome_trace());
    let chrome = export_digest(&chrome);
    let (why, c) = tr.span("telemetry.why_report", |_| t.why_report());
    let why = export_digest(&why);
    Some(Exports {
        digests: [jsonl, chrome, why],
        ms: [a * 1e3, b * 1e3, c * 1e3],
    })
}

/// The `rolling-crashes` scenario at N=256: capture at epoch 60, encode,
/// decode, resume on another thread count, run to the end, then export
/// the telemetry of both the straight-through and the resumed run.
pub fn chaos_day(
    env: &Env,
    tr: &mut Tracer,
    checks: &mut Checks,
    lv: &mut LayerValues,
    probes: bool,
) -> Result<Rep, String> {
    let t0 = now();
    let seed = mix(env.seed, 3);
    let (ctx, _) = tr.span("core.prepare", |tr| {
        prepare(tr, lv, apps::ecommerce(), &cluster_probe(), PROFILE_SEED)
    });
    let mut setup_fp = Digest::new();
    setup_fp.feed_thresholds(&ctx);
    let scenario = Scenario::library(CHAOS_MACHINES, seed)
        .into_iter()
        .find(|s| s.name == CHAOS_SCENARIO)
        .ok_or_else(|| format!("scenario library has no {CHAOS_SCENARIO}"))?;
    let mut cfg = scenario.cfg;
    cfg.threads = env.threads;
    let choice = ControllerChoice::Rhythm;
    let (runner, _) = tr.span("cluster.runner_new", |_| {
        ClusterRunner::new(&ctx, &choice, &cfg).snapshot_at(CAPTURE_EPOCH)
    });
    tr.begin_run();
    let (mut run, run_s) = tr.span("cluster.run", |_| runner.run());
    let straight = run.outcome;
    check_outcome(checks, "chaos-day", &straight);
    let (epoch, snap) = run
        .snapshots
        .pop()
        .ok_or_else(|| format!("no snapshot captured at epoch {CAPTURE_EPOCH}"))?;
    checks.check(
        "snapshot taken at the requested epoch",
        epoch == CAPTURE_EPOCH,
    );

    let (bytes, enc_s) = tr.span("snapshot.encode", |_| snap.to_bytes());
    drop(snap);
    let (decoded, dec_s) = tr.span("snapshot.decode", |_| ClusterSnapshot::from_bytes(&bytes));
    let decoded = decoded.map_err(|e| format!("snapshot decode: {e}"))?;
    checks.check("to_bytes(from_bytes(b)) == b", decoded.to_bytes() == bytes);
    let section = |name: &str| {
        SnapshotFile::parse(&bytes)
            .and_then(|f| f.section(name).map(|r| r.remaining()))
            .unwrap_or(0)
    };
    let (engine_bytes, scheduler_bytes) = (section("engines"), section("scheduler"));
    checks.check(
        "snapshot has engine and scheduler sections",
        engine_bytes > 0 && scheduler_bytes > 0,
    );

    let mut resume_cfg = cfg.clone();
    resume_cfg.threads = if env.threads > 1 { env.threads - 1 } else { 2 };
    let (resumer, resume_s) = tr.span("cluster.resume", |_| {
        ClusterRunner::resume(&decoded, &ctx, &choice, &resume_cfg)
    });
    let resumer = resumer.map_err(|e| format!("resume refused: {e}"))?;
    drop(decoded);
    tr.begin_run();
    let (resumed, _) = tr.span("cluster.run_resumed", |_| resumer.run());
    let resumed = resumed.outcome;
    let fp = outcome_fingerprint(&straight);
    checks.check(
        "resumed outcome fingerprint equals the straight-through run's",
        outcome_fingerprint(&resumed) == fp,
    );

    let ours = exports(tr, &straight);
    let theirs = exports(tr, &resumed);
    checks.check(
        "both runs carry telemetry",
        ours.is_some() && theirs.is_some(),
    );
    let (Some(ours), Some(theirs)) = (ours, theirs) else {
        return Err("telemetry missing from a full-telemetry run".to_string());
    };
    let (digests, resumed_digests) = (ours.digests, theirs.digests);
    checks.check(
        "resumed JSONL export equals the straight-through run's",
        digests[0] == resumed_digests[0],
    );
    checks.check(
        "resumed chrome trace equals the straight-through run's",
        digests[1] == resumed_digests[1],
    );
    checks.check(
        "resumed why-report equals the straight-through run's",
        digests[2] == resumed_digests[2],
    );
    let mut fingerprint = Digest::new();
    fingerprint.feed(fp);
    for (len, digest) in digests {
        fingerprint.feed(len as u64);
        fingerprint.feed(digest);
    }
    fingerprint.feed_bytes(&bytes);
    let wall_s = secs_since(t0);

    if tr.enabled() {
        cluster_layers(lv, &straight, &cfg, run_s);
        lv.set("cluster.resume_ms", resume_s * 1e3);
        lv.set("snapshot.encode_ms", enc_s * 1e3);
        lv.set("snapshot.encode_mb_per_s", mb_per_s(bytes.len(), enc_s));
        lv.set("snapshot.decode_ms", dec_s * 1e3);
        lv.set("snapshot.decode_mb_per_s", mb_per_s(bytes.len(), dec_s));
        lv.set("snapshot.engine_bytes", engine_bytes as f64);
        lv.set("snapshot.scheduler_bytes", scheduler_bytes as f64);
        lv.set("snapshot.mb", bytes.len() as f64 / 1e6);
        lv.set("snapshot.restart_s", dec_s + resume_s);
        lv.set("telemetry.export_jsonl_ms", ours.ms[0]);
        lv.set("telemetry.chrome_trace_ms", ours.ms[1]);
        lv.set("telemetry.why_report_ms", ours.ms[2]);
        lv.set("telemetry.jsonl_bytes", digests[0].0 as f64);
        lv.set("chaos.fault_events", cfg.faults.len() as f64);
    }
    let snapshot_mb = bytes.len() as f64 / 1e6;
    let m = &straight.metrics;
    let (requests, emu, p99_over_sla) = (m.completed_requests, m.emu, m.tail_ratio);
    drop((straight, resumed, bytes));

    if probes {
        tr.begin_run();
        let (plain, plain_s) = tr.span("cluster.run_plain", |_| {
            ClusterRunner::new(&ctx, &choice, &cfg).run()
        });
        checks.check(
            "capturing a snapshot leaves the outcome unchanged",
            outcome_fingerprint(&plain.outcome) == fp,
        );
        drop(plain);
        let mut quiet = cfg.clone();
        quiet.telemetry = TelemetryConfig::disabled();
        tr.begin_run();
        let (off, off_s) = tr.span("cluster.run_telemetry_off", |_| {
            ClusterRunner::new(&ctx, &choice, &quiet).run()
        });
        checks.check(
            "telemetry-on and telemetry-off runs give equal fingerprints",
            outcome_fingerprint(&off.outcome) == fp,
        );
        lv.set("cluster.snapshot_capture_s", run_s - plain_s);
        lv.set("telemetry.record_s", plain_s - off_s);
    }
    Ok(Rep {
        wall_s,
        sim_requests: requests,
        emu,
        p99_over_sla,
        fingerprint: fingerprint.0,
        setup_fingerprint: setup_fp.0,
        restart_s: Some(dec_s + resume_s),
        snapshot_mb: Some(snapshot_mb),
        ..Rep::default()
    })
}
