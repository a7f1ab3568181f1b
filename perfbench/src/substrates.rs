//! The substrate rows: the cases of `crates/bench/benches/substrates.rs`
//! (calendar, histogram, RNG sampling, statistics, machine accounting),
//! timed through the same public functions and reported as the
//! `sim.*` / `machine.*` per-layer metrics of every traced run.

use crate::metrics::{Checks, LayerValues};
use crate::trace::{median, Tracer};
use rhythm_machine::{Allocation, Machine, MachineSpec};
use rhythm_sim::{pearson, Calendar, Dist, LatencyHistogram, OnlineStats, SimRng, SimTime};
use std::hint::black_box;

/// Timed batches per row; the row reports the median batch.
const BATCHES: usize = 15;

/// Times `batch` `BATCHES` times inside one span and returns the median
/// batch time divided by `ops_per_batch`, in nanoseconds per operation.
fn row(tr: &mut Tracer, name: &'static str, ops_per_batch: f64, mut batch: impl FnMut()) -> f64 {
    let (times, _) = tr.span(name, |tr| {
        (0..BATCHES)
            .map(|_| tr.span(name, |_| batch()).1)
            .collect::<Vec<f64>>()
    });
    median(&times) * 1e9 / ops_per_batch
}

/// Runs every substrate row and stores it in `lv`.
pub fn measure(tr: &mut Tracer, lv: &mut LayerValues, checks: &mut Checks) {
    let mut rng = SimRng::from_seed(1);
    let times: Vec<u64> = (0..10_000).map(|_| rng.below(1_000_000_000)).collect();
    let ns = row(tr, "sim.calendar.schedule_pop", times.len() as f64, || {
        let mut cal = Calendar::with_capacity(times.len());
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_nanos(t), i);
        }
        let mut n = 0;
        while cal.pop().is_some() {
            n += 1;
        }
        black_box(n);
    });
    lv.set("sim.calendar.schedule_pop_ns", ns);

    let mut rng = SimRng::from_seed(2);
    let values: Vec<f64> = (0..10_000).map(|_| rng.uniform_range(0.1, 500.0)).collect();
    let ns = row(tr, "sim.histogram.record", values.len() as f64, || {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        black_box(h.count());
    });
    lv.set("sim.histogram.record_ns", ns);
    let mut h = LatencyHistogram::new();
    for &v in &values {
        h.record(v);
    }
    let ns = row(tr, "sim.histogram.p99", 1_000.0, || {
        for _ in 0..1_000 {
            black_box(black_box(&h).p99());
        }
    });
    lv.set("sim.histogram.p99_ns", ns);

    let d = Dist::LogNormal {
        median: 10.0,
        sigma: 0.5,
    };
    let mut rng = SimRng::from_seed(3);
    let ns = row(tr, "sim.dist.lognormal_sample", 10_000.0, || {
        let mut acc = 0.0;
        for _ in 0..10_000 {
            acc += d.sample(&mut rng);
        }
        black_box(acc);
    });
    lv.set("sim.dist.lognormal_sample_ns", ns);

    let mut rng = SimRng::from_seed(4);
    let xs: Vec<f64> = (0..4_096).map(|_| rng.uniform()).collect();
    let ys: Vec<f64> = (0..4_096).map(|_| rng.uniform()).collect();
    let ns = row(tr, "sim.stats.pearson_4k", 10.0, || {
        for _ in 0..10 {
            black_box(pearson(black_box(&xs), black_box(&ys)));
        }
    });
    lv.set("sim.stats.pearson_4k_us", ns / 1e3);
    let ns = row(tr, "sim.stats.welford_push", xs.len() as f64, || {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        black_box(s.sample_variance());
    });
    lv.set("sim.stats.welford_push_ns", ns);

    checks.check(
        "machine cycle starts eight BE instances",
        machine_cycle() == 8,
    );
    let ns = row(tr, "machine.admit_grow_kill_cycle", 100.0, || {
        for _ in 0..100 {
            black_box(machine_cycle());
        }
    });
    lv.set("machine.admit_grow_kill_cycle_us", ns / 1e3);
}

/// One machine life cycle: admit and grow eight BE instances, suspend,
/// resume and kill them all.
fn machine_cycle() -> u64 {
    let mut m = Machine::new(
        MachineSpec::paper_testbed(),
        Allocation {
            cores: 12,
            llc_ways: 0,
            mem_mb: 16 * 1024,
            net_mbps: 500.0,
            freq_mhz: 2_000,
        },
    );
    for _ in 0..8 {
        let Ok(id) = m.admit_be("wc", Allocation::cores_and_llc(1, 2)) else {
            return 0;
        };
        if m.grow_be(id, Allocation::cores_and_llc(1, 2)).is_err() {
            return 0;
        }
    }
    m.suspend_all_be();
    m.resume_all_be();
    m.kill_all_be();
    m.be_started
}
