//! The repository benchmark: three workloads driven from outside the
//! simulator through its public functions, timed on the host.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-testbed|warehouse|chaos-day|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` (at least three
//! times) and reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced repetitions, runs the per-layer probes and the
//! substrate rows, writes the spans to `perfbench/out/` and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object. See `perfbench/README.md`.

mod metrics;
mod substrates;
mod trace;
mod workloads;

use metrics::{end_to_end, per_layer, result_line, Checks, LayerValues, Rep, Workload};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{
    median, now, secs_since, self_time_by_layer, span_json, spans_within, uncovered_share, Tracer,
};
use workloads::Env;

const USAGE: &str = "usage: rhythm-perfbench --workload <paper-testbed|warehouse|chaos-day|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Repetitions an untraced run makes at least: the median then ignores
/// one slow repetition, and every output is seen to repeat.
const MIN_REPS: usize = 3;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w = Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Cluster worker threads: the host's CPUs, at most 8.
fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8)
}

/// Peak resident set size of this process, in MB (10^6 bytes).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

fn run_rep(
    w: Workload,
    env: &Env,
    tr: &mut Tracer,
    checks: &mut Checks,
    lv: &mut LayerValues,
    probes: bool,
) -> Result<Rep, String> {
    match w {
        Workload::PaperTestbed => Ok(workloads::paper_testbed(env, tr, checks, lv)),
        Workload::Warehouse => Ok(workloads::warehouse(env, tr, checks, lv, probes)),
        Workload::ChaosDay => workloads::chaos_day(env, tr, checks, lv, probes),
    }
}

/// Everything one invocation measured for one workload.
struct Measured {
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    layers: Vec<LayerValues>,
    /// `[start, end of wall time]` of each traced repetition, in the
    /// traced tracer's nanoseconds.
    windows: Vec<(u64, u64)>,
    tracer: Tracer,
}

/// Runs repetitions for `seconds` (untraced, or alternating untraced
/// and traced). A failing repetition ends the loop and fails a check.
fn measure(w: Workload, args: &Args, env: &Env, checks: &mut Checks) -> Measured {
    let mut m = Measured {
        plain: Vec::new(),
        traced: Vec::new(),
        layers: Vec::new(),
        windows: Vec::new(),
        tracer: Tracer::new(true),
    };
    let mut untraced = Tracer::new(false);
    let start = now();
    loop {
        let traced_turn = args.trace && m.traced.len() < m.plain.len();
        let mut lv = LayerValues::default();
        let lo = m.tracer.offset_ns(now());
        let probes = traced_turn && m.traced.is_empty();
        let tr = if traced_turn {
            &mut m.tracer
        } else {
            &mut untraced
        };
        tr.take_steps();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_rep(w, env, tr, checks, &mut lv, probes)
        }))
        .map(|r| {
            r.map(|rep| Rep {
                steps: tr.take_steps(),
                ..rep
            })
        });
        match outcome {
            Ok(Ok(rep)) if traced_turn => {
                let wall_ns = (rep.wall_s * 1e9) as u64;
                m.windows.push((lo, lo.saturating_add(wall_ns)));
                m.traced.push(rep);
                m.layers.push(lv);
            }
            Ok(Ok(rep)) => m.plain.push(rep),
            Ok(Err(why)) => {
                checks.check(&format!("{}: {why}", w.name()), false);
                break;
            }
            Err(_) => {
                checks.check(&format!("{}: repetition panicked", w.name()), false);
                break;
            }
        }
        let enough = if args.trace {
            !m.traced.is_empty()
        } else {
            m.plain.len() >= MIN_REPS
        };
        if enough && secs_since(start) >= args.seconds {
            break;
        }
    }
    m
}

/// Every repetition must reproduce the first one's simulated outputs;
/// a traced repetition must reproduce an untraced one's.
fn check_repeats(m: &Measured, checks: &mut Checks) {
    let Some(first) = m.plain.first() else {
        checks.check("at least one repetition completed", false);
        return;
    };
    for r in &m.plain[1..] {
        checks.check(
            "simulated outputs repeat across repetitions",
            r.fingerprint == first.fingerprint,
        );
        checks.check(
            "prepared thresholds repeat across repetitions",
            r.setup_fingerprint == first.setup_fingerprint,
        );
    }
    for r in &m.traced {
        checks.check(
            "traced run's simulated outputs equal the untraced run's",
            r.fingerprint == first.fingerprint,
        );
        checks.check(
            "separate profiling calls reproduce prepare's thresholds",
            r.setup_fingerprint == first.setup_fingerprint,
        );
    }
}

/// Adds the span-derived values (self time per layer, uncovered share)
/// to each traced repetition's layer values.
fn span_layers(m: &mut Measured) {
    for (lv, &(lo, hi)) in m.layers.iter_mut().zip(&m.windows) {
        let spans = spans_within(m.tracer.spans(), lo, hi);
        for (layer, secs) in self_time_by_layer(&spans) {
            let name = match layer {
                "core" => "bench.self_s.core",
                "cluster" => "bench.self_s.cluster",
                "snapshot" => "bench.self_s.snapshot",
                "telemetry" => "bench.self_s.telemetry",
                _ => continue,
            };
            lv.set(name, secs);
        }
        lv.set(
            "bench.uncovered_pct",
            uncovered_share(&spans, lo, hi) * 100.0,
        );
    }
}

/// Writes the spans of a traced run as JSON lines under `perfbench/out/`.
fn write_spans(w: Workload, args: &Args, env: &Env, m: &Measured) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        f,
        "{{\"kind\":\"run\",\"workload\":\"{}\",\"seed\":{},\"threads\":{}}}",
        w.name(),
        args.seed,
        env.threads
    )?;
    for &(lo, hi) in &m.windows {
        writeln!(
            f,
            "{{\"kind\":\"rep\",\"start_ns\":{lo},\"wall_end_ns\":{hi}}}"
        )?;
    }
    for s in m.tracer.spans() {
        writeln!(f, "{}", span_json(s))?;
    }
    f.flush()?;
    Ok(path)
}

fn fmt_opt(v: Option<f64>, unit: &str, why_absent: &str) -> String {
    match v {
        Some(v) => format!("{v:.6} {unit}"),
        None => format!("n/a ({why_absent})"),
    }
}

/// Runs one workload and returns its result line.
fn run_workload(w: Workload, args: &Args) -> String {
    let env = Env {
        seed: args.seed,
        threads: host_threads(),
    };
    let mut checks = Checks::default();
    let mut m = measure(w, args, &env, &mut checks);
    check_repeats(&m, &mut checks);
    println!(
        "== {}  seed {}  threads {}  repetitions {} untraced, {} traced",
        w.name(),
        args.seed,
        env.threads,
        m.plain.len(),
        m.traced.len()
    );
    let line = if args.trace {
        span_layers(&mut m);
        let mut lv = LayerValues::median_of(&m.layers);
        substrates::measure(&mut m.tracer, &mut lv, &mut checks);
        let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        lv.set(
            "bench.trace_overhead_pct",
            (wall(&m.traced) / wall(&m.plain).max(1e-12) - 1.0) * 100.0,
        );
        match write_spans(w, args, &env, &m) {
            Ok(path) => println!("spans: {}", path.display()),
            Err(e) => checks.check(&format!("span file written: {e}"), false),
        }
        let values = per_layer(w, &lv, &mut checks);
        for d in metrics::PER_LAYER {
            println!("{:<40} {:>16.6} {}", d.name, values[d.name], d.unit);
        }
        result_line(metrics::PER_LAYER, &values, &mut checks)
    } else {
        let rss = peak_rss_mb();
        checks.check("peak RSS readable from /proc/self/status", rss.is_some());
        let values = end_to_end(&m.plain, rss.unwrap_or(0.0));
        checks.check("every repetition ran the same steps", values.is_some());
        let values = values.unwrap_or_default();
        for d in metrics::END_TO_END {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            println!("{:<16} {:>16.6} {}", d.name, v, d.unit);
        }
        // The metrics that exist on one workload only are printed here
        // and reported per layer by the traced run.
        let med = |f: &dyn Fn(&Rep) -> Option<f64>| {
            let v: Vec<f64> = m.plain.iter().filter_map(f).collect();
            (!v.is_empty()).then(|| median(&v))
        };
        let bypass = "the workload takes no snapshot";
        println!(
            "{:<16} {}",
            "restart_s",
            fmt_opt(med(&|r| r.restart_s), "s", bypass)
        );
        println!(
            "{:<16} {}",
            "snapshot_mb",
            fmt_opt(med(&|r| r.snapshot_mb), "MB", bypass)
        );
        println!(
            "{:<16} {}",
            "emu_gain_pct",
            fmt_opt(
                med(&|r| r.emu_gain_pct),
                "%",
                "the workload runs Rhythm only"
            )
        );
        println!(
            "{:<16} {}",
            "worst_p99/sla",
            fmt_opt(
                med(&|r| r.worst_p99_over_sla),
                "ratio",
                "one cluster-wide p99"
            )
        );
        result_line(metrics::END_TO_END, &values, &mut checks)
    };
    let rate = checks.failed_count() as f64 / checks.attempted.max(1) as f64;
    println!(
        "{:<16} {:>16.6} ratio ({} of {} checks failed)",
        "error_rate",
        rate,
        checks.failed_count(),
        checks.attempted
    );
    for f in &checks.failed {
        eprintln!("FAILED CHECK [{}]: {f}", w.name());
    }
    line
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for &w in &args.workloads {
        let line = run_workload(w, &args);
        println!("{line}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload chaos-day --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workloads, vec![Workload::ChaosDay]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let all = parse("--workload all").unwrap();
        assert_eq!(all.workloads, Workload::ALL.to_vec());
        assert_eq!((all.seed, all.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload warehouse --trace 2",
            "--workload warehouse --seconds 0",
            "--workload warehouse --seconds",
            "--workload warehouse --frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
