//! Spans around the benchmark's calls into the simulator, and the
//! statistics derived from them.
//!
//! The simulator carries no tracing of its own: every span wraps one
//! call the benchmark makes into a public function of a layer
//! (`core.prepare`, `cluster.run`, `snapshot.encode`, ...). Spans stay in
//! memory and are written once, as JSON lines, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The benchmark's only wall clock. The simulator crates stay free of
/// host time (lint D02); host time is measured here, from outside.
pub fn now() -> Instant {
    Instant::now() // lint:allow(D02) -- the benchmark harness is where host time is measured
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of the span in its tracer.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Shared by every span of one simulated cell or cluster run.
    pub run: u32,
    /// `<layer>.<call>`, e.g. `cluster.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        let name = self.name;
        name.split('.').next().unwrap_or(name)
    }
}

/// Records spans when enabled; when disabled it only times the call.
/// Either way it keeps the duration of every top-level call as a step.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    depth: usize,
    steps: Vec<(&'static str, f64)>,
    run: u32,
}

impl Tracer {
    /// A tracer that records spans (`enabled`) or only times calls.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
            depth: 0,
            steps: Vec::new(),
            run: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new run id; the spans that follow share it.
    pub fn begin_run(&mut self) {
        self.run += 1;
    }

    /// Nanoseconds from the tracer's creation to `t`.
    pub fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Calls `f` inside a span named `name` and returns its result with
    /// the call's duration in seconds. The call is timed whether or not
    /// the tracer records.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = now();
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                run: self.run,
                name,
                start_ns: self.offset_ns(start),
                end_ns: 0,
            });
            self.open.push(id);
            id
        });
        self.depth += 1;
        let value = f(self);
        self.depth -= 1;
        let end = now();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end_ns = self.offset_ns(end);
        }
        let secs = end.duration_since(start).as_secs_f64();
        if self.depth == 0 {
            self.steps.push((name, secs));
        }
        (value, secs)
    }

    /// The top-level calls timed since the last `take_steps`, in order.
    pub fn take_steps(&mut self) -> Vec<(&'static str, f64)> {
        std::mem::take(&mut self.steps)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One span as a JSON object (one line of the span file).
pub fn span_json(s: &Span) -> String {
    let mut out = String::new();
    let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
    let _ = write!(
        out,
        "{{\"kind\":\"span\",\"id\":{},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
        s.id, s.run, s.name, s.start_ns, s.end_ns
    );
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Spans lying inside `[lo, hi]`.
pub fn spans_within(spans: &[Span], lo: u64, hi: u64) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| s.start_ns >= lo && s.end_ns <= hi)
        .cloned()
        .collect()
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of its interval covered by its child spans, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut by_layer = BTreeMap::new();
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = s.end_ns - s.start_ns - covered_ns(kids, s.start_ns, s.end_ns);
        *by_layer.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
    }
    by_layer
}

/// Share of `[lo, hi]` that no top-level span (one without a parent)
/// covers: the benchmark's own glue, such as output checks.
pub fn uncovered_share(spans: &[Span], lo: u64, hi: u64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let top = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let wall = hi - lo;
    (wall - covered_ns(top, lo, hi)) as f64 / wall as f64
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil().max(1.0);
    // The rank is at most len, so the index fits.
    let idx = (rank as usize).min(v.len()) - 1;
    v[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            run: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_only_the_covered_part_of_children() {
        // core.prepare [0, 100) has children covering [10, 40) and
        // [30, 60) (overlapping) and one reaching past its end.
        let spans = vec![
            span(0, None, "core.prepare", 0, 100),
            span(1, Some(0), "core.profiling.calibrate_sla", 10, 40),
            span(2, Some(0), "core.profiling.profile_service", 30, 60),
            span(3, Some(0), "core.profiling.derive_thresholds", 90, 120),
            span(4, None, "cluster.run", 200, 250),
        ];
        let st = self_time_by_layer(&spans);
        // core: parent 100 - covered 60 = 40, plus children 30+30+30.
        assert!((st["core"] - 130e-9).abs() < 1e-15, "{st:?}");
        assert!((st["cluster"] - 50e-9).abs() < 1e-15, "{st:?}");
    }

    #[test]
    fn uncovered_share_counts_gaps_between_top_level_spans() {
        let spans = vec![
            span(0, None, "core.prepare", 0, 30),
            span(1, Some(0), "core.engine.run", 0, 30),
            span(2, None, "cluster.run", 50, 90),
        ];
        // Window [0, 100): covered 30 + 40, uncovered 30.
        assert!((uncovered_share(&spans, 0, 100) - 0.3).abs() < 1e-12);
        assert_eq!(uncovered_share(&spans, 5, 5), 0.0);
    }

    #[test]
    fn tracer_records_parents_and_runs() {
        let mut tr = Tracer::new(true);
        tr.begin_run();
        let ((), _) = tr.span("cluster.run", |tr| {
            let (x, _) = tr.span("snapshot.encode", |_| 2 + 2);
            assert_eq!(x, 4);
        });
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].run, 1);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].layer(), "snapshot");
        let off = Tracer::new(false);
        assert!(!off.enabled());
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.span("cluster.run", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn steps_are_the_top_level_calls() {
        for enabled in [false, true] {
            let mut tr = Tracer::new(enabled);
            tr.span("core.prepare", |tr| {
                tr.span("core.profiling.calibrate_sla", |_| ())
            });
            tr.span("cluster.run", |_| ());
            let names: Vec<&str> = tr.take_steps().iter().map(|s| s.0).collect();
            assert_eq!(names, ["core.prepare", "cluster.run"]);
            assert!(tr.take_steps().is_empty());
        }
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn span_line_is_json_shaped() {
        let line = span_json(&span(3, Some(1), "telemetry.export_jsonl", 5, 9));
        assert_eq!(
            line,
            "{\"kind\":\"span\",\"id\":3,\"parent\":1,\"run\":1,\"name\":\"telemetry.export_jsonl\",\"start_ns\":5,\"end_ns\":9}"
        );
    }
}
