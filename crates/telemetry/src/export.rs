//! Deterministic exporters over collected telemetry: JSONL, a
//! human-readable why-report, and Chrome-trace JSON for
//! `chrome://tracing` / Perfetto.
//!
//! Determinism contract: exports are plain functions of the collected
//! data; replicas are always iterated in index order and every object
//! is written with a fixed key order, so two runs that collected
//! identical telemetry (e.g. the same cluster run at different
//! worker-thread counts) render byte-identical text. Each export is
//! written in one pass into a single output `String`; no intermediate
//! value tree is built.

use crate::audit::AuditRecord;
use crate::event::{Event, EventKind};
use crate::json;
use crate::tail::TailPoint;
use std::fmt::Write as _;

/// Everything one engine collected during a run.
#[derive(Clone, Debug, Default)]
pub struct TelemetryOutput {
    /// Servpod names by machine index (resolves `machine` fields in
    /// events and audit records).
    pub pods: Vec<String>,
    /// Flight-recorder contents, oldest first.
    pub events: Vec<Event>,
    /// Total events ever recorded (including ones evicted from the ring).
    pub recorded: u64,
    /// Events evicted because the ring was full.
    pub dropped: u64,
    /// The decision audit trail, in tick order.
    pub audit: Vec<AuditRecord>,
    /// The per-engine tail series, one point per controller period.
    pub tail: Vec<TailPoint>,
}

impl TelemetryOutput {
    /// The human-readable "why did Rhythm do X at t=Y" report: one line
    /// per audit record, in tick order.
    pub fn why_report(&self) -> String {
        let mut out = String::new();
        for rec in &self.audit {
            rec.write_why(&mut out);
            out.push('\n');
        }
        out
    }
}

/// Renders telemetry as JSON Lines: one compact object per line.
///
/// Line order is fixed — a `meta` header, then per-replica events, audit
/// records and tail points (replicas in index order), then the merged
/// cluster tail series — so the export is byte-identical whenever the
/// collected data is identical.
pub fn export_jsonl(replicas: &[TelemetryOutput], cluster_tail: &[TailPoint]) -> String {
    export_jsonl_with_events(replicas, cluster_tail, &[])
}

/// [`export_jsonl`] plus cluster-scheduler events (gang lifecycle,
/// deadline misses), appended after the merged cluster tail so exports
/// without events are byte-identical to the plain form.
pub fn export_jsonl_with_events(
    replicas: &[TelemetryOutput],
    cluster_tail: &[TailPoint],
    cluster_events: &[crate::cluster::ClusterEvent],
) -> String {
    let mut out = String::new();
    out.push_str("{\"type\":\"meta\",\"schema\":\"rhythm-trace/v1\"");
    let recorded: u64 = replicas.iter().map(|r| r.recorded).sum();
    let dropped: u64 = replicas.iter().map(|r| r.dropped).sum();
    json::uint(&mut out, "replicas", replicas.len() as u64);
    json::uint(&mut out, "events_recorded", recorded);
    json::uint(&mut out, "events_dropped", dropped);
    out.push_str("}\n");

    for (idx, rep) in replicas.iter().enumerate() {
        for ev in &rep.events {
            ev.write_json(&mut out, idx);
            out.push('\n');
        }
        for rec in &rep.audit {
            rec.write_json(&mut out, idx);
            out.push('\n');
        }
        for pt in &rep.tail {
            pt.write_json(&mut out, Some(idx));
            out.push('\n');
        }
    }
    for pt in cluster_tail {
        pt.write_json(&mut out, None);
        out.push('\n');
    }
    for ev in cluster_events {
        ev.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Appends the head of one Chrome-trace entry, with its leading comma,
/// up to and including the opening of its `args` object: an instant
/// event on thread `tid` when `instant_tid` is set, a counter otherwise.
fn entry_head(out: &mut String, name: &str, ts_us: f64, replica: usize, instant_tid: Option<u16>) {
    out.push_str(",{");
    json::string(out, "name", name);
    out.push_str(match instant_tid {
        Some(_) => ",\"ph\":\"i\",\"s\":\"t\"",
        None => ",\"ph\":\"C\"",
    });
    json::float(out, "ts", ts_us);
    json::uint(out, "pid", replica as u64);
    if let Some(tid) = instant_tid {
        json::uint(out, "tid", tid.into());
    }
    out.push_str(",\"args\":{");
}

/// Appends one event as a Chrome-trace instant entry (with its leading
/// comma), or nothing for kinds too frequent to chart individually
/// (per-request events).
fn chrome_event(out: &mut String, ev: &Event, replica: usize) {
    let ts_us = ev.t_ns as f64 / 1000.0;
    match ev.kind {
        // Per-request events would swamp the viewer; the tail counters
        // already summarise them.
        EventKind::RequestAdmitted | EventKind::RequestCompleted { .. } => return,
        EventKind::BeAdmitted { machine, instance } => {
            entry_head(out, "be_admitted", ts_us, replica, Some(machine));
            json::uint(out, "instance", instance.into());
        }
        EventKind::BeKilled {
            machine,
            instance,
            progress_pct,
        } => {
            entry_head(out, "be_killed", ts_us, replica, Some(machine));
            json::uint(out, "instance", instance.into());
            json::uint(out, "progress_pct", progress_pct.into());
        }
        EventKind::Action {
            machine,
            action,
            load_pm,
            slack_pm,
        } => {
            entry_head(out, action.name(), ts_us, replica, Some(machine));
            json::float(out, "load", f64::from(load_pm) / 1000.0);
            json::float(out, "slack", f64::from(slack_pm) / 1000.0);
        }
        EventKind::Adjust {
            machine,
            kind,
            value,
        } => {
            entry_head(out, kind.name(), ts_us, replica, Some(machine));
            json::int(out, "value", value.into());
        }
        EventKind::Epoch { epoch } => {
            entry_head(out, "epoch", ts_us, replica, Some(0));
            json::uint(out, "epoch", epoch.into());
        }
    }
    out.push_str("}}");
}

/// Renders telemetry as Chrome-trace JSON (`chrome://tracing` /
/// Perfetto "JSON array format"): controller actions, subcontroller
/// adjustments and BE lifecycle as instant events, per-replica tail
/// series as counter tracks.
pub fn chrome_trace(replicas: &[TelemetryOutput]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (idx, rep) in replicas.iter().enumerate() {
        // Each replica opens with its process-name entry; every entry
        // after the first carries its own leading comma.
        if idx > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{idx},\"args\":{{\"name\":\"replica {idx}\"}}}}"
        );
        for ev in &rep.events {
            chrome_event(&mut out, ev, idx);
        }
        for pt in &rep.tail {
            let ts_us = pt.t_s * 1e6;
            entry_head(&mut out, "tail_ms", ts_us, idx, None);
            json::float(&mut out, "p95", pt.p95_ms);
            json::float(&mut out, "p99", pt.p99_ms);
            out.push_str("}}");
            entry_head(&mut out, "slack", ts_us, idx, None);
            json::float(&mut out, "slack", pt.slack);
            out.push_str("}}");
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{BeSnapshot, Trigger};
    use crate::event::{ActionCode, AdjustKind};

    fn sample_output() -> TelemetryOutput {
        TelemetryOutput {
            pods: vec!["front".into(), "search".into()],
            events: vec![
                Event {
                    t_ns: 2_000_000_000,
                    kind: EventKind::Action {
                        machine: 0,
                        action: ActionCode::SuspendBe,
                        load_pm: 710,
                        slack_pm: 120,
                    },
                },
                Event {
                    t_ns: 2_000_000_000,
                    kind: EventKind::RequestAdmitted,
                },
                Event {
                    t_ns: 4_000_000_000,
                    kind: EventKind::Epoch { epoch: 1 },
                },
            ],
            recorded: 3,
            dropped: 0,
            audit: vec![AuditRecord {
                t_s: 2.0,
                machine: 0,
                pod: "front".into(),
                action: ActionCode::SuspendBe,
                trigger: Trigger::LoadAboveLimit,
                load: 0.71,
                loadlimit: 0.6,
                slack: 0.12,
                slacklimit: 0.1,
                tail_ms: 88.0,
                sla_ms: 100.0,
                hot_pod: None,
                hot_pod_name: String::new(),
                hot_pod_ms: 0.0,
                before: BeSnapshot::default(),
                after: BeSnapshot::default(),
            }],
            tail: vec![TailPoint {
                t_s: 2.0,
                count: 40,
                p50_ms: 10.0,
                p95_ms: 60.0,
                p99_ms: 88.0,
                slack: 0.12,
            }],
        }
    }

    #[test]
    fn jsonl_has_meta_then_lines() {
        let out = sample_output();
        let cluster = vec![out.tail[0]];
        let text = export_jsonl(&[out], &cluster);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 3 + 1 + 1 + 1);
        assert!(lines[0].starts_with("{\"type\":\"meta\""), "{}", lines[0]);
        assert!(lines[1].contains("\"kind\":\"action\""), "{}", lines[1]);
        let last = lines.last().unwrap();
        assert!(last.contains("\"scope\":\"cluster\""), "{last}");
        // Every line is a complete object.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        }
    }

    #[test]
    fn jsonl_is_deterministic() {
        let a = export_jsonl(&[sample_output()], &[]);
        let b = export_jsonl(&[sample_output()], &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn why_report_one_line_per_record() {
        let out = sample_output();
        let report = out.why_report();
        assert_eq!(report.lines().count(), 1);
        assert!(report.contains("SuspendBE"), "{report}");
        assert!(report.contains("loadlimit"), "{report}");
    }

    #[test]
    fn chrome_trace_skips_request_noise_and_keeps_actions() {
        let text = chrome_trace(&[sample_output()]);
        assert!(text.starts_with("{\"traceEvents\":["), "{text}");
        assert!(text.contains("\"name\":\"SuspendBE\""), "{text}");
        assert!(text.contains("\"ph\":\"C\""), "{text}");
        assert!(text.contains("\"name\":\"epoch\""), "{text}");
        assert!(!text.contains("request_admitted"), "{text}");
        assert!(text.ends_with("\"displayTimeUnit\":\"ms\"}"), "{text}");
    }

    /// One event of every kind, with integer extremes, a timestamp that
    /// is not a whole microsecond, and a tail point with non-finite
    /// values.
    fn every_kind_output() -> TelemetryOutput {
        let mut out = sample_output();
        let kinds = [
            EventKind::RequestCompleted { latency_us: 900 },
            EventKind::BeAdmitted {
                machine: 1,
                instance: u32::MAX,
            },
            EventKind::BeKilled {
                machine: u16::MAX,
                instance: 2,
                progress_pct: 63,
            },
            EventKind::Action {
                machine: 1,
                action: ActionCode::StopBe,
                load_pm: u16::MAX,
                slack_pm: i16::MIN,
            },
            EventKind::Adjust {
                machine: 0,
                kind: AdjustKind::BeLlcWays,
                value: i32::MIN,
            },
            EventKind::Epoch { epoch: u32::MAX },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            out.events.push(Event {
                t_ns: 4_000_001_234 + i as u64,
                kind,
            });
        }
        out.events.push(Event {
            t_ns: u64::MAX,
            kind: EventKind::RequestAdmitted,
        });
        out.tail.push(TailPoint {
            t_s: 4.0,
            count: 0,
            p50_ms: -0.0,
            p95_ms: f64::NAN,
            p99_ms: f64::INFINITY,
            slack: 1e21,
        });
        out
    }

    #[test]
    fn jsonl_pins_whole_export() {
        let event = crate::cluster::ClusterEvent {
            t_s: 4.0,
            kind: crate::cluster::ClusterEventKind::MachineDown,
            job: 1,
            gang: None,
        };
        let text = export_jsonl_with_events(
            &[every_kind_output(), sample_output()],
            &[sample_output().tail[0]],
            &[event],
        );
        let want = [
            r#"{"type":"meta","schema":"rhythm-trace/v1","replicas":2,"events_recorded":6,"events_dropped":0}"#,
            r#"{"type":"event","replica":0,"t_ns":2000000000,"kind":"action","machine":0,"action":"SuspendBE","load_pm":710,"slack_pm":120}"#,
            r#"{"type":"event","replica":0,"t_ns":2000000000,"kind":"request_admitted"}"#,
            r#"{"type":"event","replica":0,"t_ns":4000000000,"kind":"epoch","epoch":1}"#,
            r#"{"type":"event","replica":0,"t_ns":4000001234,"kind":"request_completed","latency_us":900}"#,
            r#"{"type":"event","replica":0,"t_ns":4000001235,"kind":"be_admitted","machine":1,"instance":4294967295}"#,
            r#"{"type":"event","replica":0,"t_ns":4000001236,"kind":"be_killed","machine":65535,"instance":2,"progress_pct":63}"#,
            r#"{"type":"event","replica":0,"t_ns":4000001237,"kind":"action","machine":1,"action":"StopBE","load_pm":65535,"slack_pm":-32768}"#,
            r#"{"type":"event","replica":0,"t_ns":4000001238,"kind":"adjust","machine":0,"dimension":"be_llc_ways","value":-2147483648}"#,
            r#"{"type":"event","replica":0,"t_ns":4000001239,"kind":"epoch","epoch":4294967295}"#,
            r#"{"type":"event","replica":0,"t_ns":18446744073709551615,"kind":"request_admitted"}"#,
            r#"{"type":"audit","replica":0,"t_s":2,"machine":0,"pod":"front","action":"SuspendBE","trigger":"load_above_limit","load":0.71,"loadlimit":0.6,"slack":0.12,"slacklimit":0.1,"tail_ms":88,"sla_ms":100,"hot_pod":null,"before":{"instances":0,"running":0,"cores":0,"llc_ways":0,"freq_mhz":0,"net_mbps":0},"after":{"instances":0,"running":0,"cores":0,"llc_ways":0,"freq_mhz":0,"net_mbps":0}}"#,
            r#"{"type":"tail","scope":"replica","replica":0,"t_s":2,"count":40,"p50_ms":10,"p95_ms":60,"p99_ms":88,"slack":0.12}"#,
            r#"{"type":"tail","scope":"replica","replica":0,"t_s":4,"count":0,"p50_ms":-0,"p95_ms":null,"p99_ms":null,"slack":1000000000000000000000}"#,
            r#"{"type":"event","replica":1,"t_ns":2000000000,"kind":"action","machine":0,"action":"SuspendBE","load_pm":710,"slack_pm":120}"#,
            r#"{"type":"event","replica":1,"t_ns":2000000000,"kind":"request_admitted"}"#,
            r#"{"type":"event","replica":1,"t_ns":4000000000,"kind":"epoch","epoch":1}"#,
            r#"{"type":"audit","replica":1,"t_s":2,"machine":0,"pod":"front","action":"SuspendBE","trigger":"load_above_limit","load":0.71,"loadlimit":0.6,"slack":0.12,"slacklimit":0.1,"tail_ms":88,"sla_ms":100,"hot_pod":null,"before":{"instances":0,"running":0,"cores":0,"llc_ways":0,"freq_mhz":0,"net_mbps":0},"after":{"instances":0,"running":0,"cores":0,"llc_ways":0,"freq_mhz":0,"net_mbps":0}}"#,
            r#"{"type":"tail","scope":"replica","replica":1,"t_s":2,"count":40,"p50_ms":10,"p95_ms":60,"p99_ms":88,"slack":0.12}"#,
            r#"{"type":"tail","scope":"cluster","t_s":2,"count":40,"p50_ms":10,"p95_ms":60,"p99_ms":88,"slack":0.12}"#,
            r#"{"type":"cluster_event","kind":"machine_down","t_s":4,"job":1}"#,
        ];
        assert_eq!(text.lines().collect::<Vec<_>>(), want);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn chrome_trace_pins_whole_document() {
        let text = chrome_trace(&[every_kind_output(), sample_output()]);
        let want = [
            r#"{"traceEvents":[{"name":"process_name","ph":"M","pid":0,"args":{"name":"replica 0"}"#,
            r#":"SuspendBE","ph":"i","s":"t","ts":2000000,"pid":0,"tid":0,"args":{"load":0.71,"slack":0.12}"#,
            r#":"epoch","ph":"i","s":"t","ts":4000000,"pid":0,"tid":0,"args":{"epoch":1}"#,
            r#":"be_admitted","ph":"i","s":"t","ts":4000001.235,"pid":0,"tid":1,"args":{"instance":4294967295}"#,
            r#":"be_killed","ph":"i","s":"t","ts":4000001.236,"pid":0,"tid":65535,"args":{"instance":2,"progress_pct":63}"#,
            r#":"StopBE","ph":"i","s":"t","ts":4000001.237,"pid":0,"tid":1,"args":{"load":65.535,"slack":-32.768}"#,
            r#":"be_llc_ways","ph":"i","s":"t","ts":4000001.238,"pid":0,"tid":0,"args":{"value":-2147483648}"#,
            r#":"epoch","ph":"i","s":"t","ts":4000001.239,"pid":0,"tid":0,"args":{"epoch":4294967295}"#,
            r#":"tail_ms","ph":"C","ts":2000000,"pid":0,"args":{"p95":60,"p99":88}"#,
            r#":"slack","ph":"C","ts":2000000,"pid":0,"args":{"slack":0.12}"#,
            r#":"tail_ms","ph":"C","ts":4000000,"pid":0,"args":{"p95":null,"p99":null}"#,
            r#":"slack","ph":"C","ts":4000000,"pid":0,"args":{"slack":1000000000000000000000}"#,
            r#":"process_name","ph":"M","pid":1,"args":{"name":"replica 1"}"#,
            r#":"SuspendBE","ph":"i","s":"t","ts":2000000,"pid":1,"tid":0,"args":{"load":0.71,"slack":0.12}"#,
            r#":"epoch","ph":"i","s":"t","ts":4000000,"pid":1,"tid":0,"args":{"epoch":1}"#,
            r#":"tail_ms","ph":"C","ts":2000000,"pid":1,"args":{"p95":60,"p99":88}"#,
            r#":"slack","ph":"C","ts":2000000,"pid":1,"args":{"slack":0.12}}],"displayTimeUnit":"ms"}"#,
        ];
        assert_eq!(text.split("},{\"name\"").collect::<Vec<_>>(), want);
    }

    #[test]
    fn why_report_pins_lines() {
        let mut out = sample_output();
        let mut hot = out.audit[0].clone();
        hot.hot_pod = Some(1);
        hot.hot_pod_name = "search".into();
        hot.hot_pod_ms = 8.4;
        out.audit.push(hot);
        let want = concat!(
            "t=2.0s machine 0 (front): SuspendBE because load 0.710 > loadlimit 0.600; tail 88.00ms vs SLA 100ms; BE 0→0 instances (0→0 running, 0→0 cores)\n",
            "t=2.0s machine 0 (front): SuspendBE because load 0.710 > loadlimit 0.600; tail 88.00ms vs SLA 100ms; hottest stage 1 (search) mean sojourn 8.40ms; BE 0→0 instances (0→0 running, 0→0 cores)\n",
        );
        assert_eq!(out.why_report(), want);
    }
}
