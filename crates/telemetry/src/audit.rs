//! The decision audit trail: one record per controller tick, carrying
//! everything Algorithm 2 looked at when it chose an action.

use crate::event::ActionCode;
use crate::json;
use std::fmt::Write as _;

/// The BE population and resource envelope on a machine, captured before
/// and after a controller tick so the audit trail shows what each action
/// actually moved.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BeSnapshot {
    /// BE instances present (running + suspended).
    pub instances: u32,
    /// BE instances currently running.
    pub running: u32,
    /// Cores granted to BE.
    pub cores: u32,
    /// LLC ways granted to BE.
    pub llc_ways: u32,
    /// BE core frequency in MHz.
    pub freq_mhz: u32,
    /// BE network bandwidth ceiling in Mbit/s.
    pub net_mbps: u32,
}

impl BeSnapshot {
    fn write_json(self, out: &mut String) {
        out.push('{');
        json::uint(out, "instances", self.instances.into());
        json::uint(out, "running", self.running.into());
        json::uint(out, "cores", self.cores.into());
        json::uint(out, "llc_ways", self.llc_ways.into());
        json::uint(out, "freq_mhz", self.freq_mhz.into());
        json::uint(out, "net_mbps", self.net_mbps.into());
        out.push('}');
    }
}

/// Which branch of Algorithm 2 fired. Mirrors the decision ladder in
/// `rhythm-controller`'s `ThresholdPolicy::decide`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// `slack < 0`: the measured tail already exceeds the SLA.
    SlaViolated,
    /// `load > loadlimit`: LC load is above the safe co-location point.
    LoadAboveLimit,
    /// `slack < slacklimit / 2`: headroom is less than half the limit.
    SlackBelowHalfLimit,
    /// `slack < slacklimit`: headroom is below the limit.
    SlackBelowLimit,
    /// None of the above: comfortable headroom.
    ComfortableSlack,
}

impl Trigger {
    /// Classifies a measurement against the thresholds, mirroring the
    /// ladder in Algorithm 2 (same order, same comparisons).
    pub fn classify(load: f64, slack: f64, loadlimit: f64, slacklimit: f64) -> Trigger {
        if slack < 0.0 {
            Trigger::SlaViolated
        } else if load > loadlimit {
            Trigger::LoadAboveLimit
        } else if slack < slacklimit / 2.0 {
            Trigger::SlackBelowHalfLimit
        } else if slack < slacklimit {
            Trigger::SlackBelowLimit
        } else {
            Trigger::ComfortableSlack
        }
    }

    /// Snake-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Trigger::SlaViolated => "sla_violated",
            Trigger::LoadAboveLimit => "load_above_limit",
            Trigger::SlackBelowHalfLimit => "slack_below_half_limit",
            Trigger::SlackBelowLimit => "slack_below_limit",
            Trigger::ComfortableSlack => "comfortable_slack",
        }
    }
}

rhythm_snapshot::snapshot_struct!(BeSnapshot {
    instances,
    running,
    cores,
    llc_ways,
    freq_mhz,
    net_mbps,
});

impl rhythm_snapshot::Snapshot for Trigger {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u8(match self {
            Trigger::SlaViolated => 0,
            Trigger::LoadAboveLimit => 1,
            Trigger::SlackBelowHalfLimit => 2,
            Trigger::SlackBelowLimit => 3,
            Trigger::ComfortableSlack => 4,
        });
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(match r.u8()? {
            0 => Trigger::SlaViolated,
            1 => Trigger::LoadAboveLimit,
            2 => Trigger::SlackBelowHalfLimit,
            3 => Trigger::SlackBelowLimit,
            4 => Trigger::ComfortableSlack,
            t => {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                    "unknown trigger tag {t}"
                )))
            }
        })
    }
}

/// One controller decision with its full causal context.
#[derive(Clone, Debug)]
pub struct AuditRecord {
    /// Virtual time of the tick, in seconds.
    pub t_s: f64,
    /// Machine (Servpod host) index within the engine.
    pub machine: u32,
    /// Name of the Servpod hosted on the machine.
    pub pod: String,
    /// The action Algorithm 2 chose.
    pub action: ActionCode,
    /// Which branch of the ladder fired.
    pub trigger: Trigger,
    /// Measured LC load fraction.
    pub load: f64,
    /// The `loadlimit` threshold in force.
    pub loadlimit: f64,
    /// Measured slack, `(SLA - tail) / SLA`.
    pub slack: f64,
    /// The `slacklimit` threshold in force.
    pub slacklimit: f64,
    /// Measured tail latency in ms.
    pub tail_ms: f64,
    /// The SLA target in ms.
    pub sla_ms: f64,
    /// Index of the Servpod stage with the highest mean sojourn over the
    /// last tick, if any request finished in the window.
    pub hot_pod: Option<u32>,
    /// Name of that stage (empty when `hot_pod` is `None`).
    pub hot_pod_name: String,
    /// Mean sojourn of that stage over the last tick, in ms.
    pub hot_pod_ms: f64,
    /// BE population before the action was applied.
    pub before: BeSnapshot,
    /// BE population after subcontrollers reacted.
    pub after: BeSnapshot,
}

impl AuditRecord {
    /// Appends the record as one compact JSON object. `replica` tags
    /// which engine it came from in cluster exports.
    pub fn write_json(&self, out: &mut String, replica: usize) {
        out.push_str("{\"type\":\"audit\"");
        json::uint(out, "replica", replica as u64);
        json::float(out, "t_s", self.t_s);
        json::uint(out, "machine", self.machine.into());
        json::string(out, "pod", &self.pod);
        json::string(out, "action", self.action.name());
        json::string(out, "trigger", self.trigger.name());
        json::float(out, "load", self.load);
        json::float(out, "loadlimit", self.loadlimit);
        json::float(out, "slack", self.slack);
        json::float(out, "slacklimit", self.slacklimit);
        json::float(out, "tail_ms", self.tail_ms);
        json::float(out, "sla_ms", self.sla_ms);
        match self.hot_pod {
            Some(idx) => {
                json::uint(out, "hot_pod", idx.into());
                json::string(out, "hot_pod_name", &self.hot_pod_name);
                json::float(out, "hot_pod_ms", self.hot_pod_ms);
            }
            None => {
                json::key(out, "hot_pod");
                out.push_str("null");
            }
        }
        json::key(out, "before");
        self.before.write_json(out);
        json::key(out, "after");
        self.after.write_json(out);
        out.push('}');
    }

    /// Appends one human-readable "why did Rhythm do X at t=Y" line
    /// (without the newline).
    pub fn write_why(&self, out: &mut String) {
        let (load, loadlimit) = (self.load, self.loadlimit);
        let (slack, slacklimit) = (self.slack, self.slacklimit);
        let _ = write!(
            out,
            "t={:.1}s machine {} ({}): {} because ",
            self.t_s,
            self.machine,
            self.pod,
            self.action.name(),
        );
        let _ = match self.trigger {
            Trigger::SlaViolated => {
                write!(out, "slack {slack:.3} < 0 (tail already beyond the SLA)")
            }
            Trigger::LoadAboveLimit => write!(out, "load {load:.3} > loadlimit {loadlimit:.3}"),
            Trigger::SlackBelowHalfLimit => {
                write!(
                    out,
                    "slack {slack:.3} < slacklimit/2 {:.3}",
                    slacklimit / 2.0
                )
            }
            Trigger::SlackBelowLimit => {
                write!(out, "slack {slack:.3} < slacklimit {slacklimit:.3}")
            }
            Trigger::ComfortableSlack => {
                write!(out, "slack {slack:.3} >= slacklimit {slacklimit:.3}")
            }
        };
        let _ = write!(
            out,
            "; tail {:.2}ms vs SLA {:.0}ms",
            self.tail_ms, self.sla_ms
        );
        if let Some(idx) = self.hot_pod {
            let _ = write!(
                out,
                "; hottest stage {} ({}) mean sojourn {:.2}ms",
                idx, self.hot_pod_name, self.hot_pod_ms
            );
        }
        let _ = write!(
            out,
            "; BE {}→{} instances ({}→{} running, {}→{} cores)",
            self.before.instances,
            self.after.instances,
            self.before.running,
            self.after.running,
            self.before.cores,
            self.after.cores,
        );
    }
}

rhythm_snapshot::snapshot_struct!(AuditRecord {
    t_s,
    machine,
    pod,
    action,
    trigger,
    load,
    loadlimit,
    slack,
    slacklimit,
    tail_ms,
    sla_ms,
    hot_pod,
    hot_pod_name,
    hot_pod_ms,
    before,
    after,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_full_record() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let rec = sample();
        let mut w = Writer::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = AuditRecord::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.pod, rec.pod);
        assert_eq!(back.action, rec.action);
        assert_eq!(back.trigger, rec.trigger);
        assert_eq!(back.hot_pod, rec.hot_pod);
        assert_eq!(back.before, rec.before);
        assert_eq!(back.after, rec.after);
        assert_eq!(why(&back), why(&rec));
        // Re-encoding the decoded record is bit-identical.
        let mut w2 = Writer::new();
        back.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn classify_mirrors_algorithm_2_ladder() {
        let (ll, sl) = (0.6, 0.1);
        assert_eq!(Trigger::classify(0.3, -0.01, ll, sl), Trigger::SlaViolated);
        assert_eq!(Trigger::classify(0.7, 0.2, ll, sl), Trigger::LoadAboveLimit);
        assert_eq!(
            Trigger::classify(0.3, 0.04, ll, sl),
            Trigger::SlackBelowHalfLimit
        );
        assert_eq!(
            Trigger::classify(0.3, 0.08, ll, sl),
            Trigger::SlackBelowLimit
        );
        assert_eq!(
            Trigger::classify(0.3, 0.5, ll, sl),
            Trigger::ComfortableSlack
        );
        // SLA violation wins even under heavy load, as in the paper.
        assert_eq!(Trigger::classify(0.9, -0.5, ll, sl), Trigger::SlaViolated);
    }

    fn sample() -> AuditRecord {
        AuditRecord {
            t_s: 12.0,
            machine: 2,
            pod: "front".into(),
            action: ActionCode::CutBe,
            trigger: Trigger::SlackBelowHalfLimit,
            load: 0.41,
            loadlimit: 0.6,
            slack: 0.03,
            slacklimit: 0.1,
            tail_ms: 97.0,
            sla_ms: 100.0,
            hot_pod: Some(1),
            hot_pod_name: "search".into(),
            hot_pod_ms: 8.4,
            before: BeSnapshot {
                instances: 6,
                running: 6,
                cores: 8,
                llc_ways: 6,
                freq_mhz: 2600,
                net_mbps: 4000,
            },
            after: BeSnapshot {
                instances: 6,
                running: 6,
                cores: 6,
                llc_ways: 4,
                freq_mhz: 2200,
                net_mbps: 3000,
            },
        }
    }

    #[test]
    fn why_line_names_action_and_cause() {
        let why = why(&sample());
        assert!(why.contains("CutBE"), "{why}");
        assert!(why.contains("slacklimit/2"), "{why}");
        assert!(why.contains("hottest stage 1 (search)"), "{why}");
        assert!(why.contains("8→6 cores"), "{why}");
    }

    #[test]
    fn json_includes_thresholds_and_snapshots() {
        let s = line(&sample(), 0);
        assert!(s.contains("\"type\":\"audit\""), "{s}");
        assert!(s.contains("\"loadlimit\":0.6"), "{s}");
        assert!(s.contains("\"trigger\":\"slack_below_half_limit\""), "{s}");
        assert!(s.contains("\"before\":{\"instances\":6"), "{s}");
    }

    #[test]
    fn missing_hot_pod_serialises_as_null() {
        let mut r = sample();
        r.hot_pod = None;
        let s = line(&r, 0);
        assert!(s.contains("\"hot_pod\":null"), "{s}");
        assert!(!s.contains("hot_pod_name"), "{s}");
    }

    fn line(rec: &AuditRecord, replica: usize) -> String {
        let mut out = String::new();
        rec.write_json(&mut out, replica);
        out
    }

    fn why(rec: &AuditRecord) -> String {
        let mut out = String::new();
        rec.write_why(&mut out);
        out
    }

    /// A record whose strings need every escape and whose floats hit
    /// every rendering edge: negative zero, a large exponent, and the
    /// non-finite values JSON has no token for.
    fn edge() -> AuditRecord {
        AuditRecord {
            t_s: 1e21,
            machine: u32::MAX,
            pod: "a\"b\\c\nd\u{1}e".into(),
            load: -0.0,
            loadlimit: f64::NAN,
            slack: f64::NEG_INFINITY,
            slacklimit: f64::INFINITY,
            tail_ms: 0.1,
            hot_pod: Some(u32::MAX),
            hot_pod_name: "\t\r\u{1f}é".into(),
            hot_pod_ms: -1.5e-7,
            ..sample()
        }
    }

    #[test]
    fn json_pins_both_hot_pod_arms() {
        let cold = AuditRecord {
            hot_pod: None,
            ..edge()
        };
        let cases = [
            (
                sample(),
                0,
                r#"{"type":"audit","replica":0,"t_s":12,"machine":2,"pod":"front","action":"CutBE","trigger":"slack_below_half_limit","load":0.41,"loadlimit":0.6,"slack":0.03,"slacklimit":0.1,"tail_ms":97,"sla_ms":100,"hot_pod":1,"hot_pod_name":"search","hot_pod_ms":8.4,"before":{"instances":6,"running":6,"cores":8,"llc_ways":6,"freq_mhz":2600,"net_mbps":4000},"after":{"instances":6,"running":6,"cores":6,"llc_ways":4,"freq_mhz":2200,"net_mbps":3000}}"#,
            ),
            (
                edge(),
                usize::MAX,
                r#"{"type":"audit","replica":18446744073709551615,"t_s":1000000000000000000000,"machine":4294967295,"pod":"a\"b\\c\nd\u0001e","action":"CutBE","trigger":"slack_below_half_limit","load":-0,"loadlimit":null,"slack":null,"slacklimit":null,"tail_ms":0.1,"sla_ms":100,"hot_pod":4294967295,"hot_pod_name":"\t\r\u001fé","hot_pod_ms":-0.00000015,"before":{"instances":6,"running":6,"cores":8,"llc_ways":6,"freq_mhz":2600,"net_mbps":4000},"after":{"instances":6,"running":6,"cores":6,"llc_ways":4,"freq_mhz":2200,"net_mbps":3000}}"#,
            ),
            (
                cold,
                3,
                r#"{"type":"audit","replica":3,"t_s":1000000000000000000000,"machine":4294967295,"pod":"a\"b\\c\nd\u0001e","action":"CutBE","trigger":"slack_below_half_limit","load":-0,"loadlimit":null,"slack":null,"slacklimit":null,"tail_ms":0.1,"sla_ms":100,"hot_pod":null,"before":{"instances":6,"running":6,"cores":8,"llc_ways":6,"freq_mhz":2600,"net_mbps":4000},"after":{"instances":6,"running":6,"cores":6,"llc_ways":4,"freq_mhz":2200,"net_mbps":3000}}"#,
            ),
        ];
        for (rec, replica, want) in cases {
            assert_eq!(line(&rec, replica), want);
        }
    }

    #[test]
    fn why_pins_both_hot_pod_arms() {
        let cold = AuditRecord {
            hot_pod: None,
            ..sample()
        };
        assert_eq!(
            why(&sample()),
            "t=12.0s machine 2 (front): CutBE because slack 0.030 < slacklimit/2 0.050; \
             tail 97.00ms vs SLA 100ms; hottest stage 1 (search) mean sojourn 8.40ms; \
             BE 6→6 instances (6→6 running, 8→6 cores)"
        );
        assert_eq!(
            why(&cold),
            "t=12.0s machine 2 (front): CutBE because slack 0.030 < slacklimit/2 0.050; \
             tail 97.00ms vs SLA 100ms; BE 6→6 instances (6→6 running, 8→6 cores)"
        );
    }

    #[test]
    fn why_pins_every_trigger() {
        let cases = [
            (
                Trigger::SlaViolated,
                "slack 0.030 < 0 (tail already beyond the SLA)",
            ),
            (Trigger::LoadAboveLimit, "load 0.410 > loadlimit 0.600"),
            (
                Trigger::SlackBelowHalfLimit,
                "slack 0.030 < slacklimit/2 0.050",
            ),
            (Trigger::SlackBelowLimit, "slack 0.030 < slacklimit 0.100"),
            (Trigger::ComfortableSlack, "slack 0.030 >= slacklimit 0.100"),
        ];
        for (trigger, want) in cases {
            let rec = AuditRecord {
                trigger,
                hot_pod: None,
                ..sample()
            };
            let why = why(&rec);
            let (_, cause) = why.split_once(" because ").unwrap();
            assert_eq!(cause.split_once("; ").unwrap().0, want);
        }
    }
}
