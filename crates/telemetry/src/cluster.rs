//! Cluster-scheduler events: gang lifecycle and deadline outcomes.
//!
//! The per-engine recorder sees only one replica; decisions the cluster
//! dispatcher takes at the epoch barrier — forming or aborting a gang,
//! observing a deadline miss — span machines and have no per-engine home.
//! They are recorded here, always single-threaded at the barrier in fixed
//! order, so the export stays byte-identical for any worker-thread count.

use crate::json;
use serde::{Deserialize, Serialize};

/// What happened at the cluster scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterEventKind {
    /// Every instance of a gang job was admitted; the gang is running.
    GangFormed,
    /// A gang was rolled back (a member was killed, or placement timed
    /// out) and its leader requeued.
    GangAborted,
    /// A job completed after its deadline, or the run ended with the
    /// deadline already passed.
    DeadlineMiss,
    /// A machine left the cluster (fault injection): its BE work was
    /// killed and requeued. For machine events the `job` field carries
    /// the **global machine index**, not a job id.
    MachineDown,
    /// A crashed machine rejoined the cluster and is again eligible for
    /// BE placement. `job` carries the global machine index.
    MachineUp,
    /// A fault-plan event fired at this barrier (one record per plan
    /// entry, in addition to any per-machine down/up records). `job`
    /// carries the plan-event index.
    FaultInjected,
}

impl ClusterEventKind {
    /// Snake-case name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            ClusterEventKind::GangFormed => "gang_formed",
            ClusterEventKind::GangAborted => "gang_aborted",
            ClusterEventKind::DeadlineMiss => "deadline_miss",
            ClusterEventKind::MachineDown => "machine_down",
            ClusterEventKind::MachineUp => "machine_up",
            ClusterEventKind::FaultInjected => "fault_injected",
        }
    }
}

/// One cluster-scheduler event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterEvent {
    /// Virtual time of the epoch barrier that recorded the event.
    pub t_s: f64,
    /// What happened.
    pub kind: ClusterEventKind,
    /// The job involved (a gang's leader for gang events).
    pub job: u64,
    /// Gang id for gang events (`None` for solitary jobs).
    pub gang: Option<u32>,
}

impl ClusterEvent {
    /// Appends the event as one compact JSON object.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"type\":\"cluster_event\"");
        json::string(out, "kind", self.kind.name());
        json::float(out, "t_s", self.t_s);
        json::uint(out, "job", self.job);
        if let Some(gid) = self.gang {
            json::uint(out, "gang", gid.into());
        }
        out.push('}');
    }
}

impl rhythm_snapshot::Snapshot for ClusterEventKind {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u8(match self {
            ClusterEventKind::GangFormed => 0,
            ClusterEventKind::GangAborted => 1,
            ClusterEventKind::DeadlineMiss => 2,
            // Tag 3 is retired (it named a scheduler-shard event).
            ClusterEventKind::MachineDown => 4,
            ClusterEventKind::MachineUp => 5,
            ClusterEventKind::FaultInjected => 6,
        });
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(match r.u8()? {
            0 => ClusterEventKind::GangFormed,
            1 => ClusterEventKind::GangAborted,
            2 => ClusterEventKind::DeadlineMiss,
            4 => ClusterEventKind::MachineDown,
            5 => ClusterEventKind::MachineUp,
            6 => ClusterEventKind::FaultInjected,
            t => {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                    "unknown cluster event kind {t}"
                )))
            }
        })
    }
}

rhythm_snapshot::snapshot_struct!(ClusterEvent { t_s, kind, job, gang });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_cluster_events() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let events = vec![
            ClusterEvent {
                t_s: 12.0,
                kind: ClusterEventKind::GangFormed,
                job: 7,
                gang: Some(3),
            },
            ClusterEvent {
                t_s: 30.0,
                kind: ClusterEventKind::DeadlineMiss,
                job: 9,
                gang: None,
            },
            ClusterEvent {
                t_s: 42.0,
                kind: ClusterEventKind::MachineDown,
                job: 5, // machine index for machine events
                gang: None,
            },
            ClusterEvent {
                t_s: 60.0,
                kind: ClusterEventKind::MachineUp,
                job: 5,
                gang: None,
            },
            ClusterEvent {
                t_s: 42.0,
                kind: ClusterEventKind::FaultInjected,
                job: 0, // plan-event index for fault records
                gang: None,
            },
        ];
        let mut w = Writer::new();
        events.encode(&mut w);
        let bytes = w.into_bytes();
        let back: Vec<ClusterEvent> =
            rhythm_snapshot::Snapshot::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, events);
    }

    fn render(ev: &ClusterEvent) -> String {
        let mut out = String::new();
        ev.write_json(&mut out);
        out
    }

    #[test]
    fn renders_compact_jsonl_object() {
        let ev = ClusterEvent {
            t_s: 12.0,
            kind: ClusterEventKind::GangFormed,
            job: 7,
            gang: Some(3),
        };
        let line = render(&ev);
        assert!(line.starts_with("{\"type\":\"cluster_event\""), "{line}");
        assert!(line.contains("\"kind\":\"gang_formed\""), "{line}");
        assert!(line.contains("\"gang\":3"), "{line}");
        let solo = ClusterEvent {
            t_s: 30.0,
            kind: ClusterEventKind::DeadlineMiss,
            job: 9,
            gang: None,
        };
        let line = render(&solo);
        assert!(!line.contains("gang"), "no gang key");
    }

    /// The exact line of every kind, with `gang` present and absent.
    #[test]
    fn json_pins_every_kind_and_optional_key() {
        let cases = [
            (
                ClusterEventKind::GangFormed,
                12.5,
                u64::MAX,
                Some(u32::MAX),
                r#"{"type":"cluster_event","kind":"gang_formed","t_s":12.5,"job":18446744073709551615,"gang":4294967295}"#,
            ),
            (
                ClusterEventKind::GangAborted,
                -0.0,
                0,
                Some(1),
                r#"{"type":"cluster_event","kind":"gang_aborted","t_s":-0,"job":0,"gang":1}"#,
            ),
            (
                ClusterEventKind::DeadlineMiss,
                1e21,
                9,
                None,
                r#"{"type":"cluster_event","kind":"deadline_miss","t_s":1000000000000000000000,"job":9}"#,
            ),
            (
                ClusterEventKind::MachineDown,
                f64::INFINITY,
                5,
                None,
                r#"{"type":"cluster_event","kind":"machine_down","t_s":null,"job":5}"#,
            ),
            (
                ClusterEventKind::MachineUp,
                60.0,
                5,
                None,
                r#"{"type":"cluster_event","kind":"machine_up","t_s":60,"job":5}"#,
            ),
            (
                ClusterEventKind::FaultInjected,
                f64::NAN,
                0,
                None,
                r#"{"type":"cluster_event","kind":"fault_injected","t_s":null,"job":0}"#,
            ),
        ];
        for (kind, t_s, job, gang, want) in cases {
            let ev = ClusterEvent {
                t_s,
                kind,
                job,
                gang,
            };
            assert_eq!(render(&ev), want);
        }
    }
}
