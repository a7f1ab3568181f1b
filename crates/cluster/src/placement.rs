//! Placement policies for the BE dispatcher.
//!
//! The dispatcher only ever considers machines whose controller currently
//! signals AllowBEGrowth (§3.5: the cluster scheduler is driven purely by
//! the per-machine signals). Among those, the policy picks where the next
//! queued job goes:
//!
//! * **RoundRobin** — rotate over eligible machines; the baseline any
//!   real scheduler starts from.
//! * **LeastPressure** — place on the machine whose current BE population
//!   exerts the least aggregate resource pressure.
//! * **InterferenceScore** — score each eligible machine by the
//!   service-time inflation its LC component *would* suffer with one
//!   probe instance of the job added, using the calibrated
//!   `rhythm-interference` sensitivities, and pick the minimum (cf. the
//!   scoring mechanism of the related microservice-interference work).
//! * **HeteroAware** — the interference score divided by the machine's
//!   normalized capacity headroom (free cores × max frequency against
//!   the paper testbed), plus a straggler penalty that steers gang
//!   members toward machines of similar capacity — a gang finishes when
//!   its *slowest* member does, so co-placing a member on a much weaker
//!   machine wastes the faster peers.

use rhythm_interference::{InterferenceModel, Pressure};
use rhythm_machine::Machine;
use rhythm_workloads::{BeSpec, ComponentSpec};
use serde::{Deserialize, Serialize};

/// Which placement policy the dispatcher uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Rotate over eligible machines.
    RoundRobin,
    /// Least aggregate BE pressure first.
    LeastPressure,
    /// Lowest predicted LC inflation first.
    InterferenceScore,
    /// Inflation weighted by capacity headroom plus a gang straggler
    /// penalty (heterogeneous clusters).
    HeteroAware,
}

impl PlacementPolicy {
    /// Short name used in reports and CLI arguments.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::LeastPressure => "least-pressure",
            PlacementPolicy::InterferenceScore => "interference-score",
            PlacementPolicy::HeteroAware => "hetero-aware",
        }
    }

    /// Parses a CLI name (see [`PlacementPolicy::name`]).
    pub fn parse(s: &str) -> Option<PlacementPolicy> {
        match s {
            "round-robin" | "rr" => Some(PlacementPolicy::RoundRobin),
            "least-pressure" | "lp" => Some(PlacementPolicy::LeastPressure),
            "interference-score" | "is" => Some(PlacementPolicy::InterferenceScore),
            "hetero-aware" | "ha" => Some(PlacementPolicy::HeteroAware),
            _ => None,
        }
    }
}

/// The part of a job's [`BeSpec`] that placement scoring reads: the
/// probe size and the pressure one probe instance adds. Scores take a
/// key, never a spec, so two jobs with equal keys score every machine
/// identically whatever their names or sizes — the dispatcher shares
/// one ranking per pass between them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreKey {
    /// Probe cores: `solo_cores` clamped to 1..=2. A fresh instance
    /// starts at one core but the controller grows it, and a 1-core
    /// probe barely separates job characters.
    probe_cores: u32,
    cpu_pressure_per_core: f64,
    llc_pressure_per_core: f64,
    dram_pressure_per_core: f64,
    net_demand_mbps: f64,
}

impl ScoreKey {
    /// The score-relevant fields of `spec`.
    pub fn of(spec: &BeSpec) -> ScoreKey {
        ScoreKey {
            probe_cores: spec.solo_cores.clamp(1, 2),
            cpu_pressure_per_core: spec.cpu_pressure_per_core,
            llc_pressure_per_core: spec.llc_pressure_per_core,
            dram_pressure_per_core: spec.dram_pressure_per_core,
            net_demand_mbps: spec.net_demand_mbps,
        }
    }

    /// The key's exact bit pattern (`f64::to_bits` per field), usable
    /// as a map key: equal bits mean equal scores on every machine.
    pub fn bits(&self) -> [u64; 5] {
        [
            u64::from(self.probe_cores),
            self.cpu_pressure_per_core.to_bits(),
            self.llc_pressure_per_core.to_bits(),
            self.dram_pressure_per_core.to_bits(),
            self.net_demand_mbps.to_bits(),
        ]
    }
}

/// Stateful placer (the round-robin cursor persists across epochs).
///
/// The dispatcher owns the argmin: it ranks eligible machines by the
/// scores below once per pass and reads the head of each ranking.
#[derive(Clone, Debug)]
pub struct Placer {
    policy: PlacementPolicy,
    model: InterferenceModel,
    cursor: usize,
}

impl Placer {
    /// A placer for `policy` scoring with `model`.
    pub fn new(policy: PlacementPolicy, model: InterferenceModel) -> Placer {
        Placer {
            policy,
            model,
            cursor: 0,
        }
    }

    /// The policy this placer runs.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// How hard gang co-placement pulls toward capacity-matched peers
    /// (per unit of normalized-capacity mismatch).
    const STRAGGLER_WEIGHT: f64 = 2.0;

    /// The round-robin cursor (next global index the rotation tries).
    pub(crate) fn cursor(&self) -> usize {
        self.cursor
    }

    /// Moves the round-robin cursor (the dispatcher keeps its own
    /// rotation state during a pass and mirrors it back here).
    pub(crate) fn set_cursor(&mut self, cursor: usize) {
        self.cursor = cursor;
    }

    /// The LeastPressure score of a machine: the aggregate of its `base`
    /// pressure (see [`Pressure::from_machine`]). Job-independent, so the
    /// dispatcher keeps one ranking per dispatch pass.
    pub(crate) fn pressure_score(base: Pressure) -> f64 {
        base.cpu + base.llc + base.dram + base.net
    }

    /// The HeteroAware base score (no gang context): predicted inflation
    /// divided by normalized capacity × core headroom. The straggler
    /// penalty is added on top by [`Placer::with_straggler_penalty`]
    /// when peers exist.
    pub(crate) fn hetero_base(
        &self,
        key: ScoreKey,
        base: Pressure,
        component: &ComponentSpec,
        machine: &Machine,
    ) -> f64 {
        let cap = Self::capacity(machine);
        let total = machine.spec().total_cores().max(1) as f64;
        let headroom = machine.free_core_count() as f64 / total;
        self.score_on(key, base, component, machine) / (cap * headroom.max(0.05))
    }

    /// A HeteroAware score in gang context: a gang finishes with its
    /// slowest member, so a machine of capacity `cap` is penalised by
    /// its mismatch against the mean capacity of the already-placed
    /// siblings. Weighted to rival the inflation term, since a
    /// straggler wastes every sibling's cycles.
    pub(crate) fn with_straggler_penalty(hetero_base: f64, cap: f64, peer_mean: f64) -> f64 {
        hetero_base + Self::STRAGGLER_WEIGHT * (cap - peer_mean).abs()
    }

    /// A machine's compute capacity normalized to the paper testbed
    /// (40 cores × 2.0 GHz = 1.0).
    pub fn capacity(machine: &Machine) -> f64 {
        let spec = machine.spec();
        spec.total_cores() as f64 * spec.max_freq_mhz as f64 / (40.0 * 2_000.0)
    }

    /// Predicted LC service-time inflation on `machine` (hosting
    /// `component`, whose current BE population exerts `base`) with one
    /// probe instance of a job keyed `key` added.
    pub(crate) fn score_on(
        &self,
        key: ScoreKey,
        base: Pressure,
        component: &ComponentSpec,
        machine: &Machine,
    ) -> f64 {
        let mut p = base;
        let probe_cores = key.probe_cores as f64 * machine.be_dvfs.speed_fraction();
        p.cpu += key.cpu_pressure_per_core * probe_cores;
        p.llc += key.llc_pressure_per_core * probe_cores;
        p.dram += key.dram_pressure_per_core * probe_cores;
        p.net += (key.net_demand_mbps / machine.spec().nic_mbps).max(0.0);
        let p = p.clamped();
        self.model.inflation(component, &p, machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_machine::{Allocation, MachineSpec};
    use rhythm_workloads::{apps, BeKind};
    use std::collections::BTreeMap;

    /// A machine of `spec` with its LC allocation running at `freq_mhz`.
    fn machine_of(spec: MachineSpec, freq_mhz: u32) -> Machine {
        Machine::new(
            spec,
            Allocation {
                cores: 12,
                llc_ways: 0,
                mem_mb: 32 * 1024,
                net_mbps: 1_000.0,
                freq_mhz,
            },
        )
    }

    fn machine() -> Machine {
        machine_of(MachineSpec::paper_testbed(), 2_000)
    }

    fn grant(cores: u32) -> Allocation {
        Allocation {
            cores,
            llc_ways: 2,
            mem_mb: 2048,
            net_mbps: 0.0,
            freq_mhz: 2_000,
        }
    }

    fn specs() -> BTreeMap<String, BeSpec> {
        let mut m = BTreeMap::new();
        for k in [BeKind::Wordcount, BeKind::StreamDram { big: true }] {
            let s = BeSpec::of(k);
            m.insert(s.name.clone(), s);
        }
        m
    }

    /// The base pressure the dispatcher computes once per machine per
    /// dispatch pass.
    fn base(m: &Machine) -> Pressure {
        Pressure::from_machine(m, &specs())
    }

    fn placer(policy: PlacementPolicy) -> Placer {
        Placer::new(policy, InterferenceModel::calibrated())
    }

    #[test]
    fn score_key_ignores_name_and_size() {
        let a = BeSpec::of(BeKind::Wordcount);
        let mut b = a.clone();
        b.name = format!("{}#007", a.name);
        b.job_seconds = a.job_seconds * 3.5;
        assert_eq!(ScoreKey::of(&a), ScoreKey::of(&b));
        assert_eq!(ScoreKey::of(&a).bits(), ScoreKey::of(&b).bits());
        let svc = apps::ecommerce();
        let mut m = machine();
        m.admit_be("stream-dram", grant(4)).unwrap();
        let p = placer(PlacementPolicy::InterferenceScore);
        let score = |s: &BeSpec| {
            p.score_on(ScoreKey::of(s), base(&m), &svc.nodes[0].component, &m)
                .to_bits()
        };
        assert_eq!(score(&a), score(&b));
    }

    #[test]
    fn score_key_tracks_every_scored_field() {
        let spec = BeSpec::of(BeKind::Wordcount);
        let key = ScoreKey::of(&spec).bits();
        let edits: [fn(&mut BeSpec); 5] = [
            |s| s.solo_cores = 1,
            |s| s.cpu_pressure_per_core += 0.01,
            |s| s.llc_pressure_per_core += 0.01,
            |s| s.dram_pressure_per_core += 0.01,
            |s| s.net_demand_mbps += 1.0,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut s = spec.clone();
            edit(&mut s);
            assert_ne!(
                ScoreKey::of(&s).bits(),
                key,
                "edit {i} left the key unchanged"
            );
        }
    }

    #[test]
    fn score_key_clamps_probe_cores() {
        let mut two = BeSpec::of(BeKind::Wordcount);
        two.solo_cores = 2;
        let mut five = two.clone();
        five.solo_cores = 5;
        assert_eq!(ScoreKey::of(&two).bits(), ScoreKey::of(&five).bits());
    }

    #[test]
    fn least_pressure_avoids_loaded_machine() {
        let mut loaded = machine();
        loaded.admit_be("stream-dram", grant(4)).unwrap();
        let idle = machine();
        assert!(
            Placer::pressure_score(base(&loaded)) > Placer::pressure_score(base(&idle)),
            "the loaded machine ranks after the idle one"
        );
    }

    #[test]
    fn interference_score_prefers_tolerant_component() {
        // Same machine state, two components that differ only in DRAM
        // sensitivity: a DRAM-heavy job scores lower on the tolerant one.
        let svc = apps::ecommerce();
        let mut tolerant = svc.nodes[0].component.clone();
        tolerant.sensitivity.dram = 0.0;
        let mut sensitive = tolerant.clone();
        sensitive.sensitivity.dram = 2.0;
        let m = machine();
        let key = ScoreKey::of(&BeSpec::of(BeKind::StreamDram { big: true }));
        let p = placer(PlacementPolicy::InterferenceScore);
        let on = |c: &ComponentSpec| p.score_on(key, base(&m), c, &m);
        assert!(
            on(&tolerant) < on(&sensitive),
            "{} {}",
            on(&tolerant),
            on(&sensitive)
        );
    }

    #[test]
    fn capacity_orders_machine_classes() {
        let of = |s: MachineSpec| {
            Machine::new(
                s,
                Allocation {
                    cores: 8,
                    llc_ways: 0,
                    mem_mb: 16 * 1024,
                    net_mbps: 1_000.0,
                    freq_mhz: s.max_freq_mhz,
                },
            )
        };
        let dense = Placer::capacity(&of(MachineSpec::dense_compute()));
        let paper = Placer::capacity(&of(MachineSpec::paper_testbed()));
        let lean = Placer::capacity(&of(MachineSpec::lean_node()));
        assert!((paper - 1.0).abs() < 1e-12, "testbed normalizes to 1");
        assert!(dense > paper && paper > lean, "{dense} {paper} {lean}");
    }

    #[test]
    fn hetero_aware_prefers_bigger_machine() {
        // Identical load, identical component: the dense node should win
        // purely on capacity headroom.
        let svc = apps::ecommerce();
        let small = machine_of(MachineSpec::lean_node(), 1_800);
        let big = machine_of(MachineSpec::dense_compute(), 2_600);
        let key = ScoreKey::of(&BeSpec::of(BeKind::Wordcount));
        let p = placer(PlacementPolicy::HeteroAware);
        let on = |m: &Machine| p.hetero_base(key, base(m), &svc.nodes[0].component, m);
        assert!(on(&big) < on(&small), "{} {}", on(&big), on(&small));
    }

    #[test]
    fn gang_peers_pull_toward_similar_capacity() {
        let svc = apps::ecommerce();
        let mid = machine();
        let big = machine_of(MachineSpec::dense_compute(), 2_600);
        let key = ScoreKey::of(&BeSpec::of(BeKind::Wordcount));
        let p = placer(PlacementPolicy::HeteroAware);
        let alone = |m: &Machine| p.hetero_base(key, base(m), &svc.nodes[0].component, m);
        // Alone, the big machine wins…
        assert!(alone(&big) < alone(&mid));
        // …but with siblings already placed on lean nodes the straggler
        // penalty pulls the next member toward the closer-matched machine.
        let lean = Placer::capacity(&machine_of(MachineSpec::lean_node(), 1_800));
        let with_peers =
            |m: &Machine| Placer::with_straggler_penalty(alone(m), Placer::capacity(m), lean);
        assert!(
            with_peers(&mid) < with_peers(&big),
            "gang members cluster by capacity"
        );
    }
}
