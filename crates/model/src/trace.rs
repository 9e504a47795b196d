//! Communication traces: the per-step, per-rank traffic of an algorithm run,
//! and their evaluation under a [`MachineModel`](crate::MachineModel).
//!
//! A trace is generated without moving any payload (see
//! [`crate::nonuniform_trace`]) but is *byte-exact*: integration tests assert
//! that the bytes each step says a rank sends equal what the real
//! implementation in `bruck-core` sends under a `MeteredComm`.

use bruck_core::common::{
    data_tag, meta_tag, uniform_step_tag, HIER_GATHER_TAG, HIER_LEADER_TAG, HIER_SCATTER_TAG,
    SPREAD_TAG,
};

use crate::MachineModel;

/// What a step is, which also determines the wire tag the real implementation
/// uses for it (the bridge to `MeteredComm` validation): [`StepKind::tag`]
/// calls `bruck_core::common`'s tag functions, so the two crates cannot drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Uniform Bruck data exchange of step `k` (`uniform_step_tag(k)`).
    UniformData(u32),
    /// Non-uniform metadata exchange of step `k` (`meta_tag(k)`).
    Meta(u32),
    /// Non-uniform data exchange of step `k` (`data_tag(k)`).
    Data(u32),
    /// All-pairs point-to-point phase (`SPREAD_TAG`). `throttled` selects the
    /// windowed (vendor) vs unthrottled (spread-out) injection overhead.
    Pairwise {
        /// Windowed outstanding requests (vendor-style) or not.
        throttled: bool,
    },
    /// Hierarchical member→leader gather (`HIER_GATHER_TAG`).
    HierGather,
    /// Hierarchical leader↔leader exchange (`HIER_LEADER_TAG`).
    HierLeader,
    /// Hierarchical leader→member scatter (`HIER_SCATTER_TAG`).
    HierScatter,
    /// A collective prologue (allreduce of the maximum block size); uses
    /// reserved tags and is skipped by byte validation.
    Collective,
    /// One one-way step of the wider collective family (allgatherv /
    /// reduce_scatter / allreduce / PAT, tag block `0x0800..0x0FFF`). The
    /// tag is carried explicitly — see [`crate::collective`], which prices
    /// `bruck-core`'s step plans.
    Coll {
        /// The wire tag `bruck-core` sends this step's traffic under.
        tag: u32,
    },
    /// Pure local work (rotation, padding, scan) — no wire traffic.
    Local,
}

impl StepKind {
    /// The wire tag this step's traffic is sent under in `bruck-core`,
    /// if it has one.
    pub fn tag(&self) -> Option<u32> {
        match *self {
            StepKind::UniformData(k) => Some(uniform_step_tag(k)),
            StepKind::Meta(k) => Some(meta_tag(k)),
            StepKind::Data(k) => Some(data_tag(k)),
            StepKind::Pairwise { .. } => Some(SPREAD_TAG),
            StepKind::HierGather => Some(HIER_GATHER_TAG),
            StepKind::HierLeader => Some(HIER_LEADER_TAG),
            StepKind::HierScatter => Some(HIER_SCATTER_TAG),
            StepKind::Coll { tag, .. } => Some(tag),
            StepKind::Collective | StepKind::Local => None,
        }
    }
}

/// One rank's traffic in one step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankLoad {
    /// Messages whose latency serializes (blocking sendrecv rounds).
    pub seq_msgs: u32,
    /// Messages overlapped with each other (non-blocking), paying only the
    /// injection overhead each.
    pub ov_msgs: u32,
    /// Payload bytes sent by this rank in this step.
    pub bytes_out: u64,
    /// Payload bytes received by this rank in this step.
    pub bytes_in: u64,
    /// Local bytes copied (pack + unpack + rotations + padding + scans, the
    /// combined coupling's extra pack pass).
    pub copy_bytes: u64,
    /// Blocks handled one descriptor at a time: walked by the datatype engine
    /// (`-dt` variants), parsed out of a combined buffer, or kept as views in
    /// a pointer array (the §6.1 per-block costs).
    pub dt_blocks: u32,
}

/// One synchronized step: the loads of the (sampled) ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The step's kind (and wire tag).
    pub kind: StepKind,
    /// `(rank, load)` for each evaluated rank. For `P` beyond the sampling
    /// threshold this covers a deterministic subset (see
    /// [`crate::RankSample`]); step time is the max over the covered ranks.
    pub loads: Vec<(usize, RankLoad)>,
}

impl Step {
    /// Step completion time: slowest covered rank.
    pub fn time(&self, m: &MachineModel, p: usize) -> f64 {
        self.loads.iter().map(|(_, l)| rank_time(m, self.kind, l, p)).fold(0.0, f64::max)
    }

    /// The load recorded for `rank`, if covered.
    pub fn load_of(&self, rank: usize) -> Option<&RankLoad> {
        self.loads.iter().find(|(r, _)| *r == rank).map(|(_, l)| l)
    }
}

/// Time one rank spends in one step.
fn rank_time(m: &MachineModel, kind: StepKind, l: &RankLoad, p: usize) -> f64 {
    let beta = match kind {
        // All-pairs patterns contend; the leader exchange is all-pairs over
        // the (much smaller) leader set.
        StepKind::Pairwise { .. } | StepKind::HierLeader => m.beta_pair,
        _ => m.beta,
    };
    let inject = match kind {
        StepKind::Pairwise { throttled: false } => m.inject_unthrottled,
        _ => m.inject,
    };
    f64::from(l.seq_msgs) * m.alpha(p)
        + f64::from(l.ov_msgs) * inject
        + beta * l.bytes_out.max(l.bytes_in) as f64
        + m.gamma * l.copy_bytes as f64
        + m.dt_block * f64::from(l.dt_blocks)
}

/// A full algorithm run: ordered steps over a `P`-rank communicator.
#[derive(Debug, Clone, PartialEq)]
pub struct CommTrace {
    /// Communicator size.
    pub p: usize,
    /// Steps in execution order.
    pub steps: Vec<Step>,
}

impl CommTrace {
    /// Predicted wall-clock time of the whole exchange.
    pub fn time(&self, m: &MachineModel) -> f64 {
        self.steps.iter().map(|s| s.time(m, self.p)).sum()
    }

    /// Bytes `rank` sends under wire tag `tag` (for per-step validation).
    pub fn bytes_for_tag(&self, rank: usize, tag: u32) -> Option<u64> {
        let mut total = 0u64;
        let mut seen = false;
        for step in &self.steps {
            if step.kind.tag() == Some(tag) {
                total += step.load_of(rank)?.bytes_out;
                seen = true;
            }
        }
        seen.then_some(total)
    }

    /// Messages `rank` sends under wire tag `tag` (sequential + overlapped),
    /// for conformance checks against a metered communicator.
    pub fn msgs_for_tag(&self, rank: usize, tag: u32) -> Option<u64> {
        let mut total = 0u64;
        let mut seen = false;
        for step in &self.steps {
            if step.kind.tag() == Some(tag) {
                let load = step.load_of(rank)?;
                total += u64::from(load.seq_msgs) + u64::from(load.ov_msgs);
                seen = true;
            }
        }
        seen.then_some(total)
    }

    /// Every wire tag appearing in the trace, in step order (deduplicated).
    pub fn wire_tags(&self) -> Vec<u32> {
        let mut tags = Vec::new();
        for step in &self.steps {
            if let Some(t) = step.kind.tag() {
                if !tags.contains(&t) {
                    tags.push(t);
                }
            }
        }
        tags
    }

    /// Total predicted wire traffic of the covered ranks (diagnostics).
    pub fn total_wire_bytes(&self) -> u64 {
        self.steps
            .iter()
            .filter(|s| s.kind.tag().is_some())
            .flat_map(|s| s.loads.iter().map(|(_, l)| l.bytes_out))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_load(bytes: u64) -> RankLoad {
        RankLoad { seq_msgs: 1, bytes_out: bytes, bytes_in: bytes, ..Default::default() }
    }

    #[test]
    fn step_time_is_max_over_ranks() {
        let m = MachineModel::theta_like();
        let step = Step {
            kind: StepKind::Data(0),
            loads: vec![(0, mk_load(100)), (1, mk_load(10_000)), (2, mk_load(5))],
        };
        let solo = Step { kind: StepKind::Data(0), loads: vec![(1, mk_load(10_000))] };
        assert_eq!(step.time(&m, 4), solo.time(&m, 4));
    }

    #[test]
    fn trace_time_sums_steps() {
        let m = MachineModel::theta_like();
        let s1 = Step { kind: StepKind::Data(0), loads: vec![(0, mk_load(100))] };
        let s2 = Step { kind: StepKind::Data(1), loads: vec![(0, mk_load(200))] };
        let t = CommTrace { p: 2, steps: vec![s1.clone(), s2.clone()] };
        assert!((t.time(&m) - (s1.time(&m, 2) + s2.time(&m, 2))).abs() < 1e-15);
    }

    #[test]
    fn pairwise_uses_contended_beta() {
        let m = MachineModel::theta_like();
        let load = RankLoad { bytes_out: 1 << 20, bytes_in: 1 << 20, ..Default::default() };
        let bruck = Step { kind: StepKind::Data(0), loads: vec![(0, load)] };
        let pair = Step { kind: StepKind::Pairwise { throttled: true }, loads: vec![(0, load)] };
        assert!(pair.time(&m, 64) > bruck.time(&m, 64));
    }

    #[test]
    fn tags_match_core_conventions() {
        assert_eq!(StepKind::UniformData(3).tag(), Some(0x103));
        assert_eq!(StepKind::Meta(0).tag(), Some(0x200));
        assert_eq!(StepKind::Data(7).tag(), Some(0x307));
        assert_eq!(StepKind::Pairwise { throttled: true }.tag(), Some(0x400));
        assert_eq!(StepKind::Local.tag(), None);
        assert_eq!(StepKind::Collective.tag(), None);
    }

    #[test]
    fn bytes_for_tag_filters_by_step() {
        let t = CommTrace {
            p: 2,
            steps: vec![
                Step { kind: StepKind::Meta(0), loads: vec![(0, mk_load(8))] },
                Step { kind: StepKind::Data(0), loads: vec![(0, mk_load(64))] },
                Step { kind: StepKind::Local, loads: vec![(0, RankLoad::default())] },
            ],
        };
        assert_eq!(t.bytes_for_tag(0, 0x200), Some(8));
        assert_eq!(t.bytes_for_tag(0, 0x300), Some(64));
        assert_eq!(t.bytes_for_tag(0, 0x999), None);
        assert_eq!(t.wire_tags(), vec![0x200, 0x300]);
    }

    #[test]
    fn msgs_for_tag_counts_both_message_classes() {
        let pair = RankLoad { seq_msgs: 1, ov_msgs: 3, bytes_out: 16, ..Default::default() };
        let t = CommTrace {
            p: 2,
            steps: vec![
                Step { kind: StepKind::Data(0), loads: vec![(0, mk_load(64))] },
                Step { kind: StepKind::Data(1), loads: vec![(0, mk_load(64))] },
                Step { kind: StepKind::Pairwise { throttled: false }, loads: vec![(0, pair)] },
                Step { kind: StepKind::Local, loads: vec![(0, RankLoad::default())] },
            ],
        };
        assert_eq!(t.msgs_for_tag(0, 0x300), Some(1));
        assert_eq!(t.msgs_for_tag(0, 0x301), Some(1));
        assert_eq!(t.msgs_for_tag(0, 0x400), Some(4), "seq + overlapped");
        assert_eq!(t.msgs_for_tag(0, 0x999), None);
        assert_eq!(t.msgs_for_tag(1, 0x300), None, "rank 1 not covered");
    }
}
