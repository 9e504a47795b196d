//! The configurable non-uniform all-to-all engine: one parameterized
//! algorithm, of which every variant the paper evaluates is a point.
//!
//! The paper's variants (two-phase, spread-out, padded, SLOAV, …) are points
//! in a small knob space — *Configurable Non-uniform All-to-all Algorithms*
//! (arXiv 2411.02581) decomposes them into orthogonal parameters, and this
//! module is that decomposition:
//!
//! | knob | values | what it selects |
//! |---|---|---|
//! | [`EngineTopology`] | oracle / direct / bruck / leader / two-stage | message pattern family |
//! | `radix` | `r ≥ 2` | Bruck digit base: `(r−1)·⌈log_r P⌉` steps, `⌈log_r P⌉` forwards |
//! | `throttle_window` | `None` / `Some(w)` | outstanding pairs for direct exchanges |
//! | [`PaddingRule`] | never / always / threshold | pad blocks to the global max `N` first |
//! | [`IntermediateLayout`] | monolithic / block-views | zero-rotation routing, finished blocks delivered in place, no final scan vs. basic routing + scan |
//! | `two_phase_split` | bool | decoupled metadata message, running one step ahead of the data, vs. combined buffer |
//!
//! The named algorithms are **constructors, not kernels**:
//! [`EngineConfig::as_two_phase`], [`EngineConfig::as_spread_out`], … build
//! the config that *is* that algorithm, and [`configurable_alltoallv`] runs
//! every config — named or not — through the same three loops:
//!
//! * the direct pairwise loop (`Direct`), windowed by `throttle_window`;
//! * the unpadded radix Bruck loop (`Bruck`): one loop whose direction and
//!   delivery come from the layout and whose metadata/data step coupling is
//!   selected by `two_phase_split`. Forwarded blocks stay in the receive
//!   regions they arrived in, so nothing is sized up front and no config of
//!   it pays an allreduce;
//! * the padded wrapper, entered when the [`PaddingRule`] fires: pad →
//!   direct loop → scan, or pad → uniform radix Zero Rotation Bruck, whose
//!   delivery closure strips each block's padding as it arrives for the last
//!   time (no receive image and no scan on the `Bruck` side);
//! * the oracle, leader and two-stage exchanges, which have no knobs beyond
//!   their topology.
//!
//! [`alltoallv_discover`] is the same engine for a caller that knows only its
//! send side, as a fixpoint round does. The direct and unpadded Bruck loops
//! have a second delivery mode for it: the direct loop reads each message's
//! length, the Bruck loop reads each block's size off the size arrays that
//! carried it, and both pack the blocks in source order once every length is
//! in. No other topology can learn a length from its own wire (a padded slot
//! is `N` bytes whatever it carries), so those run a uniform Zero Rotation
//! Bruck exchange of the counts first. Consecutive calls alternate between
//! two disjoint tag blocks by the parity the caller passes (DESIGN.md §14.5).
//!
//! The `bruck-probe` spans live in those loops under the names the paper's
//! algorithms are known by (DESIGN.md §10.2 has the span ← loop ← knob table).
//! The evidence that each named point is the paper's algorithm is the model
//! and the oracle, not a sibling implementation: `tests/engine_equivalence.rs`
//! holds the engine to `bruck-model`'s closed-form per-tag message and byte
//! counts and to [`reference_alltoallv`]'s bytes on every backend.

use std::time::Duration;

use bruck_comm::{CommError, CommResult, Communicator, MsgBuf, ReduceOp, Tag, RESERVED_TAG_BASE};

use super::{packed_displs, validate_send, validate_v};
use crate::common::{add_mod, data_tag, meta_tag, sub_mod, SPREAD_TAG};
use crate::probe::span;
use crate::radix::{
    radix_schedule, radix_step_rel_indices, zero_rotation_bruck_deliver, zero_rotation_bruck_radix,
};
use super::hierarchical::{hierarchical_alltoallv, DEFAULT_GROUP_SIZE};
use super::two_stage::ranka_two_stage_alltoallv;
use super::{reference_alltoallv, AlltoallvAlgorithm};

/// Outstanding-request window of the vendor `MPI_Alltoallv` stand-in. Cray's
/// implementation is closed source, but the paper notes (§1) that MPICH-family
/// libraries implement `MPI_Alltoallv` "using only variants of the Spread-out
/// algorithm", throttled to a window of outstanding pairs to avoid swamping
/// the receive side (`MPIR_CVAR_ALLTOALL_THROTTLE`; 32 is the MPICH default).
pub const VENDOR_WINDOW: usize = 32;

/// When to pad every block to the global maximum size `N` before exchanging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaddingRule {
    /// Never pad: exchange exact block sizes (metadata where needed).
    Never,
    /// Always pad (the §3.1 padded family): one allreduce finds `N`, blocks
    /// travel as `N`-byte slots, only the real bytes reach the receive buffer.
    Always,
    /// Pad only when the global maximum block size is at most this many
    /// bytes — the model-driven regime switch of inequality (3), §3.3.
    Threshold(usize),
}

impl PaddingRule {
    /// Whether an exchange whose global maximum block size is `n_max` pads —
    /// the one definition the engine, the memory model and `bruck-model`'s
    /// trace generator share.
    #[inline]
    pub fn fires(self, n_max: usize) -> bool {
        match self {
            PaddingRule::Never => false,
            PaddingRule::Always => true,
            PaddingRule::Threshold(t) => n_max <= t,
        }
    }
}

/// How the unpadded Bruck loop routes and delivers. In both layouts a block
/// that must be forwarded again stays where it arrived, in that step's
/// receive region: nothing is sized up front, so neither pays an allreduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntermediateLayout {
    /// Zero-rotation routing: a block whose remaining hops are exhausted is
    /// received straight into its final position, so there is no final scan
    /// (two-phase Bruck's §6.1 improvement). The name — and the key spelling
    /// `layout=mono` — date from the `P × N` working buffer §3.2 describes,
    /// which the kept receive regions replaced.
    Monolithic,
    /// Basic-Bruck routing over a pointer array of per-offset block views,
    /// every block copied home in a final scan (SLOAV's two-layer layout).
    BlockViews,
}

/// The message-pattern family a config runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineTopology {
    /// Blocking pairwise oracle (tests and tiny worlds).
    Oracle,
    /// Direct pairwise exchange: every block travels exactly once
    /// (spread-out / vendor / padded-alltoall family).
    Direct,
    /// Radix-`r` Bruck store-and-forward (padded / two-phase / SLOAV family).
    Bruck,
    /// Leader-based hierarchical exchange over groups.
    Leader {
        /// Ranks per group (leaders are the rank-0 member of each group).
        group: usize,
    },
    /// Ranka et al.'s balanced two-stage decomposition.
    TwoStage,
}

/// One point in the engine's knob space. See the module docs for the
/// knob table and what each knob selects.
///
/// Knobs that a topology does not consult are *don't-cares*: the canonical
/// form (what the named constructors produce and [`EngineConfig::key`]
/// serializes) pins them to `radix = 2`, `throttle_window = None`,
/// `layout = Monolithic`, `two_phase_split = false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    /// Message-pattern family.
    pub topology: EngineTopology,
    /// Bruck digit base (`≥ 2`); consulted by [`EngineTopology::Bruck`] only.
    pub radix: usize,
    /// Outstanding-pair window for direct exchanges (`None` = all `P − 1`
    /// pairs in flight); consulted by [`EngineTopology::Direct`] only.
    pub throttle_window: Option<usize>,
    /// Pad-to-uniform rule; consulted by `Direct` and `Bruck`.
    pub padding: PaddingRule,
    /// Intermediate staging layout; consulted by unpadded `Bruck` only.
    pub layout: IntermediateLayout,
    /// `true`: each Bruck step sends a separate 4-byte-per-block metadata
    /// message and the packed data (two-phase coupling); the metadata runs
    /// one step ahead, so a step costs one latency. `false`: one combined
    /// `[sizes][blocks]` buffer preceded by an 8-byte total-size exchange
    /// (SLOAV coupling), two latencies per step. Consulted by unpadded
    /// `Bruck` only.
    pub two_phase_split: bool,
}

/// An algorithm id is its named config point ([`EngineConfig::for_algorithm`]),
/// so anything keyed by `EngineConfig` — `bruck-model`'s traces, predictions
/// and tuner — accepts either.
impl From<AlltoallvAlgorithm> for EngineConfig {
    fn from(algo: AlltoallvAlgorithm) -> EngineConfig {
        EngineConfig::for_algorithm(algo)
    }
}

/// Canonical don't-care defaults (see [`EngineConfig`] docs).
const CANONICAL: EngineConfig = EngineConfig {
    topology: EngineTopology::Oracle,
    radix: 2,
    throttle_window: None,
    padding: PaddingRule::Never,
    layout: IntermediateLayout::Monolithic,
    two_phase_split: false,
};

impl EngineConfig {
    /// The pairwise oracle ([`AlltoallvAlgorithm::Reference`]).
    pub fn as_reference() -> EngineConfig {
        EngineConfig { topology: EngineTopology::Oracle, ..CANONICAL }
    }

    /// All pairs in flight, no padding ([`AlltoallvAlgorithm::SpreadOut`]).
    pub fn as_spread_out() -> EngineConfig {
        EngineConfig { topology: EngineTopology::Direct, ..CANONICAL }
    }

    /// Window of [`VENDOR_WINDOW`] outstanding pairs
    /// ([`AlltoallvAlgorithm::Vendor`]).
    pub fn as_vendor() -> EngineConfig {
        EngineConfig {
            topology: EngineTopology::Direct,
            throttle_window: Some(VENDOR_WINDOW),
            ..CANONICAL
        }
    }

    /// Pad → windowed direct exchange → scan
    /// ([`AlltoallvAlgorithm::PaddedAlltoall`]).
    pub fn as_padded_alltoall() -> EngineConfig {
        EngineConfig {
            topology: EngineTopology::Direct,
            throttle_window: Some(VENDOR_WINDOW),
            padding: PaddingRule::Always,
            ..CANONICAL
        }
    }

    /// Pad → radix-2 Zero Rotation Bruck, stripped on delivery
    /// ([`AlltoallvAlgorithm::PaddedBruck`]).
    pub fn as_padded_bruck() -> EngineConfig {
        EngineConfig {
            topology: EngineTopology::Bruck,
            padding: PaddingRule::Always,
            ..CANONICAL
        }
    }

    /// Coupled split metadata/data with zero-rotation routing and in-place
    /// delivery ([`AlltoallvAlgorithm::TwoPhaseBruck`]).
    pub fn as_two_phase() -> EngineConfig {
        EngineConfig {
            topology: EngineTopology::Bruck,
            layout: IntermediateLayout::Monolithic,
            two_phase_split: true,
            ..CANONICAL
        }
    }

    /// Combined buffers over a block-view pointer array
    /// ([`AlltoallvAlgorithm::Sloav`]).
    pub fn as_sloav() -> EngineConfig {
        EngineConfig {
            topology: EngineTopology::Bruck,
            layout: IntermediateLayout::BlockViews,
            two_phase_split: false,
            ..CANONICAL
        }
    }

    /// Leader-based hierarchical exchange with groups of eight
    /// ([`AlltoallvAlgorithm::Hierarchical`]).
    pub fn as_hierarchical() -> EngineConfig {
        EngineConfig {
            topology: EngineTopology::Leader { group: DEFAULT_GROUP_SIZE },
            ..CANONICAL
        }
    }

    /// Ranka et al.'s two-stage decomposition
    /// ([`AlltoallvAlgorithm::RankaTwoStage`]).
    pub fn as_ranka_two_stage() -> EngineConfig {
        EngineConfig { topology: EngineTopology::TwoStage, ..CANONICAL }
    }

    /// The named config point reproducing `algo`.
    pub fn for_algorithm(algo: AlltoallvAlgorithm) -> EngineConfig {
        match algo {
            AlltoallvAlgorithm::Reference => Self::as_reference(),
            AlltoallvAlgorithm::SpreadOut => Self::as_spread_out(),
            AlltoallvAlgorithm::Vendor => Self::as_vendor(),
            AlltoallvAlgorithm::PaddedBruck => Self::as_padded_bruck(),
            AlltoallvAlgorithm::PaddedAlltoall => Self::as_padded_alltoall(),
            AlltoallvAlgorithm::TwoPhaseBruck => Self::as_two_phase(),
            AlltoallvAlgorithm::Sloav => Self::as_sloav(),
            AlltoallvAlgorithm::Hierarchical => Self::as_hierarchical(),
            AlltoallvAlgorithm::RankaTwoStage => Self::as_ranka_two_stage(),
        }
    }

    /// Every named config point, paired with the variant it reproduces.
    pub fn named_points() -> [(EngineConfig, AlltoallvAlgorithm); 9] {
        AlltoallvAlgorithm::ALL.map(|a| (Self::for_algorithm(a), a))
    }

    /// The named algorithm this config is an exact point of, if any — only
    /// the knobs the topology actually consults participate in the match,
    /// so don't-care fields never block recognition.
    pub fn as_algorithm(&self) -> Option<AlltoallvAlgorithm> {
        match self.topology {
            EngineTopology::Oracle => Some(AlltoallvAlgorithm::Reference),
            EngineTopology::TwoStage => Some(AlltoallvAlgorithm::RankaTwoStage),
            EngineTopology::Leader { group } => {
                (group == DEFAULT_GROUP_SIZE).then_some(AlltoallvAlgorithm::Hierarchical)
            }
            EngineTopology::Direct => match (self.throttle_window, self.padding) {
                (None, PaddingRule::Never) => Some(AlltoallvAlgorithm::SpreadOut),
                (Some(VENDOR_WINDOW), PaddingRule::Never) => Some(AlltoallvAlgorithm::Vendor),
                (Some(VENDOR_WINDOW), PaddingRule::Always) => {
                    Some(AlltoallvAlgorithm::PaddedAlltoall)
                }
                _ => None,
            },
            EngineTopology::Bruck => {
                if self.radix != 2 {
                    return None;
                }
                match (self.padding, self.layout, self.two_phase_split) {
                    // The padded path ignores layout/split: any radix-2
                    // always-padded Bruck is exactly PaddedBruck.
                    (PaddingRule::Always, _, _) => Some(AlltoallvAlgorithm::PaddedBruck),
                    (PaddingRule::Never, IntermediateLayout::Monolithic, true) => {
                        Some(AlltoallvAlgorithm::TwoPhaseBruck)
                    }
                    (PaddingRule::Never, IntermediateLayout::BlockViews, false) => {
                        Some(AlltoallvAlgorithm::Sloav)
                    }
                    _ => None,
                }
            }
        }
    }

    /// Reject configs outside the knob space.
    pub fn validate(&self) -> CommResult<()> {
        if self.radix < 2 {
            return Err(CommError::BadArgument("engine radix must be at least 2"));
        }
        if self.throttle_window == Some(0) {
            return Err(CommError::BadArgument("throttle window must be at least 1"));
        }
        if let EngineTopology::Leader { group } = self.topology {
            if group == 0 {
                return Err(CommError::BadArgument("leader group must be at least 1"));
            }
        }
        Ok(())
    }

    /// Stable text key for this config — the `key` of every row of the
    /// `bruck-bench` artifact. Only knobs the topology consults appear, so
    /// the key is canonical by construction.
    pub fn key(&self) -> String {
        let pad = |p: PaddingRule| match p {
            PaddingRule::Never => "never".to_string(),
            PaddingRule::Always => "always".to_string(),
            PaddingRule::Threshold(t) => format!("le{t}"),
        };
        match self.topology {
            EngineTopology::Oracle => "oracle".to_string(),
            EngineTopology::TwoStage => "twostage".to_string(),
            EngineTopology::Leader { group } => format!("leader:g={group}"),
            EngineTopology::Direct => {
                let w = match self.throttle_window {
                    None => "none".to_string(),
                    Some(w) => w.to_string(),
                };
                format!("direct:w={w}:pad={}", pad(self.padding))
            }
            EngineTopology::Bruck => {
                let layout = match self.layout {
                    IntermediateLayout::Monolithic => "mono",
                    IntermediateLayout::BlockViews => "views",
                };
                let split = if self.two_phase_split { "meta" } else { "combined" };
                format!(
                    "bruck:r={}:layout={layout}:split={split}:pad={}",
                    self.radix,
                    pad(self.padding)
                )
            }
        }
    }

    /// Parse a [`EngineConfig::key`] string back into a (canonical) config.
    /// Errors name the offending token.
    pub fn parse_key(s: &str) -> Result<EngineConfig, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let parse_pad = |v: &str| -> Result<PaddingRule, String> {
            match v {
                "never" => Ok(PaddingRule::Never),
                "always" => Ok(PaddingRule::Always),
                t if t.starts_with("le") => t[2..]
                    .parse()
                    .map(PaddingRule::Threshold)
                    .map_err(|_| format!("bad padding threshold in {t:?}")),
                other => Err(format!("unknown padding rule {other:?}")),
            }
        };
        let mut cfg = match head {
            "oracle" => EngineConfig::as_reference(),
            "twostage" => EngineConfig::as_ranka_two_stage(),
            "leader" => {
                EngineConfig { topology: EngineTopology::Leader { group: 0 }, ..CANONICAL }
            }
            "direct" => EngineConfig { topology: EngineTopology::Direct, ..CANONICAL },
            "bruck" => EngineConfig { topology: EngineTopology::Bruck, ..CANONICAL },
            other => return Err(format!("unknown engine topology {other:?}")),
        };
        for tok in parts {
            let (k, v) = tok.split_once('=').ok_or_else(|| format!("bad token {tok:?}"))?;
            match (head, k) {
                ("leader", "g") => {
                    let group =
                        v.parse().map_err(|_| format!("bad leader group {v:?}"))?;
                    cfg.topology = EngineTopology::Leader { group };
                }
                ("direct", "w") => {
                    cfg.throttle_window = if v == "none" {
                        None
                    } else {
                        Some(v.parse().map_err(|_| format!("bad window {v:?}"))?)
                    };
                }
                ("direct", "pad") | ("bruck", "pad") => cfg.padding = parse_pad(v)?,
                ("bruck", "r") => {
                    cfg.radix = v.parse().map_err(|_| format!("bad radix {v:?}"))?;
                }
                ("bruck", "layout") => {
                    cfg.layout = match v {
                        "mono" => IntermediateLayout::Monolithic,
                        "views" => IntermediateLayout::BlockViews,
                        other => return Err(format!("unknown layout {other:?}")),
                    };
                }
                ("bruck", "split") => {
                    cfg.two_phase_split = match v {
                        "meta" => true,
                        "combined" => false,
                        other => return Err(format!("unknown split mode {other:?}")),
                    };
                }
                _ => return Err(format!("unknown key {k:?} for topology {head:?}")),
            }
        }
        if let EngineTopology::Leader { group: 0 } = cfg.topology {
            return Err("leader config requires g=<group>".to_string());
        }
        Ok(cfg)
    }
}

/// The engine entry (same contract as `MPI_Alltoallv`): run the exchange
/// `cfg` describes. Named points and off-point configs take the same path.
#[allow(clippy::too_many_arguments)]
pub fn configurable_alltoallv<C: Communicator + ?Sized>(
    comm: &C,
    cfg: &EngineConfig,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &mut [u8],
    recvcounts: &[usize],
    rdispls: &[usize],
) -> CommResult<()> {
    cfg.validate()?;
    match cfg.topology {
        EngineTopology::Oracle => {
            reference_alltoallv(comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls)
        }
        EngineTopology::TwoStage => ranka_two_stage_alltoallv(
            comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls,
        ),
        EngineTopology::Leader { group } => hierarchical_alltoallv(
            comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls, group,
        ),
        EngineTopology::Direct | EngineTopology::Bruck => direct_or_bruck(
            comm, cfg, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls,
        ),
    }
}

/// The engine for a caller that knows only its send side: run the exchange
/// `cfg` describes and return the received blocks packed in source order,
/// with the `recvcounts` they came in.
///
/// Unpadded `Direct` and `Bruck` configs learn every count from the
/// exchange's own wire, at no extra message; every other config runs one
/// uniform Zero Rotation Bruck exchange of the counts first (module docs).
///
/// Consecutive calls on one communicator must alternate `odd_round`: the
/// odd calls run on a tag block disjoint from the even ones', so a call's
/// messages can only be confused with those of the call two back, and the
/// call in between — every rank hears from every rank — orders the two.
pub fn alltoallv_discover<C: Communicator + ?Sized>(
    comm: &C,
    cfg: &EngineConfig,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    odd_round: bool,
) -> CommResult<(Vec<u8>, Vec<usize>)> {
    if odd_round {
        discover(&OddRound(comm), cfg, sendbuf, sendcounts, sdispls)
    } else {
        discover(comm, cfg, sendbuf, sendcounts, sdispls)
    }
}

fn discover<C: Communicator + ?Sized>(
    comm: &C,
    cfg: &EngineConfig,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
) -> CommResult<(Vec<u8>, Vec<usize>)> {
    cfg.validate()?;
    let p = validate_send(comm, sendbuf, sendcounts, sdispls)?;
    let (mut buf, mut counts) = (Vec::new(), Vec::new());
    let recv = Recv::Packed { buf: &mut buf, counts: &mut counts };
    match (cfg.topology, cfg.padding) {
        (EngineTopology::Direct, PaddingRule::Never) => {
            direct_exchange(comm, cfg.throttle_window, sendbuf, sendcounts, sdispls, recv)?;
        }
        (EngineTopology::Bruck, PaddingRule::Never) => {
            bruck_unpadded(comm, cfg, p, sendbuf, sendcounts, sdispls, recv)?;
        }
        _ => return counts_then_alltoallv(comm, cfg, sendbuf, sendcounts, sdispls),
    }
    Ok((buf, counts))
}

/// [`alltoallv_discover`] for the configs whose loops cannot learn a length
/// from their own wire: a uniform Zero Rotation Bruck exchange of 8-byte
/// counts, then the `alltoallv`.
fn counts_then_alltoallv<C: Communicator + ?Sized>(
    comm: &C,
    cfg: &EngineConfig,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
) -> CommResult<(Vec<u8>, Vec<usize>)> {
    let mine: Vec<u8> = sendcounts.iter().flat_map(|&c| (c as u64).to_le_bytes()).collect();
    let mut theirs = vec![0u8; mine.len()];
    zero_rotation_bruck_radix(comm, &mine, &mut theirs, 8, 2)?;
    let word = |w: &[u8]| u64::from_le_bytes(std::array::from_fn(|b| w[b]));
    let counts: Vec<usize> = theirs.chunks_exact(8).map(|w| word(w) as usize).collect();
    let total = counts.iter().try_fold(0usize, |sum, &c| sum.checked_add(c));
    let mut buf = vec![0u8; total.ok_or(CommError::BadArgument("recvcounts overflow"))?];
    let rdispls = packed_displs(&counts);
    configurable_alltoallv(comm, cfg, sendbuf, sendcounts, sdispls, &mut buf, &counts, &rdispls)?;
    Ok((buf, counts))
}

/// The tag bit of [`alltoallv_discover`]'s odd rounds: above every engine
/// tag, below `SubComm`'s context bits.
const ODD_ROUND_TAG: Tag = 1 << 23;

/// A communicator whose algorithm tags carry [`ODD_ROUND_TAG`]: the odd
/// rounds' tag block. Reserved tags (the built-in collectives, which rely on
/// non-overtaking by contract) pass through.
struct OddRound<'a, C: ?Sized>(&'a C);

impl<C: Communicator + ?Sized> OddRound<'_, C> {
    #[inline]
    fn tag(tag: Tag) -> Tag {
        if tag < RESERVED_TAG_BASE {
            tag | ODD_ROUND_TAG
        } else {
            tag
        }
    }
}

impl<C: Communicator + ?Sized> Communicator for OddRound<'_, C> {
    #[inline]
    fn rank(&self) -> usize {
        self.0.rank()
    }

    #[inline]
    fn size(&self) -> usize {
        self.0.size()
    }

    #[inline]
    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        self.0.send_buf(dest, Self::tag(tag), buf)
    }

    #[inline]
    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> CommResult<MsgBuf> {
        self.0.recv_match(src, Self::tag(tag), max_len, timeout)
    }

    #[inline]
    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        self.0.probe(src, Self::tag(tag))
    }

    #[inline]
    fn now(&self) -> Duration {
        self.0.now()
    }

    #[inline]
    fn sleep(&self, d: Duration) {
        self.0.sleep(d)
    }

    #[inline]
    fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
        self.0.wait_arrival(seen, timeout)
    }
}

/// Global maximum block size (one allreduce) — the `N` of the paper. Only a
/// padding rule asks for it.
fn global_n_max<C: Communicator + ?Sized>(comm: &C, sendcounts: &[usize]) -> CommResult<usize> {
    let _probe = span("padded.allreduce");
    let local_max = sendcounts.iter().copied().max().unwrap_or(0);
    Ok(comm.allreduce_u64(local_max as u64, ReduceOp::Max)? as usize)
}

/// The `Direct` and `Bruck` topologies: validate once, find `N` if the padding
/// rule wants it, then either the padded uniform exchange or the exact-size
/// exchange.
///
/// The three loops this chooses between are `#[inline(never)]`: `EventComm`
/// suspends a rank by unwinding, the unwinder's work per frame grows with the
/// frame's call-site table, and one merged function measured ~3 % slower per
/// exchange (P = 256, 64 B blocks) than one small frame per loop.
#[allow(clippy::too_many_arguments)]
fn direct_or_bruck<C: Communicator + ?Sized>(
    comm: &C,
    cfg: &EngineConfig,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &mut [u8],
    recvcounts: &[usize],
    rdispls: &[usize],
) -> CommResult<()> {
    let p = validate_v(comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls)?;

    if cfg.padding != PaddingRule::Never {
        let n = global_n_max(comm, sendcounts)?;
        if cfg.padding.fires(n) {
            return padded_exchange(
                comm, cfg, p, n, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls,
            );
        }
    } else if cfg.topology == EngineTopology::Bruck
        && cfg.layout == IntermediateLayout::Monolithic
    {
        // Where two-phase Bruck's sizing allreduce used to run. The frozen
        // `benchmark/` reads a `nonuniform.two_phase.allreduce_us` row off
        // this span and panics without a sample, so an empty marker stays
        // until that row is dropped (ROADMAP item 1d); it times nothing.
        drop(span("two_phase.allreduce"));
    }

    let recv = Recv::Placed { buf: recvbuf, counts: recvcounts, displs: rdispls };
    if cfg.topology == EngineTopology::Direct {
        direct_exchange(comm, cfg.throttle_window, sendbuf, sendcounts, sdispls, recv)
    } else {
        bruck_unpadded(comm, cfg, p, sendbuf, sendcounts, sdispls, recv)
    }
}

/// Where a loop puts the blocks it receives.
enum Recv<'a> {
    /// `alltoallv`'s receive side: the block from `src` is `counts[src]`
    /// bytes at `buf[displs[src]..]`.
    Placed { buf: &'a mut [u8], counts: &'a [usize], displs: &'a [usize] },
    /// [`alltoallv_discover`]'s: every block's length comes off the wire, and
    /// the blocks are packed into `buf` in source order once all are in,
    /// their lengths into `counts`.
    Packed { buf: &'a mut Vec<u8>, counts: &'a mut Vec<usize> },
}

/// Pack `blocks` (indexed by source) into `buf` and their lengths into
/// `counts`: the end of a [`Recv::Packed`] exchange.
fn pack_by_source(blocks: &[&[u8]], buf: &mut Vec<u8>, counts: &mut Vec<usize>) {
    *counts = blocks.iter().map(|b| b.len()).collect();
    *buf = blocks.concat();
}

/// The §3.1 padded family: every block travels as an `n`-byte slot (`n` = the
/// global maximum), moved by the topology's uniform exchange, and only each
/// block's `recvcounts[src]` real bytes reach `recvbuf`.
///
/// * `Direct` — windowed pairwise into a `P × n` receive image, then a scan
///   strips the padding (`direct_exchange` receives into one buffer).
/// * `Bruck` — radix-`r` Zero Rotation Bruck, whose delivery closure strips
///   each block as the sub-step that finishes it receives it, straight from
///   the wire into `recvbuf`: no receive image, no scan. `padded.scan` then
///   brackets only the self block's copy.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn padded_exchange<C: Communicator + ?Sized>(
    comm: &C,
    cfg: &EngineConfig,
    p: usize,
    n: usize,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &mut [u8],
    recvcounts: &[usize],
    rdispls: &[usize],
) -> CommResult<()> {
    if n == 0 {
        return Ok(()); // nothing anywhere (all blocks empty)
    }
    if recvcounts.iter().any(|&want| want > n) {
        return Err(CommError::BadArgument("recvcounts exceed the global maximum block size"));
    }
    let mut padded_send = vec![0u8; p * n];
    {
        let _probe = span("padded.pad");
        for dst in 0..p {
            let d = sdispls[dst];
            padded_send[dst * n..dst * n + sendcounts[dst]]
                .copy_from_slice(&sendbuf[d..d + sendcounts[dst]]);
        }
    }
    if cfg.topology == EngineTopology::Bruck {
        {
            let _probe = span("padded.exchange");
            zero_rotation_bruck_deliver(comm, &padded_send, n, cfg.radix, |src, slot| {
                let want = recvcounts[src];
                recvbuf[rdispls[src]..rdispls[src] + want].copy_from_slice(&slot[..want]);
            })?;
        }
        let _probe = span("padded.scan");
        let me = comm.rank();
        let want = recvcounts[me];
        recvbuf[rdispls[me]..rdispls[me] + want]
            .copy_from_slice(&padded_send[me * n..me * n + want]);
        return Ok(());
    }
    let mut padded_recv = vec![0u8; p * n];
    {
        let _probe = span("padded.exchange");
        // The padded region is the packed send buffer: every message is a
        // disjoint slice of it.
        let counts = vec![n; p];
        let displs: Vec<usize> = (0..p).map(|i| i * n).collect();
        let recv = Recv::Placed { buf: &mut padded_recv, counts: &counts, displs: &displs };
        direct_exchange(comm, cfg.throttle_window, padded_send, &counts, &displs, recv)?;
    }
    let _probe = span("padded.scan");
    for src in 0..p {
        let want = recvcounts[src];
        recvbuf[rdispls[src]..rdispls[src] + want]
            .copy_from_slice(&padded_recv[src * n..src * n + want]);
    }
    Ok(())
}

/// Direct (pairwise) exchange: every block travels exactly once, posted with
/// `MPI_Isend` semantics to `me + i` and drained from `me − i` at round `i`.
/// `window` throttles the `P − 1` rounds into batches of that many
/// outstanding pairs (MPICH's `MPI_Alltoallv`); `None` posts every send, then
/// drains every receive (§4.1's `Spread-out`).
///
/// Zero-copy send path: `sendbuf` becomes one shared region (a copy of the
/// user's buffer, or the padded buffer moved in) and the in-flight messages
/// are disjoint slices of it, so posting a send allocates and copies nothing.
/// A [`Recv::Packed`] exchange keeps each received message as it arrived and
/// reads its length; the one copy per block is the final pack.
#[inline(never)]
fn direct_exchange<C: Communicator + ?Sized>(
    comm: &C,
    window: Option<usize>,
    sendbuf: impl Into<MsgBuf>,
    sendcounts: &[usize],
    sdispls: &[usize],
    mut recv: Recv<'_>,
) -> CommResult<()> {
    let p = comm.size();
    let me = comm.rank();
    let packed: MsgBuf = sendbuf.into(); // the one pack copy
    let own = sdispls[me]..sdispls[me] + sendcounts[me];

    // Packed mode: every block by source, the own one included.
    let mut arrived: Vec<MsgBuf> = Vec::new();
    match &mut recv {
        Recv::Placed { buf, counts, displs } => {
            buf[displs[me]..displs[me] + counts[me]].copy_from_slice(&packed[own]);
        }
        Recv::Packed { .. } => {
            arrived = vec![MsgBuf::new(); p];
            arrived[me] = packed.slice(own);
        }
    }

    let batch = window.unwrap_or(p).max(1);
    let mut next = 1usize;
    while next < p {
        let _window = window.map(|_| span("vendor.window"));
        let batch_end = next.saturating_add(batch).min(p);
        {
            let _send = window.is_none().then(|| span("spread_out.send"));
            for i in next..batch_end {
                let dest = add_mod(me, i, p);
                comm.isend_buf(
                    dest,
                    SPREAD_TAG,
                    packed.slice(sdispls[dest]..sdispls[dest] + sendcounts[dest]),
                )?;
            }
        }
        let _recv = window.is_none().then(|| span("spread_out.recv"));
        for i in next..batch_end {
            let src = sub_mod(me, i, p);
            match &mut recv {
                Recv::Placed { buf, counts, displs } => {
                    let into = &mut buf[displs[src]..displs[src] + counts[src]];
                    let n = comm.recv_into(src, SPREAD_TAG, into)?;
                    debug_assert_eq!(n, counts[src], "peer sent unexpected block size");
                }
                Recv::Packed { .. } => arrived[src] = comm.recv_buf(src, SPREAD_TAG)?,
            }
        }
        next = batch_end;
    }
    if let Recv::Packed { buf, counts } = recv {
        let blocks: Vec<&[u8]> = arrived.iter().map(MsgBuf::as_slice).collect();
        pack_by_source(&blocks, buf, counts);
    }
    Ok(())
}

/// Probe span names of one unpadded Bruck step; the layout picks the family.
struct StepSpans {
    meta: &'static str,
    pack: &'static str,
    data: &'static str,
    scatter: &'static str,
}

const TWO_PHASE_SPANS: StepSpans = StepSpans {
    meta: "two_phase.meta",
    pack: "two_phase.pack",
    data: "two_phase.data",
    scatter: "two_phase.scatter",
};

const SLOAV_SPANS: StepSpans = StepSpans {
    meta: "sloav.meta",
    pack: "sloav.pack",
    data: "sloav.data",
    scatter: "sloav.scatter",
};

/// One sub-step of the unpadded Bruck schedule as this rank sees it.
struct Hop {
    /// Schedule index: the wire-tag offset of the sub-step's two messages.
    idx: u32,
    dest: usize,
    src: usize,
    /// Relative indices of the blocks on the wire, ascending.
    rel: Vec<usize>,
    /// A received block whose relative index is below this needs no further
    /// hop: every digit above the sub-step's position is zero.
    done_bound: usize,
}

/// The 4-byte-per-block size array announcing `hop`'s outgoing blocks.
fn size_array(hop: &Hop, sizes: &[usize]) -> CommResult<Vec<u8>> {
    let mut array = Vec::with_capacity(hop.rel.len() * 4);
    for &i in &hop.rel {
        let sz = u32::try_from(sizes[i])
            .map_err(|_| CommError::BadArgument("block size exceeds u32 metadata"))?;
        array.extend_from_slice(&sz.to_le_bytes());
    }
    Ok(array)
}

/// Post the size array announcing `hop`'s outgoing blocks (split coupling).
fn post_sizes<C: Communicator + ?Sized>(comm: &C, hop: &Hop, sizes: &[usize]) -> CommResult<()> {
    comm.isend_buf(hop.dest, meta_tag(hop.idx), MsgBuf::from_vec(size_array(hop, sizes)?))
}

/// The coupled metadata + data exchange of one unpadded Bruck sub-step.
/// `sizes[i]` for `i` in `hop.rel` are the byte sizes of the outgoing blocks,
/// in wire order; `pack` appends their payload.
///
/// * Split coupling (§3.2), with the metadata chain one sub-step ahead of the
///   data chain: the caller has already sent this sub-step's size array
///   (`next`'s is sent here), so the packed payload leaves first, the size
///   array from `src` is usually waiting, and the only latency left is the
///   payload's. That is sound because a data message needs no metadata to be
///   *sent*, and every size `next` announces is known once this sub-step's
///   metadata is in: a block sent at `next` is an original one or was last
///   overwritten no later than here.
/// * Combined coupling (SLOAV, §6.1): the body is `[sizes][payload]`, packed
///   up front, preceded by an 8-byte message announcing its total length.
///   That length depends on sizes carried inside the previous body, so it
///   cannot run ahead: two latencies per sub-step.
///
/// Either way the body is received with `max_len` = the length announced for
/// it. On return `sizes[i]` are the *received* blocks' sizes, and the result
/// is the received body plus the offset its payload starts at; the payload
/// length has been checked against the sizes.
fn coupled_step<C: Communicator + ?Sized>(
    comm: &C,
    split: bool,
    spans: &StepSpans,
    hop: &Hop,
    next: Option<&Hop>,
    sizes: &mut [usize],
    pack: impl Fn(&mut Vec<u8>, &[usize]),
) -> CommResult<(MsgBuf, usize)> {
    let (idx, dest, src) = (hop.idx, hop.dest, hop.src);
    let meta_len = hop.rel.len() * 4;
    // Sized up front, the body is packed without a reallocation.
    let outgoing: usize = hop.rel.iter().map(|&i| sizes[i]).sum();
    // Read the size array of the incoming blocks; returns their total.
    let read_sizes = |sizes: &mut [usize], array: &[u8]| -> usize {
        let mut total = 0;
        for (&i, sz) in hop.rel.iter().zip(array.chunks_exact(4)) {
            sizes[i] = u32::from_le_bytes([sz[0], sz[1], sz[2], sz[3]]) as usize;
            total += sizes[i];
        }
        total
    };

    // The wire buffers are handed to the transport as `MsgBuf`s: the per-step
    // pack is the only copy, the send itself moves the region.
    let (data, base, payload) = if split {
        {
            let _probe = span(spans.pack);
            let mut body = Vec::with_capacity(outgoing);
            pack(&mut body, sizes);
            comm.isend_buf(dest, data_tag(idx), MsgBuf::from_vec(body))?;
        }
        let payload = {
            let _probe = span(spans.meta);
            let array = comm.recv_buf(src, meta_tag(idx))?;
            if array.len() != meta_len {
                return Err(CommError::BadArgument("metadata length mismatch"));
            }
            let payload = read_sizes(sizes, &array);
            if let Some(next) = next {
                post_sizes(comm, next, sizes)?;
            }
            payload
        };
        let _probe = span(spans.data);
        (comm.recv_match(src, data_tag(idx), payload, Duration::MAX)?, 0, payload)
    } else {
        let body = {
            let _probe = span(spans.pack);
            let mut body = size_array(hop, sizes)?;
            body.reserve_exact(outgoing);
            pack(&mut body, sizes);
            body
        };
        let header = {
            let _probe = span(spans.meta);
            let announce = (body.len() as u64).to_le_bytes().to_vec();
            comm.sendrecv_buf(dest, meta_tag(idx), MsgBuf::from_vec(announce), src, meta_tag(idx))?
        };
        let announced = u64::from_le_bytes(
            header.as_slice().try_into().map_err(|_| CommError::BadArgument("bad size header"))?,
        );
        let announced = usize::try_from(announced).unwrap_or(usize::MAX);
        let data = {
            let _probe = span(spans.data);
            comm.isend_buf(dest, data_tag(idx), MsgBuf::from_vec(body))?;
            comm.recv_match(src, data_tag(idx), announced, Duration::MAX)?
        };
        if data.len() != announced || data.len() < meta_len {
            return Err(CommError::BadArgument("combined buffer length mismatch"));
        }
        let payload = read_sizes(sizes, &data[..meta_len]);
        (data, meta_len, payload)
    };
    if base + payload != data.len() {
        return Err(CommError::BadArgument("data payload length mismatch"));
    }
    Ok((data, base))
}

/// The unpadded non-uniform radix Bruck loop. Every sub-step's receive region
/// is kept (`regions`) and `held[i]` says where in them the block at relative
/// index `i` arrived — `(region, offset)`, its size in `sizes[i]` — so
/// store-and-forward needs no working buffer, no staging copy and no bound on
/// block sizes; until a sub-step delivers it the block is still the original
/// one in the user's send buffer. (A reference-counted `MsgBuf::slice` per
/// block is the same idea and measured 10–20 % slower at small blocks: the
/// count moves twice per block per step, again on every `EventComm` replay.)
///
/// The layout picks the routing and the delivery:
///
/// * `Monolithic` — two-phase Bruck's §3.2 / §6.1 design. Routing is Zero
///   Rotation Bruck's: blocks hop *downward*, relative index `i` at rank `p`
///   starts as the send-buffer block for rank `p − i` and ends as the block
///   from rank `p + i`; a block whose relative index is exhausted is copied
///   from the wire straight into its final position — no rotation, no scan.
/// * `BlockViews` — SLOAV's (Xu et al.) two-layer layout, kept faithful to
///   the structure §6.1 criticizes so the ablation can price it: blocks hop
///   *upward* in basic-Bruck direction, every received block goes into the
///   pointer array, and a final scan copies all of them home.
///
/// A [`Recv::Packed`] exchange holds every block where it arrived in either
/// layout, reads its size off the size array that carried it, and packs all
/// of them once the last one is in: where a block lands depends on every
/// size before it.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn bruck_unpadded<C: Communicator + ?Sized>(
    comm: &C,
    cfg: &EngineConfig,
    p: usize,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    mut recv: Recv<'_>,
) -> CommResult<()> {
    let me = comm.rank();
    let (downward, spans) = match cfg.layout {
        IntermediateLayout::Monolithic => (true, &TWO_PHASE_SPANS),
        IntermediateLayout::BlockViews => (false, &SLOAV_SPANS),
    };
    // The rank `i` hops along the routing direction, and the one `i` against.
    let ahead = |i: usize| if downward { sub_mod(me, i, p) } else { add_mod(me, i, p) };
    let behind = |i: usize| if downward { add_mod(me, i, p) } else { sub_mod(me, i, p) };
    let own = sdispls[me]..sdispls[me] + sendcounts[me];

    // Self block: never communicated (relative index 0).
    if let Recv::Placed { buf, counts, displs } = &mut recv {
        buf[displs[me]..displs[me] + counts[me]].copy_from_slice(&sendbuf[own.clone()]);
    }

    let mut regions: Vec<MsgBuf> = Vec::new();
    let mut held: Vec<Option<(usize, usize)>> = vec![None; p];
    let mut sizes: Vec<usize> = (0..p).map(|i| sendcounts[ahead(i)]).collect();

    // Built one sub-step ahead of the loop: the split coupling announces
    // the next sub-step's sizes while this one's data is in flight.
    let mut hops = radix_schedule(p, cfg.radix)
        .into_iter()
        .map(|(idx, weight, d)| {
            let hop = d * weight; // < P by construction of the schedule
            let mut rel = Vec::new();
            radix_step_rel_indices(p, weight, d, cfg.radix, &mut rel);
            let done_bound = weight.saturating_mul(cfg.radix);
            Hop { idx, dest: ahead(hop), src: behind(hop), rel, done_bound }
        })
        .peekable();

    if let (true, Some(first)) = (cfg.two_phase_split, hops.peek()) {
        // Prologue of the split coupling: the metadata chain's head start.
        post_sizes(comm, first, &sizes)?;
    }
    while let Some(hop) = hops.next() {
        let (got, base) = coupled_step(
            comm,
            cfg.two_phase_split,
            spans,
            &hop,
            hops.peek(),
            &mut sizes,
            |wire, sizes| {
                for &i in &hop.rel {
                    match held[i] {
                        Some((r, at)) => wire.extend_from_slice(&regions[r][at..at + sizes[i]]),
                        None => {
                            let dd = sdispls[ahead(i)];
                            wire.extend_from_slice(&sendbuf[dd..dd + sizes[i]]);
                        }
                    }
                }
            },
        )?;

        let _probe = span(spans.scatter);
        let mut at = base;
        for &i in &hop.rel {
            let sz = sizes[i];
            match &mut recv {
                Recv::Placed { buf, counts, displs } if downward && i < hop.done_bound => {
                    let from = behind(i);
                    debug_assert_eq!(sz, counts[from], "recvcounts disagrees with routed size");
                    buf[displs[from]..displs[from] + sz].copy_from_slice(&got[at..at + sz]);
                }
                _ => held[i] = Some((regions.len(), at)),
            }
            at += sz;
        }
        regions.push(got);
    }

    match recv {
        Recv::Placed { .. } if downward => {}
        // Final scan (+ implicit rotation): the block at offset i came from
        // rank (me − i) mod P. Only the self block (offset 0) never travels.
        Recv::Placed { buf, counts, displs } => {
            let _probe = span("sloav.scan");
            for (i, block) in held.iter().enumerate() {
                let Some((r, at)) = *block else { continue };
                let from = behind(i);
                debug_assert_eq!(sizes[i], counts[from], "routed size disagrees with recvcounts");
                buf[displs[from]..displs[from] + counts[from]]
                    .copy_from_slice(&regions[r][at..at + sizes[i]]);
            }
        }
        // The per-step delivery copies of the placed mode, made here.
        Recv::Packed { buf, counts } => {
            let _probe = span(spans.scatter);
            let mut blocks: Vec<&[u8]> = vec![&[]; p];
            blocks[me] = &sendbuf[own];
            for (i, block) in held.iter().enumerate() {
                let Some((r, at)) = *block else { continue };
                blocks[behind(i)] = &regions[r][at..at + sizes[i]];
            }
            pack_by_source(&blocks, buf, counts);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{build_send, check_recv, run_and_check_config, TEST_SIZES};
    use super::*;
    use crate::packed_displs;
    use bruck_comm::{MeteredComm, SimComm, ThreadComm};
    use bruck_workload::{Distribution, SizeMatrix};

    #[test]
    fn named_points_round_trip_to_their_algorithms() {
        for (cfg, algo) in EngineConfig::named_points() {
            assert_eq!(cfg.as_algorithm(), Some(algo), "{}", cfg.key());
            assert_eq!(EngineConfig::for_algorithm(algo), cfg);
        }
    }

    #[test]
    fn dont_care_knobs_never_block_recognition() {
        // A direct config with a non-default radix is still spread-out.
        let mut cfg = EngineConfig::as_spread_out();
        cfg.radix = 7;
        cfg.two_phase_split = true;
        assert_eq!(cfg.as_algorithm(), Some(AlltoallvAlgorithm::SpreadOut));
        // Padded Bruck ignores layout and split.
        let mut cfg = EngineConfig::as_padded_bruck();
        cfg.layout = IntermediateLayout::BlockViews;
        cfg.two_phase_split = true;
        assert_eq!(cfg.as_algorithm(), Some(AlltoallvAlgorithm::PaddedBruck));
    }

    #[test]
    fn off_points_are_not_recognized() {
        for cfg in [
            EngineConfig { radix: 4, ..EngineConfig::as_two_phase() },
            EngineConfig {
                throttle_window: Some(8),
                ..EngineConfig::as_spread_out()
            },
            EngineConfig {
                padding: PaddingRule::Threshold(64),
                ..EngineConfig::as_padded_bruck()
            },
            EngineConfig { two_phase_split: false, ..EngineConfig::as_two_phase() },
            EngineConfig { two_phase_split: true, ..EngineConfig::as_sloav() },
            EngineConfig {
                topology: EngineTopology::Leader { group: 3 },
                ..CANONICAL
            },
        ] {
            assert_eq!(cfg.as_algorithm(), None, "{}", cfg.key());
        }
    }

    #[test]
    fn key_round_trips_for_named_and_general_points() {
        let mut configs: Vec<EngineConfig> =
            EngineConfig::named_points().iter().map(|(c, _)| *c).collect();
        configs.extend([
            EngineConfig { radix: 4, ..EngineConfig::as_two_phase() },
            EngineConfig { radix: 3, ..EngineConfig::as_sloav() },
            EngineConfig { radix: 5, ..EngineConfig::as_padded_bruck() },
            EngineConfig {
                throttle_window: Some(8),
                padding: PaddingRule::Threshold(64),
                ..EngineConfig::as_spread_out()
            },
            EngineConfig {
                topology: EngineTopology::Leader { group: 4 },
                ..CANONICAL
            },
            EngineConfig { two_phase_split: false, ..EngineConfig::as_two_phase() },
            EngineConfig { two_phase_split: true, ..EngineConfig::as_sloav() },
        ]);
        for cfg in configs {
            let key = cfg.key();
            let parsed = EngineConfig::parse_key(&key)
                .unwrap_or_else(|e| panic!("{key}: {e}"));
            assert_eq!(parsed.key(), key);
            assert_eq!(parsed.as_algorithm(), cfg.as_algorithm(), "{key}");
        }
    }

    #[test]
    fn parse_key_rejects_malformed_keys() {
        for bad in [
            "frobnicate",
            "bruck:r=x",
            "bruck:radix=2",
            "direct:w=0x10",
            "leader",
            "leader:g=zero",
            "bruck:layout=circular",
            "bruck:split=maybe",
            "direct:pad=le",
        ] {
            assert!(EngineConfig::parse_key(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn validate_rejects_degenerate_knobs() {
        assert!(EngineConfig { radix: 1, ..EngineConfig::as_two_phase() }.validate().is_err());
        assert!(EngineConfig {
            throttle_window: Some(0),
            ..EngineConfig::as_spread_out()
        }
        .validate()
        .is_err());
        assert!(EngineConfig {
            topology: EngineTopology::Leader { group: 0 },
            ..CANONICAL
        }
        .validate()
        .is_err());
    }

    #[test]
    fn correct_across_the_product_space() {
        // Off-point combos: new radices, windows, couplings, and the
        // threshold padding rule on both sides of the threshold.
        let m = SizeMatrix::generate(Distribution::Normal, 0x5EED, 8, 32);
        for cfg in [
            EngineConfig { radix: 3, ..EngineConfig::as_two_phase() },
            EngineConfig { radix: 8, ..EngineConfig::as_two_phase() },
            EngineConfig { radix: 4, ..EngineConfig::as_sloav() },
            EngineConfig { radix: 3, ..EngineConfig::as_padded_bruck() },
            EngineConfig { two_phase_split: false, ..EngineConfig::as_two_phase() },
            EngineConfig { two_phase_split: true, ..EngineConfig::as_sloav() },
            EngineConfig { throttle_window: Some(2), ..EngineConfig::as_spread_out() },
            EngineConfig { throttle_window: None, ..EngineConfig::as_padded_alltoall() },
            EngineConfig {
                padding: PaddingRule::Threshold(1_000_000),
                ..EngineConfig::as_two_phase()
            },
            EngineConfig {
                padding: PaddingRule::Threshold(1),
                ..EngineConfig::as_two_phase()
            },
            EngineConfig {
                topology: EngineTopology::Leader { group: 3 },
                ..CANONICAL
            },
        ] {
            run_and_check_config(&cfg, &m);
        }
    }

    #[test]
    fn off_point_configs_survive_every_world_size() {
        for p in TEST_SIZES {
            let m = SizeMatrix::generate(Distribution::Uniform, 0xC0DE + p as u64, p, 24);
            run_and_check_config(&EngineConfig { radix: 3, ..EngineConfig::as_two_phase() }, &m);
            run_and_check_config(
                &EngineConfig { two_phase_split: true, ..EngineConfig::as_sloav() },
                &m,
            );
        }
    }

    #[test]
    fn zero_blocks_and_skew_survive_off_point_configs() {
        let zero = SizeMatrix::uniform(6, 0);
        let mut rows = vec![vec![0usize; 9]; 9];
        rows[1][6] = 100;
        rows[4][4] = 7;
        rows[8][0] = 1;
        let skew = SizeMatrix::from_rows(rows);
        for m in [&zero, &skew] {
            for cfg in [
                EngineConfig { radix: 3, ..EngineConfig::as_two_phase() },
                EngineConfig { two_phase_split: false, ..EngineConfig::as_two_phase() },
                EngineConfig { two_phase_split: true, ..EngineConfig::as_sloav() },
                EngineConfig { throttle_window: Some(2), ..EngineConfig::as_spread_out() },
            ] {
                run_and_check_config(&cfg, m);
            }
        }
    }

    #[test]
    fn padded_bruck_writes_only_the_real_bytes_into_gapped_receive_blocks() {
        // Every receive block is followed by a poison-filled gap shorter than
        // the padding, so a delivery that wrote a whole `N`-byte slot instead
        // of `recvcounts[src]` bytes would overwrite poison with padding. The
        // buffer ends in `N` more poison bytes: such a delivery stays in
        // bounds, every rank finishes, and the gap check reports it.
        const POISON: u8 = 0xA5;
        const GAP: usize = 3;
        const N: usize = 40;
        // Blocks of 0–16 bytes and one of `N` that sets the slot size.
        let mut rows: Vec<Vec<usize>> =
            (0..7).map(|s| (0..7).map(|d| (5 * s + 3 * d) % 17).collect()).collect();
        rows[0][1] = N;
        let m = SizeMatrix::from_rows(rows);
        let run = |comm: &dyn Communicator| {
            let me = comm.rank();
            let (sendbuf, sendcounts, sdispls) = build_send(me, &m);
            let recvcounts = m.recvcounts(me);
            let mut rdispls = Vec::with_capacity(m.p());
            let mut end = 0;
            for &c in &recvcounts {
                rdispls.push(end);
                end += c + GAP;
            }
            let mut recvbuf = vec![POISON; end + N];
            configurable_alltoallv(
                comm,
                &EngineConfig::as_padded_bruck(),
                &sendbuf,
                &sendcounts,
                &sdispls,
                &mut recvbuf,
                &recvcounts,
                &rdispls,
            )
            .unwrap();
            check_recv(me, &m, &recvbuf, &rdispls);
            for (src, (&at, &c)) in rdispls.iter().zip(&recvcounts).enumerate() {
                assert_eq!(recvbuf[at + c..at + c + GAP], [POISON; GAP], "gap after block {src}");
            }
        };
        ThreadComm::run(m.p(), |comm| run(comm));
        for seed in [1, 7] {
            SimComm::run(m.p(), seed, |comm| run(comm));
        }
    }

    #[test]
    fn a_recvcount_above_the_slot_size_is_a_typed_error() {
        // A receive block larger than any block sent cannot be filled from
        // an `N`-byte slot: both padded topologies refuse it before sending.
        for cfg in [EngineConfig::as_padded_bruck(), EngineConfig::as_padded_alltoall()] {
            let got = ThreadComm::run(1, |comm| {
                let mut recvbuf = [0u8; 3];
                configurable_alltoallv(comm, &cfg, &[7, 7], &[2], &[0], &mut recvbuf, &[3], &[0])
            });
            assert_eq!(
                got,
                [Err(CommError::BadArgument("recvcounts exceed the global maximum block size"))],
                "{}",
                cfg.key()
            );
        }
    }

    #[test]
    fn threshold_that_does_not_fire_pays_one_sizing_allreduce() {
        // Only the padding rule asks for N: an unfired threshold costs the one
        // allreduce that evaluated it (⌈log₂ 8⌉ = 3 reserved-tag rounds per
        // rank) and two-phase itself costs none — the tuner prices exactly that.
        let m = SizeMatrix::generate(Distribution::Normal, 0x5EED, 8, 32);
        assert!(m.global_max() > 1, "the threshold must not fire");
        let reserved_msgs = |cfg: EngineConfig| -> Vec<u64> {
            ThreadComm::run(m.p(), |comm| {
                let meter = MeteredComm::new(comm);
                let me = meter.rank();
                let (sendbuf, sendcounts, sdispls) = build_send(me, &m);
                let recvcounts = m.recvcounts(me);
                let rdispls = packed_displs(&recvcounts);
                let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
                configurable_alltoallv(
                    &meter, &cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts,
                    &rdispls,
                )
                .unwrap();
                meter.metrics().reserved.sent_msgs
            })
        };
        assert_eq!(reserved_msgs(EngineConfig::as_two_phase()), [0; 8]);
        assert_eq!(
            reserved_msgs(EngineConfig {
                padding: PaddingRule::Threshold(1),
                ..EngineConfig::as_two_phase()
            }),
            [3; 8]
        );
    }
}
