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
//! | [`EngineTopology`] | oracle / direct / bruck / leader | message pattern family |
//! | `radix` | `r ≥ 2` | Bruck digit base: `(r−1)·⌈log_r P⌉` steps, `⌈log_r P⌉` forwards |
//! | `throttle_window` | `None` / `Some(w)` | outstanding pairs for direct exchanges |
//! | [`PaddingRule`] | never / always / threshold | pad blocks to the global max `N` first |
//! | [`IntermediateLayout`] | monolithic / block-views | zero-rotation routing, finished blocks delivered in place, no final scan vs. basic routing + scan |
//! | `two_phase_split` | bool | decoupled metadata message, running one step ahead of the data, vs. combined buffer behind a length message; a don't-care in [`alltoallv_discover`], which frames every step |
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
//!   direct loop → scan, or a uniform radix Zero Rotation Bruck over the
//!   user's own send blocks, whose packs pad each block on the wire and whose
//!   delivery closure strips each block's padding as it arrives for the last
//!   time (no `P × N` image on either side and no scan on the `Bruck` side);
//! * the oracle and leader exchanges, which have no knobs beyond their
//!   topology.
//!
//! [`alltoallv_discover`] is the same engine for a caller that knows only its
//! send side, as a fixpoint round does. The direct and unpadded Bruck loops
//! have a second delivery mode for it: the direct loop reads each message's
//! length; the Bruck loop sends each sub-step as one `[sizes | payload]`
//! frame, received at whatever length it has, and reads each block's size off
//! the frame that carried it — one message per sub-step, under either
//! `two_phase_split`. Both pack the blocks in source order once every length
//! is in. No other topology can learn a length from its own wire (a padded slot
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

use bruck_comm::reduce::allreduce_u64;
use bruck_comm::{
    block_on, Blocking, CallOutput, CommError, CommResult, Communicator, MsgBuf, Port, ReduceOp,
    Resume, Tag, RESERVED_TAG_BASE,
};

use super::{packed_displs, validate_send, validate_v};
use crate::collectives::{bruck_schedule, PlanStep};
use crate::common::{add_mod, data_tag, meta_tag, sub_mod, SPREAD_TAG};
use crate::probe::span;
use crate::radix::{full_slots, zero_rotation_bruck_deliver};
use super::hierarchical::{hierarchical_alltoallv, DEFAULT_GROUP_SIZE};
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
    /// `Bruck` only, and only by its `alltoallv`: [`alltoallv_discover`]
    /// sends every step as one `[sizes][blocks]` frame either way.
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
        }
    }

    /// Every named config point, paired with the variant it reproduces.
    pub fn named_points() -> [(EngineConfig, AlltoallvAlgorithm); 8] {
        AlltoallvAlgorithm::ALL.map(|a| (Self::for_algorithm(a), a))
    }

    /// The named algorithm this config is an exact point of, if any — only
    /// the knobs the topology actually consults participate in the match,
    /// so don't-care fields never block recognition.
    pub fn as_algorithm(&self) -> Option<AlltoallvAlgorithm> {
        match self.topology {
            EngineTopology::Oracle => Some(AlltoallvAlgorithm::Reference),
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
///
/// The `Direct` and `Bruck` loops are `async fn`s over a [`Port`]: on a bare
/// `EventComm` they run as a resumed call ([`Communicator::resumable`]) that
/// owns copies of the arguments and its receive buffer, on every other
/// communicator blocking, in one poll.
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
        EngineTopology::Leader { group } => hierarchical_alltoallv(
            comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls, group,
        ),
        EngineTopology::Direct | EngineTopology::Bruck => {
            validate_v(comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls)?;
            let Some(hook) = comm.resumable() else {
                return block_on(direct_or_bruck(
                    &Blocking(comm), cfg, sendbuf, sendcounts, sdispls, recvbuf, recvcounts,
                    rdispls,
                ));
            };
            let out = hook.call(|port| {
                let (cfg, send, sendcounts, sdispls) =
                    (*cfg, sendbuf.to_vec(), sendcounts.to_vec(), sdispls.to_vec());
                let (mut recv, recvcounts, rdispls) =
                    (recvbuf.to_vec(), recvcounts.to_vec(), rdispls.to_vec());
                Box::pin(async move {
                    direct_or_bruck(
                        &port, &cfg, &send, &sendcounts, &sdispls, &mut recv, &recvcounts,
                        &rdispls,
                    )
                    .await?;
                    Ok(CallOutput { bytes: recv, counts: Vec::new() })
                })
            })?;
            recvbuf.copy_from_slice(&out.bytes);
            Ok(())
        }
    }
}

/// The engine for a caller that knows only its send side: run the exchange
/// `cfg` describes and return the received blocks packed in source order,
/// with the `recvcounts` they came in.
///
/// Unpadded `Direct` and `Bruck` configs learn every count from the
/// exchange's own wire, at no extra message: an unpadded Bruck sub-step is
/// one `[sizes | payload]` frame whatever `two_phase_split` says, so a
/// two-phase or SLOAV config sends one message per sub-step here where its
/// `alltoallv` sends two. Every other config runs one uniform Zero Rotation
/// Bruck exchange of the counts first (module docs).
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
    cfg.validate()?;
    validate_send(comm, sendbuf, sendcounts, sdispls)?;
    if odd_round {
        discover_on(&OddRound(comm), cfg, sendbuf, sendcounts, sdispls)
    } else {
        discover_on(comm, cfg, sendbuf, sendcounts, sdispls)
    }
}

/// [`alltoallv_discover`] on one tag block: the converted topologies as one
/// call, the others as the counts exchange and then their own `alltoallv`.
fn discover_on<C: Communicator + ?Sized>(
    comm: &C,
    cfg: &EngineConfig,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
) -> CommResult<(Vec<u8>, Vec<usize>)> {
    if !matches!(cfg.topology, EngineTopology::Direct | EngineTopology::Bruck) {
        let counts = block_on(exchange_counts(&Blocking(comm), sendcounts))?;
        let (mut buf, rdispls) = packed_recv(&counts)?;
        configurable_alltoallv(comm, cfg, sendbuf, sendcounts, sdispls, &mut buf, &counts, &rdispls)?;
        return Ok((buf, counts));
    }
    let Some(hook) = comm.resumable() else {
        return block_on(discover(&Blocking(comm), cfg, sendbuf, sendcounts, sdispls));
    };
    let out = hook.call(|port| {
        let (cfg, send, sendcounts, sdispls) =
            (*cfg, sendbuf.to_vec(), sendcounts.to_vec(), sdispls.to_vec());
        Box::pin(async move {
            let (bytes, counts) = discover(&port, &cfg, &send, &sendcounts, &sdispls).await?;
            Ok(CallOutput { bytes, counts })
        })
    })?;
    Ok((out.bytes, out.counts))
}

/// The converted topologies' discovering exchange. Only the unpadded loops
/// read lengths off their own wire; a padded config runs
/// [`counts_then_alltoallv`].
async fn discover<P: Port + ?Sized>(
    comm: &P,
    cfg: &EngineConfig,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
) -> CommResult<(Vec<u8>, Vec<usize>)> {
    let (mut buf, mut counts) = (Vec::new(), Vec::new());
    let recv = Recv::Packed { buf: &mut buf, counts: &mut counts };
    match (cfg.topology, cfg.padding) {
        (EngineTopology::Direct, PaddingRule::Never) => {
            direct_exchange(comm, cfg.throttle_window, sendbuf, sendcounts, sdispls, recv).await?;
        }
        (EngineTopology::Bruck, PaddingRule::Never) => {
            bruck_unpadded(comm, cfg, sendbuf, sendcounts, sdispls, recv).await?;
        }
        _ => return counts_then_alltoallv(comm, cfg, sendbuf, sendcounts, sdispls).await,
    }
    Ok((buf, counts))
}

/// [`alltoallv_discover`] for the padded configs, whose loops cannot learn a
/// length from their own wire: [`exchange_counts`], then the `alltoallv`.
async fn counts_then_alltoallv<P: Port + ?Sized>(
    comm: &P,
    cfg: &EngineConfig,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
) -> CommResult<(Vec<u8>, Vec<usize>)> {
    let counts = exchange_counts(comm, sendcounts).await?;
    let (mut buf, rdispls) = packed_recv(&counts)?;
    direct_or_bruck(comm, cfg, sendbuf, sendcounts, sdispls, &mut buf, &counts, &rdispls).await?;
    Ok((buf, counts))
}

/// Every rank's count for this rank: a uniform Zero Rotation Bruck exchange
/// of 8-byte counts.
async fn exchange_counts<P: Port + ?Sized>(comm: &P, sendcounts: &[usize]) -> CommResult<Vec<usize>> {
    let mine: Vec<u8> = sendcounts.iter().flat_map(|&c| (c as u64).to_le_bytes()).collect();
    let me = comm.rank();
    let mut counts = vec![0usize; sendcounts.len()];
    counts[me] = sendcounts[me];
    let word = |w: &[u8]| u64::from_le_bytes(std::array::from_fn(|b| w[b])) as usize;
    let slots = full_slots(&mine, sendcounts.len(), 8);
    zero_rotation_bruck_deliver(comm, &slots, 8, 2, |src, w| counts[src] = word(w)).await?;
    Ok(counts)
}

/// A packed receive buffer for `counts`, and its displacements.
fn packed_recv(counts: &[usize]) -> CommResult<(Vec<u8>, Vec<usize>)> {
    let total = counts.iter().try_fold(0usize, |sum, &c| sum.checked_add(c));
    let buf = vec![0u8; total.ok_or(CommError::BadArgument("recvcounts overflow"))?];
    Ok((buf, packed_displs(counts)))
}

/// The tag bit of [`alltoallv_discover`]'s odd rounds: above every engine
/// tag, below `SubComm`'s context bits.
const ODD_ROUND_TAG: Tag = 1 << 23;

/// A communicator whose algorithm tags carry [`ODD_ROUND_TAG`]: the odd
/// rounds' tag block. Reserved tags (the built-in collectives, which rely on
/// non-overtaking by contract) pass through. Over a bare `EventComm` its
/// hook is the runtime's, with the tag bit added.
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
    #[expect(clippy::disallowed_methods, reason = "a wrapper forward; it waits for nothing")]
    fn sleep(&self, d: Duration) {
        self.0.sleep(d)
    }

    #[inline]
    fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
        self.0.wait_arrival(seen, timeout)
    }

    fn resumable(&self) -> Option<Resume<'_>> {
        self.0.resumable().map(|hook| hook.with_tag_bits(ODD_ROUND_TAG))
    }
}

/// Global maximum block size — the `N` of the paper. Only a padding rule
/// asks for it. `Max` is idempotent, so the allreduce is a one-way
/// dissemination: ⌈log₂ P⌉ rounds of one message per rank at any `P`, with
/// no fold round.
#[expect(clippy::disallowed_methods, reason = "the padding rule's one allreduce, before the loop")]
async fn global_n_max<P: Port + ?Sized>(comm: &P, sendcounts: &[usize]) -> CommResult<usize> {
    let _probe = span("padded.allreduce");
    let local_max = sendcounts.iter().copied().max().unwrap_or(0);
    Ok(allreduce_u64(comm, local_max as u64, ReduceOp::Max).await? as usize)
}

/// The `Direct` and `Bruck` topologies over validated arguments: find `N` if
/// the padding rule wants it, then either the padded uniform exchange or the
/// exact-size exchange.
#[allow(clippy::too_many_arguments)]
async fn direct_or_bruck<P: Port + ?Sized>(
    comm: &P,
    cfg: &EngineConfig,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &mut [u8],
    recvcounts: &[usize],
    rdispls: &[usize],
) -> CommResult<()> {
    if cfg.padding != PaddingRule::Never {
        let n = global_n_max(comm, sendcounts).await?;
        if cfg.padding.fires(n) {
            return padded_exchange(
                comm, cfg, n, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls,
            )
            .await;
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
        direct_exchange(comm, cfg.throttle_window, sendbuf, sendcounts, sdispls, recv).await
    } else {
        bruck_unpadded(comm, cfg, sendbuf, sendcounts, sdispls, recv).await
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
/// * `Direct` — a `P × n` send image, windowed pairwise into a `P × n`
///   receive image, then a scan strips the padding (`direct_exchange` sends
///   disjoint slices of one buffer and receives into one buffer).
/// * `Bruck` — radix-`r` Zero Rotation Bruck over an O(P) table of the
///   user's send blocks: the first pack of each block zero-pads it to `n` on
///   the wire, and the delivery closure strips it as the sub-step that
///   finishes it receives it, straight into `recvbuf`. No `P × n` image on
///   either side and no scan: `padded.pad` brackets building the table,
///   `padded.scan` only the self block's copy.
#[allow(clippy::too_many_arguments)]
async fn padded_exchange<P: Port + ?Sized>(
    comm: &P,
    cfg: &EngineConfig,
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
    let p = comm.size();
    let send_block = |dst: usize| &sendbuf[sdispls[dst]..][..sendcounts[dst]];
    if cfg.topology == EngineTopology::Bruck {
        let slots: Vec<&[u8]> = {
            let _probe = span("padded.pad");
            (0..p).map(send_block).collect()
        };
        {
            let _probe = span("padded.exchange");
            zero_rotation_bruck_deliver(comm, &slots, n, cfg.radix, |src, slot| {
                let want = recvcounts[src];
                recvbuf[rdispls[src]..rdispls[src] + want].copy_from_slice(&slot[..want]);
            })
            .await?;
        }
        let _probe = span("padded.scan");
        let me = comm.rank();
        recvbuf[rdispls[me]..][..recvcounts[me]].copy_from_slice(send_block(me));
        return Ok(());
    }
    let padded_send = {
        let _probe = span("padded.pad");
        let mut image = Vec::with_capacity(p * n);
        for dst in 0..p {
            image.extend_from_slice(send_block(dst));
            image.resize((dst + 1) * n, 0);
        }
        image
    };
    let mut padded_recv = vec![0u8; p * n];
    {
        let _probe = span("padded.exchange");
        // The padded region is the packed send buffer: every message is a
        // disjoint slice of it.
        let counts = vec![n; p];
        let displs: Vec<usize> = (0..p).map(|i| i * n).collect();
        let recv = Recv::Placed { buf: &mut padded_recv, counts: &counts, displs: &displs };
        direct_exchange(comm, cfg.throttle_window, padded_send, &counts, &displs, recv).await?;
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
/// A [`Recv::Placed`] block must be exactly its `recvcounts` entry long (a
/// longer one stays queued). A [`Recv::Packed`] exchange keeps each received
/// message as it arrived and reads its length; the one copy per block is the
/// final pack.
async fn direct_exchange<P: Port + ?Sized>(
    comm: &P,
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
                comm.send_buf(
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
                    let block = comm.recv_exact(src, SPREAD_TAG, counts[src]).await?;
                    buf[displs[src]..displs[src] + counts[src]].copy_from_slice(&block);
                }
                Recv::Packed { .. } => {
                    arrived[src] = comm.recv_match(src, SPREAD_TAG, usize::MAX).await?;
                }
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

/// How one unpadded Bruck sub-step couples its blocks' sizes to their
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Coupling {
    /// Two-phase Bruck's (§3.2): the 4-byte-per-block size array is its own
    /// message on the meta tag, running one sub-step ahead of the payload on
    /// the data tag. One latency per sub-step, two messages.
    Split,
    /// SLOAV's (§6.1): one `[sizes | payload]` body on the data tag, preceded
    /// on the meta tag by an 8-byte message announcing its length. Two
    /// latencies per sub-step.
    Announced,
    /// [`alltoallv_discover`]'s: the `[sizes | payload]` body alone, received
    /// at whatever length it has (`MPI_Mprobe` + `MPI_Mrecv`). One latency
    /// and one message per sub-step. A receive posted with a length — the
    /// named `alltoallv`'s, which the paper and the model price — cannot take
    /// it.
    Framed,
}

/// Append the 4-byte-per-block size array announcing `step`'s outgoing
/// blocks to `wire`.
fn put_sizes(wire: &mut Vec<u8>, step: &PlanStep, sizes: &[usize]) -> CommResult<()> {
    for &i in &step.offsets {
        let sz = u32::try_from(sizes[i])
            .map_err(|_| CommError::BadArgument("block size exceeds u32 metadata"))?;
        wire.extend_from_slice(&sz.to_le_bytes());
    }
    Ok(())
}

/// Post the size array announcing step `k`'s outgoing blocks (split
/// coupling).
fn post_sizes<P: Port + ?Sized>(
    comm: &P,
    k: usize,
    step: &PlanStep,
    sizes: &[usize],
) -> CommResult<()> {
    let dest = add_mod(comm.rank(), step.shift, comm.size());
    let mut array = Vec::with_capacity(step.offsets.len() * 4);
    put_sizes(&mut array, step, sizes)?;
    comm.send_buf(dest, meta_tag(k as u32), MsgBuf::from_vec(array))
}

/// The coupled metadata + data exchange of step `k` of an unpadded Bruck
/// plan. `sizes[i]` for `i` in `step.offsets` are the byte sizes of the
/// outgoing blocks, in wire order; `pack` appends their payload.
///
/// * [`Coupling::Split`], with the metadata chain one sub-step ahead of the
///   data chain: the caller has already sent this sub-step's size array
///   (`next`'s is sent here), so the packed payload leaves first, the size
///   array from `src` is usually waiting, and the only latency left is the
///   payload's. That is sound because a data message needs no metadata to be
///   *sent*, and every size `next` announces is known once this step's
///   metadata is in: a block sent at `next` is an original one or was last
///   overwritten no later than here.
/// * [`Coupling::Announced`]: the `[sizes | payload]` body, packed up front,
///   is preceded by an 8-byte message announcing its total length. That
///   length depends on sizes carried inside the previous body, so it cannot
///   run ahead: two latencies per sub-step.
/// * [`Coupling::Framed`]: the same body, sent alone and received at any
///   length; its first `4·|offsets|` bytes say how long the rest must be.
///
/// A body is received with `max_len` = the length announced for it, if any.
/// On return `sizes[i]` are the *received* blocks' sizes, and the result is
/// the received body plus the offset its payload starts at; the payload
/// length has been checked against the sizes.
#[allow(clippy::too_many_arguments)]
async fn coupled_step<P: Port + ?Sized>(
    comm: &P,
    coupling: Coupling,
    spans: &StepSpans,
    k: usize,
    step: &PlanStep,
    next: Option<&PlanStep>,
    sizes: &mut [usize],
    pack: impl Fn(&mut Vec<u8>, &[usize]),
) -> CommResult<(MsgBuf, usize)> {
    let (p, me) = (comm.size(), comm.rank());
    let (idx, dest, src) = (k as u32, add_mod(me, step.shift, p), sub_mod(me, step.shift, p));
    let meta_len = step.offsets.len() * 4;
    // Sized up front, the body is packed without a reallocation.
    let outgoing: usize = step.offsets.iter().map(|&i| sizes[i]).sum();
    // Read the size array of the incoming blocks; returns their total.
    let read_sizes = |sizes: &mut [usize], array: &[u8]| -> usize {
        let mut total = 0;
        for (&i, sz) in step.offsets.iter().zip(array.chunks_exact(4)) {
            sizes[i] = u32::from_le_bytes([sz[0], sz[1], sz[2], sz[3]]) as usize;
            total += sizes[i];
        }
        total
    };

    // The wire buffers are handed to the transport as `MsgBuf`s: the per-step
    // pack is the only copy, the send itself moves the region.
    let (data, base, payload) = if coupling == Coupling::Split {
        {
            let _probe = span(spans.pack);
            let mut body = Vec::with_capacity(outgoing);
            pack(&mut body, sizes);
            comm.send_buf(dest, data_tag(idx), MsgBuf::from_vec(body))?;
        }
        let payload = {
            let _probe = span(spans.meta);
            let array = comm.recv_match(src, meta_tag(idx), usize::MAX).await?;
            if array.len() != meta_len {
                return Err(CommError::BadArgument("metadata length mismatch"));
            }
            let payload = read_sizes(sizes, &array);
            if let Some(next) = next {
                post_sizes(comm, k + 1, next, sizes)?;
            }
            payload
        };
        let _probe = span(spans.data);
        (comm.recv_match(src, data_tag(idx), payload).await?, 0, payload)
    } else {
        let body = {
            let _probe = span(spans.pack);
            let mut body = Vec::with_capacity(meta_len + outgoing);
            put_sizes(&mut body, step, sizes)?;
            pack(&mut body, sizes);
            body
        };
        // The longest body this step accepts: the announced length, or any.
        let announced = if coupling == Coupling::Announced {
            let header = {
                let _probe = span(spans.meta);
                let announce = (body.len() as u64).to_le_bytes().to_vec();
                comm.send_buf(dest, meta_tag(idx), MsgBuf::from_vec(announce))?;
                comm.recv_match(src, meta_tag(idx), usize::MAX).await?
            };
            let header = header.as_slice().try_into();
            let announced =
                u64::from_le_bytes(header.map_err(|_| CommError::BadArgument("bad size header"))?);
            usize::try_from(announced).unwrap_or(usize::MAX)
        } else {
            usize::MAX
        };
        let data = {
            let _probe = span(spans.data);
            comm.send_buf(dest, data_tag(idx), MsgBuf::from_vec(body))?;
            comm.recv_match(src, data_tag(idx), announced).await?
        };
        // A longer body stays queued; a frame has no announced length.
        let short = coupling == Coupling::Announced && data.len() != announced;
        if short || data.len() < meta_len {
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

/// A routed block's size, read off the wire, against the `recvcounts` entry
/// its slot was sized for: a peer that disagrees is a typed error.
fn check_routed(size: usize, want: usize) -> CommResult<()> {
    if size != want {
        return Err(CommError::BadArgument("routed size disagrees with recvcounts"));
    }
    Ok(())
}

/// The unpadded non-uniform radix Bruck loop over an
/// [`alltoall_plan`](crate::alltoall_plan). Every step's receive region is
/// kept (`regions`) and `held[i]` says where in them the block in slot `i`
/// arrived — `(region, offset)`, its size in `sizes[i]` — so
/// store-and-forward needs no working buffer, no staging copy and no bound
/// on block sizes; until a step delivers it the block is still the original
/// one in the user's send buffer. (A reference-counted
/// `MsgBuf::slice` per block is the same idea and measured 10–20 % slower at
/// small blocks: the count moves twice per block per step.)
///
/// The layout picks the routing and the delivery:
///
/// * `Monolithic` — two-phase Bruck's §3.2 / §6.1 design. Routing is Zero
///   Rotation Bruck's: blocks hop *downward*, slot `i` at rank `p` starts as
///   the send-buffer block for rank `p − i` and ends as the block from rank
///   `p + i`; a block arriving at the last step that holds its slot is copied
///   from the wire straight into its final position — no rotation, no scan.
/// * `BlockViews` — SLOAV's (Xu et al.) two-layer layout, kept faithful to
///   the structure §6.1 criticizes so the ablation can price it: blocks hop
///   *upward* in basic-Bruck direction, every received block goes into the
///   pointer array, and a final scan copies all of them home.
///
/// A [`Recv::Placed`] exchange couples each step's sizes to its payload as
/// `two_phase_split` says, and a block whose routed size is not its
/// `recvcounts` entry is a typed error. A [`Recv::Packed`] exchange sends
/// each step as one [`Coupling::Framed`] message whatever the knob says,
/// holds every block where it arrived in either layout, reads its size off
/// the frame that carried it, and packs all of them once the last one is in:
/// where a block lands depends on every size before it.
async fn bruck_unpadded<P: Port + ?Sized>(
    comm: &P,
    cfg: &EngineConfig,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    mut recv: Recv<'_>,
) -> CommResult<()> {
    let (p, me) = (comm.size(), comm.rank());
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

    // A receiver that posts no length takes each sub-step as one frame.
    let coupling = match (&recv, cfg.two_phase_split) {
        (Recv::Packed { .. }, _) => Coupling::Framed,
        (Recv::Placed { .. }, true) => Coupling::Split,
        (Recv::Placed { .. }, false) => Coupling::Announced,
    };
    // The split coupling announces the next step's sizes while this one's
    // data is in flight, so the loop looks one step ahead.
    let schedule = bruck_schedule(p, cfg.radix, downward);
    // A block is finished at the last step that holds its slot.
    let (plan, last) = (&schedule.plan, &schedule.last);
    if let (Coupling::Split, Some(first)) = (coupling, plan.steps.first()) {
        // Prologue of the split coupling: the metadata chain's head start.
        post_sizes(comm, 0, first, &sizes)?;
    }
    for (k, step) in plan.steps.iter().enumerate() {
        let (got, base) = coupled_step(
            comm,
            coupling,
            spans,
            k,
            step,
            plan.steps.get(k + 1),
            &mut sizes,
            |wire, sizes| {
                for &i in &step.offsets {
                    match held[i] {
                        Some((r, at)) => wire.extend_from_slice(&regions[r][at..at + sizes[i]]),
                        None => {
                            let dd = sdispls[ahead(i)];
                            wire.extend_from_slice(&sendbuf[dd..dd + sizes[i]]);
                        }
                    }
                }
            },
        )
        .await?;

        let _probe = span(spans.scatter);
        let mut at = base;
        for &i in &step.offsets {
            let sz = sizes[i];
            match &mut recv {
                Recv::Placed { buf, counts, displs } if downward && last[i] == k => {
                    let from = behind(i);
                    check_routed(sz, counts[from])?;
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
                check_routed(sizes[i], counts[from])?;
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
    use std::sync::{Arc, Mutex};

    use super::super::testutil::{build_send, check_recv, run_and_check_config, TEST_SIZES};
    use super::*;
    use crate::{alltoall_plan, packed_displs, pattern};
    use bruck_comm::{EventComm, MeteredComm, SimComm, ThreadComm};
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

    /// Every payload a [`Tap`] sent: `(sender, tag, bytes)`.
    type Wire = Arc<Mutex<Vec<(usize, Tag, Vec<u8>)>>>;

    /// A [`Port`] that records every payload it sends into its [`Wire`].
    struct Tap<P> {
        inner: P,
        wire: Wire,
    }

    impl<P: Port> Port for Tap<P> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }

        fn size(&self) -> usize {
            self.inner.size()
        }

        fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
            self.wire.lock().unwrap().push((self.inner.rank(), tag, buf.to_vec()));
            self.inner.send_buf(dest, tag, buf)
        }

        fn recv_match(
            &self,
            src: usize,
            tag: Tag,
            max_len: usize,
        ) -> impl std::future::Future<Output = CommResult<MsgBuf>> + Send + '_ {
            self.inner.recv_match(src, tag, max_len)
        }
    }

    /// [`configurable_alltoallv`]'s `Direct | Bruck` path with its loop's
    /// port tapped: blocking on a communicator without a hook, a resumed
    /// call that owns copies of the arguments on a bare `EventComm`.
    #[allow(clippy::too_many_arguments)]
    fn tapped_alltoallv<C: Communicator + ?Sized>(
        comm: &C,
        cfg: &EngineConfig,
        sendbuf: &[u8],
        sendcounts: &[usize],
        sdispls: &[usize],
        recvbuf: &mut [u8],
        recvcounts: &[usize],
        rdispls: &[usize],
        wire: &Wire,
    ) -> CommResult<()> {
        validate_v(comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls)?;
        let Some(hook) = comm.resumable() else {
            let tap = Tap { inner: Blocking(comm), wire: Arc::clone(wire) };
            return block_on(direct_or_bruck(
                &tap, cfg, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls,
            ));
        };
        let out = hook.call(|port| {
            let tap = Tap { inner: port, wire: Arc::clone(wire) };
            let (cfg, send, sendcounts, sdispls) =
                (*cfg, sendbuf.to_vec(), sendcounts.to_vec(), sdispls.to_vec());
            let (mut recv, recvcounts, rdispls) =
                (recvbuf.to_vec(), recvcounts.to_vec(), rdispls.to_vec());
            Box::pin(async move {
                direct_or_bruck(
                    &tap, &cfg, &send, &sendcounts, &sdispls, &mut recv, &recvcounts, &rdispls,
                )
                .await?;
                Ok(CallOutput { bytes: recv, counts: Vec::new() })
            })
        })?;
        recvbuf.copy_from_slice(&out.bytes);
        Ok(())
    }

    #[test]
    fn padded_bruck_slots_carry_zeros_never_a_neighbours_bytes() {
        // Every send block sits between poison gaps, the one after it `N`
        // bytes long, so a pack that read a whole slot from the block's
        // start would stay in bounds and put poison on the wire. Real bytes
        // are odd, so neither a zero nor the poison is ever one.
        const POISON: u8 = 0xFF;
        let byte = |src: usize, dst: usize, idx: usize| pattern(src, dst, idx) & 0x7F | 1;
        for p in [3usize, 8, 12] {
            let m = SizeMatrix::generate(Distribution::Normal, 0x9AD + p as u64, p, 24);
            let n = m.global_max();
            assert!((0..p).any(|s| (0..p).any(|d| m.get(s, d) < n)), "P={p}: nothing to pad");
            // Every slot that may legally cross the wire: a block, then zeros.
            let slots: std::collections::HashSet<Vec<u8>> = (0..p)
                .flat_map(|s| (0..p).map(move |d| (s, d)))
                .map(|(s, d)| {
                    let mut slot: Vec<u8> = (0..m.get(s, d)).map(|i| byte(s, d, i)).collect();
                    slot.resize(n, 0);
                    slot
                })
                .collect();
            for radix in [2usize, 3, 4] {
                let cfg = EngineConfig { radix, ..EngineConfig::as_padded_bruck() };
                let wire: Wire = Arc::default();
                let run = |comm: &dyn Communicator| {
                    let me = comm.rank();
                    let sendcounts = m.sendcounts(me);
                    let (mut sendbuf, mut sdispls) = (vec![POISON; 5], Vec::new());
                    for (dst, &c) in sendcounts.iter().enumerate() {
                        sdispls.push(sendbuf.len());
                        sendbuf.extend((0..c).map(|i| byte(me, dst, i)));
                        sendbuf.resize(sendbuf.len() + 5 + n, POISON);
                    }
                    let recvcounts = m.recvcounts(me);
                    let rdispls = packed_displs(&recvcounts);
                    let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
                    tapped_alltoallv(
                        comm, &cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts,
                        &rdispls, &wire,
                    )
                    .unwrap();
                    for src in 0..p {
                        let want: Vec<u8> =
                            (0..recvcounts[src]).map(|i| byte(src, me, i)).collect();
                        assert_eq!(recvbuf[rdispls[src]..][..want.len()], want, "P={p} r={radix}");
                    }
                };
                let check = |backend: &str| {
                    let wire = std::mem::take(&mut *wire.lock().unwrap());
                    let plan = alltoall_plan(p, radix, true);
                    let step_tags: Vec<Tag> = plan.steps.iter().map(|s| s.tag).collect();
                    let data: Vec<_> =
                        wire.iter().filter(|(_, tag, _)| step_tags.contains(tag)).collect();
                    let case = format!("{backend} P={p} r={radix}");
                    assert_eq!(data.len(), p * step_tags.len(), "{case}: one message per step");
                    for (from, tag, bytes) in data {
                        assert!(!bytes.contains(&POISON), "{case}: poison from {from}");
                        assert_eq!(bytes.len() % n, 0, "{case}: a message is whole slots");
                        for slot in bytes.chunks(n) {
                            assert!(slots.contains(slot), "{case}: {from} sent {slot:?}, {tag:#x}");
                        }
                    }
                };
                ThreadComm::run(p, |comm| run(comm));
                check("ThreadComm");
                EventComm::run(p, |comm| {
                    assert!(comm.resumable().is_some(), "a bare EventComm runs the stored call");
                    run(comm)
                });
                check("EventComm");
            }
        }
    }

    #[test]
    fn a_recvcount_above_the_slot_size_is_a_typed_error() {
        // A receive block larger than any block sent cannot be filled from
        // an `N`-byte slot: both padded topologies refuse it before sending.
        // Every rank sends 2 bytes to each and expects 3 from its peer.
        for cfg in [EngineConfig::as_padded_bruck(), EngineConfig::as_padded_alltoall()] {
            let got = ThreadComm::run(2, |comm| {
                let me = comm.rank();
                let mut recvcounts = [3, 3];
                recvcounts[me] = 2;
                let rdispls = packed_displs(&recvcounts);
                let mut recvbuf = [0u8; 5];
                configurable_alltoallv(
                    comm, &cfg, &[7; 4], &[2, 2], &[0, 2], &mut recvbuf, &recvcounts, &rdispls,
                )
            });
            let want =
                Err(CommError::BadArgument("recvcounts exceed the global maximum block size"));
            assert_eq!(got, [want.clone(), want], "{}", cfg.key());
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
