//! Reduction operators, their `u64` wire codec, and the one
//! distance-doubling allreduce loop shared by the scalar
//! [`Communicator::allreduce_u64`](crate::Communicator::allreduce_u64) and
//! `bruck-core`'s vector
//! `allreduce(RecursiveDoubling)`. The loop is an `async fn` over a
//! [`Port`], so a resumed call awaits it and a blocking caller runs it in one
//! poll.
//!
//! The codec is three loops over one contiguous run of little-endian words:
//! [`encode_u64s`] appends a run to a message, [`decode_u64s_into`] decodes
//! one into place, and [`ReduceOp::apply_bytes`] folds one into place. A
//! message of several segments is one call per segment, never one word at a
//! time across them, so each loop compiles to straight-line vector code.
//! The collectives, the doubling allreduce, the engine's count exchange and
//! the stored calls' word outputs all encode through them.

use crate::communicator::TAG_ALLREDUCE;
use crate::{CommError, CommResult, MsgBuf, Port, Tag};

/// Associative, commutative reduction over `u64`, covering everything the
/// all-to-all algorithms need (`MPI_MAX` for the global maximum block size,
/// `MPI_SUM`/`MPI_MIN` for harness statistics) plus the element-wise vector
/// form the wider collective family (reduce_scatter / allreduce) reduces
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise maximum (`MPI_MAX`).
    Max,
    /// Element-wise minimum (`MPI_MIN`).
    Min,
    /// Wrapping sum (`MPI_SUM`; wrapping so adversarial proptest inputs
    /// cannot abort a collective mid-flight).
    Sum,
}

impl ReduceOp {
    /// Every operator, for property sweeps.
    pub const ALL: [ReduceOp; 3] = [ReduceOp::Max, ReduceOp::Min, ReduceOp::Sum];

    /// Combine two values.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Sum => a.wrapping_add(b),
        }
    }

    /// The identity element of the operator.
    #[inline]
    pub fn identity(self) -> u64 {
        match self {
            ReduceOp::Max => 0,
            ReduceOp::Min => u64::MAX,
            ReduceOp::Sum => 0,
        }
    }

    /// Element-wise `acc[i] = op(acc[i], other[i])` over equal-length slices.
    ///
    /// The reference implementations fold with it; the schedules fold wire
    /// payloads with [`apply_bytes`](Self::apply_bytes), which the codec's
    /// tests hold equal to it, so the operator semantics (wrapping sum, in
    /// particular) cannot drift between the two.
    ///
    /// # Panics
    /// If the slices differ in length — a protocol bug, not an input error:
    /// every caller derives both lengths from the same counts array.
    #[inline]
    pub fn apply_slice(self, acc: &mut [u64], other: &[u64]) {
        assert_eq!(acc.len(), other.len(), "reduce over mismatched vector lengths");
        for (a, &b) in acc.iter_mut().zip(other) {
            *a = self.apply(*a, b);
        }
    }

    /// [`apply_slice`](Self::apply_slice) with `other` still in its wire
    /// encoding: `acc[i] = op(acc[i], word i of other)`, decoded and folded
    /// in one pass. A payload that is not `8 × acc.len()` bytes is a typed
    /// error, like [`decode_u64s_into`]'s.
    pub fn apply_bytes(self, acc: &mut [u64], other: &[u8]) -> CommResult<()> {
        match self {
            ReduceOp::Max => fold_words(acc, other, u64::max),
            ReduceOp::Min => fold_words(acc, other, u64::min),
            ReduceOp::Sum => fold_words(acc, other, u64::wrapping_add),
        }
    }
}

/// `acc[i] = f(acc[i], word i of bytes)` over little-endian words; `bytes`
/// must be exactly `8 × acc.len()` long.
fn fold_words(acc: &mut [u64], bytes: &[u8], f: impl Fn(u64, u64) -> u64) -> CommResult<()> {
    if bytes.len() != 8 * acc.len() {
        return Err(CommError::BadArgument("reduce payload length differs from the vector's"));
    }
    for (a, chunk) in acc.iter_mut().zip(bytes.chunks_exact(8)) {
        let mut w = [0u8; 8];
        w.copy_from_slice(chunk);
        *a = f(*a, u64::from_le_bytes(w));
    }
    Ok(())
}

/// Append the little-endian wire encoding of `words` to `out`.
pub fn encode_u64s(words: &[u64], out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + 8 * words.len(), 0);
    for (dst, w) in out[at..].chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

/// Decode a little-endian `u64` vector into `out`; errors unless `bytes` is
/// exactly `8 × out.len()` long (a framing bug, surfaced typed so the chaos
/// stack sees it).
pub fn decode_u64s_into(bytes: &[u8], out: &mut [u64]) -> CommResult<()> {
    fold_words(out, bytes, |_, w| w)
}

/// What round `k` of a distance-doubling allreduce puts on the wire.
///
/// In every round each rank sends to `me + 2ᵏ` and folds what `me − 2ᵏ`
/// sent into its window `W`, the reduction over the `2ᵏ` ranks ending at
/// itself (mod `P`). `Max` and `Min` are idempotent, so `W` alone does: after
/// `K = ⌈log₂ P⌉` rounds it covers every rank, some twice. `Sum` must count
/// each rank once. With `r = P − 2ᴷ⁻¹` it also keeps `Y`, the sum of the last
/// `r mod 2ᵏ` ranks, and its last round folds in the sender's last `r` ranks
/// rather than its whole `W`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoublingRound {
    /// The receiver's `Y` grows this round (bit `k` of `r` is set, `k < K − 1`):
    /// it becomes the receiver's `W` before the round plus the sender's `Y`.
    pub builds_y: bool,
    /// The sender's `Y` rides behind its `W`: a round that builds `Y` while
    /// `r mod 2ᵏ > 0`.
    pub carries_y: bool,
    /// The round sends `Y` in place of `W`: the last `Sum` round, `r < 2ᴷ⁻¹`.
    pub sends_y: bool,
}

impl DoublingRound {
    /// Vectors on the wire this round: 2 when the round carries `Y`, else 1.
    pub fn windows(&self) -> usize {
        1 + usize::from(self.carries_y)
    }
}

/// The `⌈log₂ P⌉` rounds of a distance-doubling allreduce with `op` over `p`
/// ranks, in order.
pub fn doubling_rounds(p: usize, op: ReduceOp) -> impl Iterator<Item = DoublingRound> {
    let rounds = usize::BITS - p.saturating_sub(1).leading_zeros();
    let r = p - ((1usize << rounds) >> 1);
    let sum = op == ReduceOp::Sum;
    (0..rounds).map(move |k| {
        let h = 1usize << k;
        let builds_y = sum && k + 1 < rounds && r & h != 0;
        DoublingRound {
            builds_y,
            carries_y: builds_y && r % h != 0,
            sends_y: sum && k + 1 == rounds && r != h,
        }
    })
}

/// The one distance-doubling allreduce, scalar or vector, fold-free at any
/// `P`: the [`doubling_rounds`] as one-way messages to `me + 2ᵏ` on `tag(k)`,
/// each round under the guard `step()` returns (a probe span, or `()`). Every
/// rank's `buf` (equal length everywhere) ends as the `op` reduction over all
/// ranks. A payload of the wrong length is a typed error
/// ([`Port::recv_exact`]).
pub async fn allreduce_doubling<P: Port + ?Sized, G>(
    comm: &P,
    buf: &mut [u64],
    op: ReduceOp,
    tag: impl Fn(u32) -> Tag,
    step: impl Fn() -> G,
) -> CommResult<()> {
    let (p, me, n) = (comm.size(), comm.rank(), buf.len());
    let mut y = Vec::new();
    for (k, round) in (0u32..).zip(doubling_rounds(p, op)) {
        let _step = step();
        let h = 1usize << k;
        let mut out = Vec::with_capacity(8 * n * round.windows());
        encode_u64s(if round.sends_y { &y } else { &*buf }, &mut out);
        if round.carries_y {
            encode_u64s(&y, &mut out);
        }
        comm.send_buf((me + h) % p, tag(k), MsgBuf::from_vec(out))?;
        let got = comm.recv_exact((me + p - h) % p, tag(k), 8 * n * round.windows()).await?;
        let (w, y_from) = got.split_at(8 * n);
        if round.builds_y {
            // `Y` becomes this rank's `W` before the fold, in `Y`'s own storage.
            y.clear();
            y.extend_from_slice(buf);
            if round.carries_y {
                op.apply_bytes(&mut y, y_from)?;
            }
        }
        op.apply_bytes(buf, w)?;
    }
    Ok(())
}

/// The scalar allreduce: [`allreduce_doubling`] on a one-element slice, on
/// the reserved round tags of
/// [`Communicator::allreduce_u64`](crate::Communicator::allreduce_u64) (which
/// is this, driven blocking).
pub async fn allreduce_u64<P: Port + ?Sized>(comm: &P, value: u64, op: ReduceOp) -> CommResult<u64> {
    let mut acc = [value];
    allreduce_doubling(comm, &mut acc, op, |k| TAG_ALLREDUCE + k, || ()).await?;
    Ok(acc[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splitmix-style value stream for the property sweeps.
    fn values(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn doubling_windows_count_every_rank_once_for_sum() {
        // A symbolic walk, no communicator: a window is the set of ranks it
        // reduces over. `Sum` may only join disjoint sets; every operator
        // must end with `W` = all ranks on every rank.
        for p in 1..=64usize {
            let all = (1u128 << p) - 1;
            for op in ReduceOp::ALL {
                let mut w: Vec<u128> = (0..p).map(|q| 1 << q).collect();
                let mut y = vec![0u128; p];
                for (k, round) in doubling_rounds(p, op).enumerate() {
                    let h = 1 << k;
                    let (w0, y0) = (w.clone(), y.clone());
                    for q in 0..p {
                        let from = (q + p - h) % p;
                        let first = if round.sends_y { y0[from] } else { w0[from] };
                        assert_ne!(first, 0, "p={p} k={k}: an empty window on the wire");
                        if round.builds_y {
                            assert_eq!(round.carries_y, y0[from] != 0, "p={p} k={k}: Y rides iff non-empty");
                            let second = if round.carries_y { y0[from] } else { 0 };
                            assert_eq!(w0[q] & second, 0, "p={p} k={k} rank {q}: Y counts a rank twice");
                            y[q] = w0[q] | second;
                        }
                        if op == ReduceOp::Sum {
                            assert_eq!(w0[q] & first, 0, "p={p} k={k} rank {q}: W counts a rank twice");
                        } else {
                            assert_eq!(round.windows(), 1, "p={p} {op:?}: W alone");
                            assert!(!round.sends_y && !round.builds_y, "p={p} {op:?}: W alone");
                        }
                        w[q] = w0[q] | first;
                    }
                }
                assert!(w.iter().all(|&m| m == all), "p={p} {op:?}: {w:x?}");
            }
        }
    }

    /// `words` encoded one word at a time: the wire format the codec's run
    /// loops must reproduce.
    fn wire(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Every way to cut `0..n` into three runs `0..a`, `a..b`, `b..n` (an
    /// empty run leaves one or two segments), or for a long run the cuts at
    /// its edges, at a word past them and in the middle.
    fn splits(n: usize) -> Vec<(usize, usize)> {
        let cuts: Vec<usize> = if n <= 9 {
            (0..=n).collect()
        } else {
            vec![0, 1, 7, 8, 9, n / 2, n - 9, n - 8, n - 1, n]
        };
        let pairs = cuts.iter().flat_map(|&a| cuts.iter().map(move |&b| (a, b)));
        pairs.filter(|(a, b)| a <= b).collect()
    }

    #[test]
    fn the_codec_round_trips_and_folds_every_split_of_a_run() {
        for n in [0usize, 1, 7, 8, 9, 8193] {
            let words = values(5 + n as u64, n);
            let want = wire(&words);
            for (a, b) in splits(n) {
                let runs = [0..a, a..b, b..n];
                let mut out = Vec::new();
                for run in runs.clone() {
                    encode_u64s(&words[run], &mut out);
                }
                assert_eq!(out, want, "n={n} split ({a}, {b})");
                let mut back = vec![0u64; n];
                for run in runs.clone() {
                    decode_u64s_into(&out[8 * run.start..8 * run.end], &mut back[run]).unwrap();
                }
                assert_eq!(back, words, "n={n} split ({a}, {b})");
                for op in ReduceOp::ALL {
                    let acc = values(6 + n as u64, n);
                    let mut folded = acc.clone();
                    for run in runs.clone() {
                        op.apply_bytes(&mut folded[run.clone()], &out[8 * run.start..8 * run.end])
                            .unwrap();
                    }
                    let mut reference = acc;
                    op.apply_slice(&mut reference, &words);
                    assert_eq!(folded, reference, "{op:?} n={n} split ({a}, {b})");
                }
            }
            // A word short or a word long is a typed error, never a partial
            // decode or fold.
            let long = [&want[..], &[0; 8]].concat();
            for bad in [&want[..want.len().saturating_sub(8)], &long[..]] {
                if bad.len() == want.len() {
                    continue;
                }
                let mut back = vec![0u64; n];
                assert!(decode_u64s_into(bad, &mut back).is_err(), "n={n} len {}", bad.len());
                for op in ReduceOp::ALL {
                    assert!(op.apply_bytes(&mut back, bad).is_err(), "{op:?} n={n}");
                }
            }
        }
        assert!(decode_u64s_into(&[1, 2, 3], &mut []).is_err());
    }

    #[test]
    fn apply_matches_semantics() {
        assert_eq!(ReduceOp::Max.apply(3, 9), 9);
        assert_eq!(ReduceOp::Min.apply(3, 9), 3);
        assert_eq!(ReduceOp::Sum.apply(3, 9), 12);
        assert_eq!(ReduceOp::Sum.apply(u64::MAX, 1), 0);
    }

    #[test]
    fn identity_is_neutral() {
        for op in ReduceOp::ALL {
            for v in [0u64, 1, 17, u64::MAX] {
                assert_eq!(op.apply(op.identity(), v), v);
                assert_eq!(op.apply(v, op.identity()), v);
            }
        }
    }

    #[test]
    fn operators_are_associative_and_commutative() {
        // Seeded triples, including the wrap-around edge values: the
        // collectives' correctness under arbitrary reduction orders (ring vs
        // tree vs pairwise) stands on exactly these two laws.
        let vals = {
            let mut v = values(0xA11CE, 64);
            v.extend([0, 1, u64::MAX, u64::MAX - 1, 1 << 63]);
            v
        };
        for op in ReduceOp::ALL {
            for (i, &a) in vals.iter().enumerate() {
                for &b in &vals[i..] {
                    assert_eq!(op.apply(a, b), op.apply(b, a), "{op:?} commutativity");
                    for &c in vals.iter().step_by(7) {
                        assert_eq!(
                            op.apply(op.apply(a, b), c),
                            op.apply(a, op.apply(b, c)),
                            "{op:?} associativity"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn apply_slice_is_elementwise_apply() {
        for op in ReduceOp::ALL {
            let mut acc = values(1, 33);
            let other = values(2, 33);
            let want: Vec<u64> =
                acc.iter().zip(&other).map(|(&a, &b)| op.apply(a, b)).collect();
            op.apply_slice(&mut acc, &other);
            assert_eq!(acc, want, "{op:?}");
        }
        // Empty vectors are a no-op, not an error (zero-sized segments are
        // legal collective inputs).
        ReduceOp::Sum.apply_slice(&mut [], &[]);
    }

    #[test]
    fn apply_bytes_is_apply_slice_of_the_decoded_payload() {
        for op in ReduceOp::ALL {
            for n in 0..=33usize {
                let acc = values(3 + n as u64, n);
                let other = values(4 + n as u64, n);
                let wire = wire(&other);
                let mut decoded = vec![0u64; n];
                decode_u64s_into(&wire, &mut decoded).unwrap();
                assert_eq!(decoded, other, "n={n}");
                let mut want = acc.clone();
                op.apply_slice(&mut want, &decoded);
                let mut got = acc.clone();
                op.apply_bytes(&mut got, &wire).unwrap();
                assert_eq!(got, want, "{op:?} n={n}");
                // A byte short, a byte over, a word over: typed errors.
                let short = &wire[..wire.len().saturating_sub(1)];
                for bad in [short, &[&wire[..], &[0]].concat(), &[&wire[..], &[0; 8]].concat()] {
                    if bad.len() != wire.len() {
                        assert!(op.apply_bytes(&mut got, bad).is_err(), "{op:?} n={n} len {}", bad.len());
                        assert!(decode_u64s_into(bad, &mut decoded).is_err(), "n={n} len {}", bad.len());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mismatched vector lengths")]
    fn apply_slice_rejects_length_mismatch() {
        ReduceOp::Sum.apply_slice(&mut [1, 2], &[3]);
    }
}
