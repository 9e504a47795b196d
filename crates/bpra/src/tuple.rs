//! Binary relation tuples and their wire encoding.

use bruck_comm::{CommError, CommResult};

/// A binary relation tuple (the BPRA papers' relations are sets of arity-2
/// facts: graph edges, analysis facts).
pub type Tuple = (u64, u64);

/// Bytes per encoded tuple.
pub const TUPLE_BYTES: usize = 16;

/// Append a tuple's little-endian encoding to a byte buffer.
#[inline]
pub fn encode_into(t: Tuple, out: &mut Vec<u8>) {
    out.extend_from_slice(&t.0.to_le_bytes());
    out.extend_from_slice(&t.1.to_le_bytes());
}

/// Encode a slice of tuples.
pub fn encode_all(tuples: &[Tuple]) -> Vec<u8> {
    let mut out = Vec::with_capacity(tuples.len() * TUPLE_BYTES);
    for &t in tuples {
        encode_into(t, &mut out);
    }
    out
}

/// Decode a byte buffer produced by [`encode_all`]. The bytes usually came
/// off the wire, so a length that is not a multiple of [`TUPLE_BYTES`] is a
/// [`CommError::BadArgument`].
pub fn decode_all(bytes: &[u8]) -> CommResult<Vec<Tuple>> {
    let mut out = Vec::with_capacity(bytes.len() / TUPLE_BYTES);
    decode_into(bytes, &mut out)?;
    Ok(out)
}

/// [`decode_all`], appending to `out`.
pub(crate) fn decode_into(bytes: &[u8], out: &mut Vec<Tuple>) -> CommResult<()> {
    if !bytes.len().is_multiple_of(TUPLE_BYTES) {
        return Err(CommError::BadArgument("truncated tuple buffer"));
    }
    out.extend(bytes.chunks_exact(TUPLE_BYTES).map(|c| (le_u64(&c[..8]), le_u64(&c[8..]))));
    Ok(())
}

/// The little-endian `u64` in the first eight bytes of `bytes`.
#[inline]
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|b| bytes[b]))
}

/// The rank that owns a value under hash partitioning (FNV-1a, stable across
/// platforms so distributed runs agree on ownership).
#[inline]
pub fn owner(value: u64, p: usize) -> usize {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in value.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    (h % p as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let tuples = vec![(0u64, 1u64), (u64::MAX, 42), (7, 7)];
        assert_eq!(decode_all(&encode_all(&tuples)), Ok(tuples));
    }

    #[test]
    fn empty_roundtrip() {
        assert_eq!(decode_all(&encode_all(&[])), Ok(Vec::<Tuple>::new()));
    }

    #[test]
    fn decode_rejects_truncated() {
        for len in [1, 15, 17, 31] {
            assert_eq!(
                decode_all(&vec![0u8; len]),
                Err(CommError::BadArgument("truncated tuple buffer")),
                "{len} bytes"
            );
        }
    }

    #[test]
    fn owner_is_stable_and_in_range() {
        for p in [1usize, 2, 7, 64] {
            for v in [0u64, 1, 999, u64::MAX] {
                let o = owner(v, p);
                assert!(o < p);
                assert_eq!(o, owner(v, p), "deterministic");
            }
        }
    }

    #[test]
    fn owner_spreads_values() {
        let p = 16;
        let mut counts = vec![0usize; p];
        for v in 0..10_000u64 {
            counts[owner(v, p)] += 1;
        }
        // Roughly balanced: each bucket within 3x of the mean.
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 200 && c < 1875, "bucket {i} holds {c}");
        }
    }
}
