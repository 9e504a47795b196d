//! Local tuple storage: the closure shard [`TupleSet`], and the join side
//! [`Relation`] with its index on the first column. Both hash with
//! [`WordHasher`].

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::kcfa::splitmix64;
use crate::Tuple;

/// The hasher of every tuple-keyed set and map in this crate: each `u64`
/// word is folded in by rotate, xor and multiply, and [`Hasher::finish`] runs
/// the `splitmix64` avalanche over the state.
///
/// It is unkeyed, so a set's iteration order depends only on what was
/// inserted, in which order — on every run, thread and process. That is the
/// trust model [`crate::owner`] already has: tuples are program data, not
/// adversarial input.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

/// Odd multiplier of the word fold (the 64-bit golden ratio).
const FOLD: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(23) ^ word).wrapping_mul(FOLD);
    }

    /// Little-endian `u64` words, the last one zero-padded. Tuples never
    /// come here: `(u64, u64)` hashes as two [`Hasher::write_u64`] calls.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// [`WordHasher`] as a `HashSet` / `HashMap` parameter.
type WordHash = BuildHasherDefault<WordHasher>;

/// A set of tuples under the unkeyed word hash: what a fixpoint stores its
/// result in (each path once, no join index), and iterates in an order that
/// depends only on its inserts.
pub type TupleSet = HashSet<Tuple, WordHash>;

/// The join side of a semi-naive step (a rank's shard of the edges): a
/// deduplicating tuple set plus an index keyed by the first column, which is
/// what [`Relation::join_on_first`] probes. Each index list keeps its
/// insertion order, so a join emits in probe order, then insertion order.
#[derive(Debug, Default, Clone)]
pub struct Relation {
    tuples: TupleSet,
    index: HashMap<u64, Vec<u64>, WordHash>,
}

impl Relation {
    /// Empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of tuples (deduplicating).
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut r = Relation::new();
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// Insert; returns true if the tuple is new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        if self.tuples.insert(t) {
            self.index.entry(t.0).or_default().push(t.1);
            true
        } else {
            false
        }
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All second-column values paired with `key` in the first column.
    pub fn matches(&self, key: u64) -> &[u64] {
        self.index.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Iterate tuples (hash order: the same for the same inserts).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Join: for each `(x, y)` in `probe`, emit `f(x, z)` for each `(y, z)`
    /// here (probe's second column against our first column — the TC step).
    pub fn join_on_first<F: FnMut(u64, u64, u64)>(&self, probe: &[Tuple], mut f: F) {
        for &(x, y) in probe {
            for &z in self.matches(y) {
                f(x, y, z);
            }
        }
    }
}

impl FromIterator<Tuple> for Relation {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        Self::from_tuples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(t: Tuple) -> u64 {
        WordHash::default().hash_one(t)
    }

    #[test]
    fn insert_dedups_and_indexes() {
        let mut r = Relation::new();
        assert!(r.insert((1, 2)));
        assert!(!r.insert((1, 2)));
        assert!(r.insert((1, 3)));
        assert_eq!(r.len(), 2);
        assert_eq!(r.matches(1), [2, 3]);
        assert!(r.matches(9).is_empty());
    }

    #[test]
    fn join_on_first_matches_nested_loops() {
        let e = Relation::from_tuples([(2u64, 10u64), (2, 11), (3, 12)]);
        let probe = vec![(100u64, 2u64), (101, 3), (102, 4)];
        let mut got = Vec::new();
        e.join_on_first(&probe, |x, _y, z| got.push((x, z)));
        got.sort_unstable();
        assert_eq!(got, vec![(100, 10), (100, 11), (101, 12)]);
    }

    #[test]
    fn from_iterator_collects() {
        let r: Relation = [(1u64, 1u64), (1, 1), (2, 2)].into_iter().collect();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&(2, 2)));
    }

    #[test]
    fn tuple_sets_with_the_same_inserts_iterate_alike() {
        // Under a keyed hasher (std's `RandomState`) each set draws its own
        // keys, and these orders differ.
        let tuples: Vec<Tuple> = (0..1000u64).map(|i| (splitmix64(i) % 97, i)).collect();
        let a: TupleSet = tuples.iter().copied().collect();
        let b: TupleSet = tuples.iter().copied().collect();
        assert!(a.iter().eq(b.iter()));
        let ra = Relation::from_tuples(tuples.iter().copied());
        let rb = Relation::from_tuples(tuples.iter().copied());
        assert!(ra.iter().eq(rb.iter()));
    }

    #[test]
    fn the_word_hash_is_pinned() {
        // Changing the fold or the finisher moves every set's iteration
        // order; do it on purpose, then re-pin.
        let golden: [(Tuple, u64); 4] = [
            ((0, 0), 0xE220_A839_7B1D_CDAF),
            ((0, 1), 0x6E78_9E6A_A1B9_65F4),
            ((1, 0), 0xDB2F_5323_BAAA_AB28),
            ((u64::MAX, 42), 0x5F22_7F31_383E_F07A),
        ];
        for (t, want) in golden {
            assert_eq!(hash(t), want, "{t:?}: {:#018X}", hash(t));
        }
        // A key of the index is one word.
        assert_eq!(WordHash::default().hash_one(7u64), splitmix64(7u64.wrapping_mul(FOLD)));
    }

    #[test]
    fn small_tuples_spread_over_control_bytes_and_buckets() {
        // Every (a, b) with a, b < 256: the top 7 bits (hashbrown's control
        // byte) must take all 128 values, and the low 16 bits must load a
        // 2^16-slot table like a random function would. Poisson(1) over 2^16
        // slots peaks near 8; the bound is 12, named before the first run.
        let mut control = [false; 128];
        let mut slots = vec![0u32; 1 << 16];
        for a in 0..256u64 {
            for b in 0..256u64 {
                let h = hash((a, b));
                control[(h >> 57) as usize] = true;
                slots[(h & 0xFFFF) as usize] += 1;
            }
        }
        assert!(control.iter().all(|&seen| seen), "control bytes missed");
        let worst = slots.iter().copied().max().unwrap_or(0);
        assert!(worst <= 12, "worst bucket holds {worst} tuples");
    }
}
