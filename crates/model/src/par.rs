//! Minimal data-parallel map over OS threads (std-only).
//!
//! The sweep and calibration paths are embarrassingly parallel over
//! independent model evaluations; this helper fans a slice out to
//! `available_parallelism` scoped workers that claim indices from a shared
//! atomic counter. Results come back in input order, so callers get
//! deterministic output regardless of scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `f` over `items` on all available cores; results are in input order.
///
/// Work is claimed index-at-a-time from an atomic counter, so uneven item
/// costs (e.g. model traces at very different `P`) still balance. Falls back
/// to a serial map for trivial inputs or single-core machines.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        #[expect(clippy::expect_used, reason = "re-raises a worker's panic, as a serial map would")]
        handles.into_iter().map(|h| h.join().expect("par_map worker panicked")).collect()
    });

    let mut indexed: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&i| i * 2);
        assert_eq!(out, items.iter().map(|&i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_still_completes_in_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = par_map(&items, |&i| {
            // Make early indices expensive to force claim interleaving.
            let mut acc = 0usize;
            for k in 0..(64 - i) * 1000 {
                acc = acc.wrapping_add(k);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }
}
