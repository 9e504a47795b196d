//! Schedule-independence sweep for survivor agreement: across many
//! simulator seeds (each a different interleaving), every live rank must
//! decide the *same* survivor set and dirty verdict — including when a rank
//! crashes in the middle of the agreement itself, and when suspicion
//! evidence starts out one-sided.

use std::time::Duration;

use bruck_comm::{
    agree_survivors, CommError, Communicator, FaultComm, FaultPlan, SimComm, SimConfig, Suspicion,
};

const SEEDS: u64 = 20;

const ROUND: Duration = Duration::from_millis(400);

/// Healthy world, no suspicions: every seed, every rank decides the full
/// membership, clean.
#[test]
fn healthy_agreement_is_schedule_independent() {
    let p = 5;
    for seed in 0..SEEDS {
        let report = SimComm::try_run(p, &SimConfig::from_seed(seed), move |comm| {
            let members: Vec<usize> = (0..p).collect();
            agree_survivors(comm, &members, 7, ROUND, &Suspicion::none(p), false)
        });
        for (rank, out) in report.outcomes.iter().enumerate() {
            let o = out.as_ref().expect("no panic").as_ref().unwrap();
            assert_eq!(o.survivors, vec![0, 1, 2, 3, 4], "seed {seed} rank {rank}");
            assert!(!o.dirty, "seed {seed} rank {rank}");
            assert!(!o.evicted_me, "seed {seed} rank {rank}");
        }
    }
}

/// One-sided evidence: only rank 0 initially suspects the absent rank 2;
/// flooding must converge every live rank on the same eviction.
#[test]
fn one_sided_suspicion_converges_across_schedules() {
    let p = 5;
    let absent = 2usize;
    for seed in 0..SEEDS {
        let report = SimComm::try_run(p, &SimConfig::from_seed(seed), move |comm| {
            let me = comm.rank();
            if me == absent {
                // Plays dead: never enters the agreement.
                return Ok(None);
            }
            let members: Vec<usize> = (0..p).collect();
            let mut susp = Suspicion::none(p);
            if me == 0 {
                susp.set(absent);
            }
            agree_survivors(comm, &members, 3, ROUND, &susp, false).map(Some)
        });
        for (rank, out) in report.outcomes.iter().enumerate() {
            let o = out.as_ref().expect("no panic").as_ref().unwrap();
            if rank == absent {
                assert!(o.is_none());
                continue;
            }
            let o = o.as_ref().unwrap();
            assert_eq!(o.survivors, vec![0, 1, 3, 4], "seed {seed} rank {rank}");
            assert!(!o.evicted_me, "seed {seed} rank {rank}");
        }
    }
}

/// A rank crashes *mid-agreement* (after a few data ops inside the
/// protocol): the live ranks must still converge, on every schedule, to the
/// same survivor set — and the dirty votes of the live ranks must survive
/// the extra failure round.
#[test]
fn crash_mid_agreement_still_converges() {
    let p = 5;
    let victim = 3usize;
    for seed in 0..SEEDS {
        let report = SimComm::try_run(p, &SimConfig::from_seed(seed), move |comm| {
            // The victim's first few sends go through (so peers see its
            // round-0 frame on many schedules), then it dies mid-protocol.
            let fc = FaultComm::new(comm, FaultPlan::new(seed).with_crash(victim, 3));
            let members: Vec<usize> = (0..p).collect();
            let dirty = fc.rank() == 1; // one live rank votes dirty
            agree_survivors(&fc, &members, 11, ROUND, &Suspicion::none(p), dirty)
        });
        let mut decisions: Vec<(Vec<usize>, bool)> = Vec::new();
        for (rank, out) in report.outcomes.iter().enumerate() {
            let res = out.as_ref().expect("no panic");
            if rank == victim {
                assert!(
                    matches!(
                        res,
                        Err(CommError::RankFailed { .. } | CommError::Timeout { .. })
                    ),
                    "seed {seed}: victim must fail typed, got {res:?}"
                );
                continue;
            }
            let o = res.as_ref().unwrap();
            assert!(!o.evicted_me, "seed {seed} rank {rank}");
            assert!(
                !o.survivors.contains(&victim),
                "seed {seed} rank {rank}: victim evicted"
            );
            assert!(o.dirty, "seed {seed} rank {rank}: rank 1's dirty vote must flood");
            decisions.push((o.survivors.clone(), o.dirty));
        }
        for d in &decisions[1..] {
            assert_eq!(d, &decisions[0], "seed {seed}: all live ranks agree exactly");
        }
    }
}

/// Same seed, two runs: the decision (and round count) must be bit-equal —
/// the agreement is deterministic under the simulator, not merely
/// convergent.
#[test]
fn same_seed_reruns_are_identical() {
    let p = 4;
    let run = |seed: u64| {
        SimComm::try_run(p, &SimConfig::from_seed(seed), move |comm| {
            let members: Vec<usize> = (0..p).collect();
            let mut susp = Suspicion::none(p);
            if comm.rank() == 2 {
                susp.set(0); // false, one-sided accusation of a live rank
            }
            agree_survivors(comm, &members, 5, ROUND, &susp, comm.rank() == 0)
                .map(|o| (o.survivors, o.suspected.positions(), o.rounds, o.dirty))
        })
    };
    for seed in [0u64, 3, 9, 14] {
        let a = run(seed);
        let b = run(seed);
        for (rank, (x, y)) in a.outcomes.iter().zip(b.outcomes.iter()).enumerate() {
            let x = x.as_ref().expect("no panic").as_ref().unwrap();
            let y = y.as_ref().expect("no panic").as_ref().unwrap();
            assert_eq!(x, y, "seed {seed} rank {rank}");
        }
    }
}
