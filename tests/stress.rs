//! Stress and robustness tests: larger communicators, repeated exchanges,
//! concurrent independent worlds, and determinism across runs.

use bruck_comm::{Communicator, ThreadComm};
use bruck_core::{alltoallv, packed_displs, AlltoallvAlgorithm};
use bruck_workload::{Distribution, SizeMatrix};

/// P = 64 threads, every algorithm, one pass: the biggest smoke test.
#[test]
fn all_algorithms_at_p64() {
    let p = 64;
    let m = SizeMatrix::generate(Distribution::Uniform, 0x64, p, 48);
    for algo in [
        AlltoallvAlgorithm::SpreadOut,
        AlltoallvAlgorithm::Vendor,
        AlltoallvAlgorithm::PaddedBruck,
        AlltoallvAlgorithm::PaddedAlltoall,
        AlltoallvAlgorithm::TwoPhaseBruck,
        AlltoallvAlgorithm::Sloav,
        AlltoallvAlgorithm::Hierarchical,
        AlltoallvAlgorithm::RankaTwoStage,
    ] {
        run_and_verify(algo, &m);
    }
}

fn run_and_verify(algo: AlltoallvAlgorithm, m: &SizeMatrix) {
    let p = m.p();
    ThreadComm::run(p, |comm| {
        let me = comm.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
        for (i, b) in sendbuf.iter_mut().enumerate() {
            *b = (me.wrapping_mul(37) ^ i) as u8;
        }
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        alltoallv(algo, comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls)
            .unwrap();
        for src in 0..p {
            for i in 0..recvcounts[src] {
                // Reconstruct the sender-side byte: block src→me starts at
                // sender's sdispls[me].
                let sender_counts = m.sendcounts(src);
                let sender_displs = packed_displs(&sender_counts);
                let expect = (src.wrapping_mul(37) ^ (sender_displs[me] + i)) as u8;
                assert_eq!(recvbuf[rdispls[src] + i], expect, "{algo:?} src={src} i={i}");
            }
        }
    });
}

/// Hundreds of back-to-back exchanges reusing one counts handshake: no tag
/// leakage, no mailbox growth, stable results.
#[test]
fn repeated_exchanges_are_stable() {
    let p = 8;
    let m = SizeMatrix::generate(Distribution::Normal, 5, p, 64);
    let world = bruck_comm::World::new(p);
    std::thread::scope(|scope| {
        for rank in 0..p {
            let world = std::sync::Arc::clone(&world);
            let m = &m;
            scope.spawn(move || {
                let comm = ThreadComm::new(world, rank);
                repeated_exchange_body(&comm, m);
            });
        }
    });
    // Only after every rank has finished is "no undelivered messages" a
    // stable property.
    assert_eq!(world.pending_messages(), 0);
}

fn repeated_exchange_body(comm: &ThreadComm, m: &SizeMatrix) {
    {
        let me = comm.rank();
        let sendcounts = m.sendcounts(me);
        let recvcounts = comm.alltoall_counts(&sendcounts).unwrap();
        let (sdispls, rdispls) = (packed_displs(&sendcounts), packed_displs(&recvcounts));
        let sendbuf = vec![me as u8; sendcounts.iter().sum()];
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        let mut first: Option<Vec<u8>> = None;
        for _ in 0..200 {
            alltoallv(
                AlltoallvAlgorithm::TwoPhaseBruck,
                comm,
                &sendbuf,
                &sendcounts,
                &sdispls,
                &mut recvbuf,
                &recvcounts,
                &rdispls,
            )
            .unwrap();
            match &first {
                None => first = Some(recvbuf.clone()),
                Some(f) => assert_eq!(f, &recvbuf),
            }
        }
    }
}

/// Two independent worlds running different algorithms concurrently must not
/// interfere (separate mailboxes, no global state).
#[test]
fn concurrent_worlds_are_isolated() {
    let t1 = std::thread::spawn(|| {
        let m = SizeMatrix::generate(Distribution::Uniform, 1, 6, 32);
        for _ in 0..20 {
            run_and_verify(AlltoallvAlgorithm::TwoPhaseBruck, &m);
        }
    });
    let t2 = std::thread::spawn(|| {
        let m = SizeMatrix::generate(Distribution::POWER_LAW_STEEP, 2, 5, 64);
        for _ in 0..20 {
            run_and_verify(AlltoallvAlgorithm::Sloav, &m);
        }
    });
    t1.join().unwrap();
    t2.join().unwrap();
}

/// Interleaving two different algorithms on the same communicator (as the
/// BPRA applications do when switching per iteration) stays correct.
#[test]
fn alternating_algorithms_on_one_communicator() {
    let p = 10;
    let m = SizeMatrix::generate(Distribution::Uniform, 9, p, 40);
    ThreadComm::run(p, |comm| {
        let me = comm.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let sendbuf = vec![me as u8; sendcounts.iter().sum()];
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        let algos = [
            AlltoallvAlgorithm::TwoPhaseBruck,
            AlltoallvAlgorithm::Vendor,
            AlltoallvAlgorithm::PaddedBruck,
            AlltoallvAlgorithm::RankaTwoStage,
            AlltoallvAlgorithm::Hierarchical,
        ];
        for round in 0..25 {
            let algo = algos[round % algos.len()];
            recvbuf.fill(0);
            alltoallv(
                algo, comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
            )
            .unwrap();
            for src in 0..p {
                assert!(recvbuf[rdispls[src]..rdispls[src] + recvcounts[src]]
                    .iter()
                    .all(|&b| b == src as u8));
            }
        }
    });
}

/// Extremely skewed loads: one rank floods, everyone else is silent.
#[test]
fn flood_from_one_rank() {
    let p = 12;
    let mut rows = vec![vec![0usize; p]; p];
    for (d, cell) in rows[5].iter_mut().enumerate() {
        *cell = 4000 + d;
    }
    let m = SizeMatrix::from_rows(rows);
    for algo in
        [AlltoallvAlgorithm::TwoPhaseBruck, AlltoallvAlgorithm::PaddedBruck, AlltoallvAlgorithm::Sloav]
    {
        run_and_verify(algo, &m);
    }
}

/// `recv_timeout` honors its deadline even while the mailbox is being
/// hammered by a full-matrix flood on other tags. Runs under the
/// deterministic simulator's virtual clock, so the timed receive must fire
/// at *exactly* the budget — no "generous CI slack" epsilon, no wall-clock
/// flakiness, and the whole 100 ms wait costs zero real time. Swept over
/// several schedule seeds to cover different flood interleavings.
#[test]
fn recv_timeout_holds_deadline_under_full_matrix_load() {
    use std::time::Duration;
    use bruck_comm::SimComm;
    let p = 16;
    let deadline = Duration::from_millis(100);
    for sched_seed in [1u64, 2, 3] {
        SimComm::run(p, sched_seed, move |comm| {
            let me = comm.rank();
            // Flood: everyone sends bursts to everyone on tag 1...
            for round in 0..20 {
                for dest in 0..p {
                    if dest != me {
                        comm.send(dest, 1, &[round as u8; 256]).unwrap();
                    }
                }
            }
            // ...while every rank waits on a tag nobody ever sends.
            let err = comm.recv_timeout((me + 1) % p, 77, deadline).unwrap_err();
            match err {
                bruck_comm::CommError::Timeout { src, tag, waited } => {
                    assert_eq!(src, (me + 1) % p);
                    assert_eq!(tag, 77);
                    assert_eq!(
                        waited, deadline,
                        "rank {me} seed {sched_seed}: virtual wait must equal the budget exactly"
                    );
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
            // Drain the flood so the world ends clean.
            for _ in 0..20 {
                for src in 0..p {
                    if src != me {
                        comm.recv(src, 1).unwrap();
                    }
                }
            }
        });
    }
}

/// End-to-end fault-injection determinism: the same seed must produce the
/// same per-rank fault sequence regardless of how the ranks interleave
/// (decisions are keyed on per-edge message indices, not arrival order).
/// Runs under the deterministic simulator, which makes the claim *provable*
/// rather than probabilistic: the OS is out of the loop entirely, and
/// sweeping the schedule seed exercises interleavings a wall-clock run
/// might never hit.
#[test]
fn fault_injection_is_deterministic_across_runs() {
    use bruck_comm::{FaultComm, FaultPlan, SimComm};
    let p = 4;
    let run_once = |seed: u64, sched_seed: u64| -> Vec<Vec<bruck_comm::FaultEvent>> {
        let run = SimComm::run(p, sched_seed, move |comm| {
            let plan = FaultPlan::new(seed).with_drop(0.2).with_duplicate(0.2).with_corrupt(0.2);
            let fc = FaultComm::new(comm, plan);
            let me = fc.rank();
            // Fixed traffic: every rank sends 25 messages to each peer, then
            // drains whatever was actually delivered (drop/duplicate change
            // delivery counts, so drain by probe, not by expected count).
            for i in 0..25u8 {
                for dest in 0..p {
                    if dest != me {
                        fc.send(dest, 3, &[i, me as u8]).unwrap();
                    }
                }
            }
            // Synchronize on the *underlying* comm (fault-free), then drain
            // whatever the faulty edges actually delivered: eager sends have
            // all landed before the barrier completes, so probe sees it all.
            comm.barrier().unwrap();
            for src in 0..p {
                while comm.probe(src, 3).unwrap().is_some() {
                    comm.recv(src, 3).unwrap();
                }
            }
            fc.log()
        });
        run.results
    };
    let a = run_once(0xFA, 1);
    let b = run_once(0xFA, 1);
    assert_eq!(a, b, "same seed and schedule must inject the identical fault sequence");
    // Stronger than the wall-clock version could ever assert: a *different
    // interleaving* still yields the identical fault log, because decisions
    // key on per-edge message indices.
    let c = run_once(0xFA, 2);
    assert_eq!(a, c, "fault decisions must be independent of the schedule");
    let d = run_once(0xFB, 1);
    assert_ne!(a, d, "different seeds must diverge");
}

/// Every algorithm remains correct under adversarial schedule perturbation.
#[test]
fn all_algorithms_survive_chaos() {
    use bruck_comm::{FaultComm, FaultPlan};
    let p = 9;
    let m = SizeMatrix::generate(Distribution::Uniform, 0xC4A05, p, 48);
    for seed in 0..3u64 {
        for algo in [
            AlltoallvAlgorithm::SpreadOut,
            AlltoallvAlgorithm::Vendor,
            AlltoallvAlgorithm::PaddedBruck,
            AlltoallvAlgorithm::TwoPhaseBruck,
            AlltoallvAlgorithm::Sloav,
            AlltoallvAlgorithm::Hierarchical,
            AlltoallvAlgorithm::RankaTwoStage,
        ] {
            ThreadComm::run(p, |comm| {
                // Delay-only plan: every cross-rank send spin-yields a seeded
                // amount first, reordering it against concurrent senders.
                let chaos = FaultComm::new(comm, FaultPlan::new(seed).with_delay(1.0, 64));
                let me = chaos.rank();
                let sendcounts = m.sendcounts(me);
                let sdispls = packed_displs(&sendcounts);
                let sendbuf = vec![me as u8; sendcounts.iter().sum()];
                let recvcounts = m.recvcounts(me);
                let rdispls = packed_displs(&recvcounts);
                let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
                alltoallv(
                    algo, &chaos, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts,
                    &rdispls,
                )
                .unwrap();
                for src in 0..p {
                    assert!(
                        recvbuf[rdispls[src]..rdispls[src] + recvcounts[src]]
                            .iter()
                            .all(|&b| b == src as u8),
                        "{algo:?} seed {seed}"
                    );
                }
            });
        }
    }
}
