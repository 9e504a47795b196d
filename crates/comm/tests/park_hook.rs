//! A park is control flow, not a panic: it never reaches a panic hook, not
//! even one installed after the runtime first ran, while a real rank panic
//! still does. Its own test binary, because panic hooks are process-global.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bruck_comm::{CallOutput, Communicator, EventComm, EventVerifyOpts, Port, SimConfig};

/// Rank 0 parks in a closure-level receive, then both ranks park inside a
/// stored call: the three kinds of unwind a park used to raise.
fn parking_pair(comm: &EventComm<'_>) -> Vec<u8> {
    let (me, peer) = (comm.rank(), 1 - comm.rank());
    let mut got = Vec::new();
    if me == 0 {
        got.extend(comm.recv(peer, 5).unwrap());
    } else {
        comm.send(peer, 5, &[5]).unwrap();
    }
    let hook = comm.resumable().expect("a bare EventComm offers its hook");
    let out = hook
        .call(|port| {
            Box::pin(async move {
                let (first, second) = if me == 0 { (6, 7) } else { (7, 6) };
                if me == 0 {
                    port.send_buf(peer, first, vec![first as u8].into())?;
                }
                let msg = port.recv_match(peer, second, usize::MAX).await?;
                if me == 1 {
                    port.send_buf(peer, first, vec![first as u8].into())?;
                }
                Ok(CallOutput {
                    bytes: msg.to_vec(),
                    counts: Vec::new(),
                })
            })
        })
        .unwrap();
    got.extend(out.bytes);
    got
}

#[test]
fn a_park_never_reaches_a_panic_hook() {
    EventComm::run_pooled(2, 1, parking_pair);
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    std::panic::set_hook(Box::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));
    let (out, report) = EventComm::run_report(2, 1, parking_pair);
    let after_parks = calls.load(Ordering::SeqCst);
    // A scheduled run keeps a rank's panic as its outcome, so the panic in
    // the closure is the only one the hook can see.
    let failed = EventComm::run_scheduled(
        2,
        &SimConfig::from_seed(1),
        EventVerifyOpts::default(),
        |comm| {
            if comm.rank() == 0 {
                panic!("a real bug on rank 0");
            }
        },
    );
    let after_panic = calls.load(Ordering::SeqCst);
    drop(std::panic::take_hook());
    assert_eq!(out, [vec![5, 7], vec![6]]);
    assert_eq!(report.parks.recv, 3, "the world parked");
    assert_eq!(after_parks, 0, "parks reached the panic hook");
    assert!(matches!(&failed.outcomes[0], Some(Err(msg)) if msg.contains("a real bug")));
    assert_eq!(after_panic, 1, "a rank panic reaches the hook once");
}
