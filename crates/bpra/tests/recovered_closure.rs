//! A fixpoint that survives rank failures is one operation for
//! `bruck_core::recovering` (DESIGN.md §14.5). Healthy, it pays one confirm
//! for the whole closure and sends exactly the plain closure's bytes.

use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hasher};
use std::sync::Mutex;
use std::time::Duration;

use bruck_bpra::{graph2_like, transitive_closure, TcResult, Tuple};
use bruck_comm::{
    CommResult, Communicator, MsgBuf, Tag, ThreadComm, RESERVED_TAG_BASE, SUBCOMM_MAX_TAG,
};
use bruck_core::{recovering, AlltoallvAlgorithm, RecoveringConfig, RecoveryOutcome};

/// Forwards to `inner` and digests every payload it sends, in send order.
struct Digesting<'a, C: Communicator + ?Sized> {
    inner: &'a C,
    sent: Mutex<Vec<(usize, Tag, u64)>>,
}

impl<C: Communicator + ?Sized> Communicator for Digesting<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        let mut h = DefaultHasher::new();
        h.write(&buf);
        self.sent.lock().unwrap().push((dest, tag, h.finish()));
        self.inner.send_buf(dest, tag, buf)
    }
    fn recv_match(&self, src: usize, tag: Tag, max: usize, wait: Duration) -> CommResult<MsgBuf> {
        self.inner.recv_match(src, tag, max, wait)
    }
    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        self.inner.probe(src, tag)
    }
    fn now(&self) -> Duration {
        self.inner.now()
    }
    fn sleep(&self, d: Duration) {
        self.inner.sleep(d)
    }
    fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
        self.inner.wait_arrival(seen, timeout)
    }
}

/// The tag bits a `ShrinkComm` folds its epoch context into.
const CTX_BITS: Tag = 0x3F << 24;
/// The failure detector's block: a (ping, pong) pair per epoch.
const DETECT: Tag = RESERVED_TAG_BASE + 0x3000;
/// The agreement flood's block: one tag per epoch.
const AGREE: Tag = RESERVED_TAG_BASE + 0x3100;

/// What a rank's closure computed, and every payload it sent.
type Run = ((Vec<Tuple>, u64), Vec<(usize, Tag, u64)>);

fn closure_of(r: TcResult) -> (Vec<Tuple>, u64) {
    let mut shard: Vec<Tuple> = r.local_paths.iter().copied().collect();
    shard.sort_unstable();
    (shard, r.total_paths)
}

/// The data-plane sends, tags without the context bits.
fn data(sent: &[(usize, Tag, u64)]) -> Vec<(usize, Tag, u64)> {
    let data = sent.iter().filter(|(_, tag, _)| *tag < RESERVED_TAG_BASE);
    data.map(|&(dest, tag, h)| (dest, tag % SUBCOMM_MAX_TAG, h)).collect()
}

/// The epochs of the sends on a reserved block `width` tags wide, `per`
/// tags to an epoch.
fn epochs(sent: &[(usize, Tag, u64)], base: Tag, width: Tag, per: Tag) -> BTreeSet<Tag> {
    let tags = sent.iter().map(|(_, tag, _)| tag & !CTX_BITS);
    tags.filter(|tag| (base..base + width).contains(tag)).map(|tag| (tag - base) / per).collect()
}

#[test]
fn a_healthy_recovered_closure_is_one_confirm_around_the_plain_closure_s_bytes() {
    // Recovering each round of the closure on its own paid a detector sweep
    // and an agreement flood per round, each on its own epoch's tags, around
    // a planned exchange carrying control tuples. As one operation, the
    // whole fixpoint is one attempt: its data plane is the plain closure's,
    // payload for payload, and its confirm is epoch 0's alone.
    let (p, algo) = (3, AlltoallvAlgorithm::TwoPhaseBruck);
    let edges = graph2_like(32, 80, 7);
    let plain: Vec<Run> = ThreadComm::run(p, |comm| {
        let dc = Digesting { inner: comm, sent: Mutex::default() };
        let r = transitive_closure(&dc, algo, &edges).unwrap();
        (closure_of(r), dc.sent.into_inner().unwrap())
    });
    let recovered: Vec<Run> = ThreadComm::run(p, |comm| {
        let dc = Digesting { inner: comm, sent: Mutex::default() };
        let view: Vec<usize> = (0..p).collect();
        let cfg = RecoveringConfig::default();
        let rec = recovering(&cfg, &dc, &view, |c, _| transitive_closure(c, algo, &edges)).unwrap();
        assert_eq!((rec.outcome, rec.view), (RecoveryOutcome::Complete, view));
        (closure_of(rec.value), dc.sent.into_inner().unwrap())
    });
    for (rank, ((want, plain_sent), (got, sent))) in plain.iter().zip(&recovered).enumerate() {
        assert_eq!(got, want, "rank {rank}");
        assert!(data(plain_sent).len() > 10, "rank {rank}: {plain_sent:?}");
        assert_eq!(data(sent), data(plain_sent), "rank {rank}");
        assert_eq!(epochs(sent, DETECT, 0x100, 2), BTreeSet::from([0]), "rank {rank}");
        assert_eq!(epochs(sent, AGREE, 0x100, 1), BTreeSet::from([0]), "rank {rank}");
        assert!(epochs(plain_sent, DETECT, 0x200, 1).is_empty(), "rank {rank}");
    }
}
