//! [`Port`]: the point-to-point surface the step loops are written against
//! once, as `async fn`s, and the two ways they are driven.
//!
//! A loop that only sends and receives needs four things of its transport:
//! who it is ([`Port::rank`], [`Port::size`]), an eager send
//! ([`Port::send_buf`]) and a receive that may have to wait
//! ([`Port::recv_match`], a future). Written over that surface, one body
//! serves both ways of running it:
//!
//! * **Blocking.** [`Blocking`] borrows any [`Communicator`]; its receive
//!   performs the communicator's blocking `recv_match` when polled, so its
//!   futures are always ready and [`block_on`] finishes the loop in one poll.
//!   The communicator sees exactly the op sequence a synchronous loop would
//!   issue, so `ThreadComm`, `SimComm`, `SubComm`, every wrapper and a
//!   wrapped `EventComm` behave as they always did.
//! * **Resumed.** A bare `EventComm` offers a hook
//!   ([`Communicator::resumable`]) that takes the loop as a `'static` future
//!   owning its inputs: a receive that cannot complete parks the task, and
//!   the runtime keeps the future across the park, so a wake polls it where
//!   it stopped, not the closure (`event.rs`, "How a task blocks").

use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::{CommError, CommResult, Communicator, MsgBuf, Tag};

/// The point-to-point surface of the step loops. Every receive is untimed;
/// a match longer than `max_len` is [`CommError::Truncated`] and stays
/// queued, exactly as [`Communicator::recv_match`].
pub trait Port: Sync {
    /// This rank in `0..size`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Eager zero-copy send ([`Communicator::send_buf`]).
    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()>;

    /// The oldest message on `(src, tag)`, once there is one.
    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
    ) -> impl Future<Output = CommResult<MsgBuf>> + Send + '_;

    /// A payload whose length the caller knows ([`Communicator::recv_exact`]):
    /// a longer one is [`CommError::Truncated`] and stays queued, a shorter
    /// one [`CommError::BadArgument`].
    fn recv_exact(
        &self,
        src: usize,
        tag: Tag,
        len: usize,
    ) -> impl Future<Output = CommResult<MsgBuf>> + Send + '_ {
        async move {
            let msg = self.recv_match(src, tag, len).await?;
            if msg.len() != len {
                return Err(CommError::BadArgument("short collective payload"));
            }
            Ok(msg)
        }
    }
}

/// The blocking adapter: a [`Port`] over a borrowed [`Communicator`] whose
/// receive completes (or fails) the moment it is polled.
pub struct Blocking<'a, C: ?Sized>(pub &'a C);

impl<C: Communicator + ?Sized> Port for Blocking<'_, C> {
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
        self.0.send_buf(dest, tag, buf)
    }

    #[inline]
    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
    ) -> impl Future<Output = CommResult<MsgBuf>> + Send + '_ {
        async move { self.0.recv_match(src, tag, max_len, Duration::MAX) }
    }
}

/// Drive a loop over [`Blocking`] to its end: one poll.
///
/// # Panics
/// If the future is not ready after that poll — only a future that awaits
/// something other than a blocking port can be.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    match pin!(fut).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("block_on: a blocking port's future is always ready"),
    }
}
