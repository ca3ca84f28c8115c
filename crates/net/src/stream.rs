//! Nonblocking TCP / Unix-domain streams and listeners driven by the
//! [`Reactor`](crate::reactor::Reactor).
//!
//! [`AsyncStream`] wraps a nonblocking `std` socket registered with the
//! reactor. All I/O methods take `&self` — `&TcpStream` / `&UnixStream`
//! implement `Read`/`Write`, and the reactor caches per-direction
//! readiness separately — so one connection can run a reader task and a
//! writer task concurrently over a shared `Arc<AsyncStream>` without any
//! extra locking.
//!
//! Reads are **drain-aware**: every read future also parks itself on the
//! server's [`DrainSignal`](crate::sync::DrainSignal), so a graceful
//! shutdown preempts a connection that is sitting idle in `read` without
//! closing its socket from under it.

use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::task::{Context, Poll};

use crate::reactor::{Interest, Reactor, Source};
use crate::sync::DrainListener;

/// How a drain-aware read resolved.
pub enum ReadEvent {
    /// `n > 0` bytes were read into the buffer.
    Data(usize),
    /// The peer closed its write half (clean EOF).
    Eof,
    /// The server's drain signal fired before any bytes arrived.
    Drained,
}

enum StreamKind {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// A nonblocking socket registered with a reactor.
pub struct AsyncStream {
    kind: StreamKind,
    source: Arc<Source>,
    reactor: Arc<Reactor>,
}

impl AsyncStream {
    /// Registers an accepted/connected TCP stream.
    pub fn from_tcp(stream: TcpStream, reactor: &Arc<Reactor>) -> io::Result<AsyncStream> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let source = reactor.register(stream.as_raw_fd())?;
        Ok(AsyncStream { kind: StreamKind::Tcp(stream), source, reactor: Arc::clone(reactor) })
    }

    /// Registers an accepted/connected Unix-domain stream.
    pub fn from_unix(stream: UnixStream, reactor: &Arc<Reactor>) -> io::Result<AsyncStream> {
        stream.set_nonblocking(true)?;
        let source = reactor.register(stream.as_raw_fd())?;
        Ok(AsyncStream { kind: StreamKind::Unix(stream), source, reactor: Arc::clone(reactor) })
    }

    fn do_read(&self, buf: &mut [u8]) -> io::Result<usize> {
        match &self.kind {
            StreamKind::Tcp(s) => (&mut &*s).read(buf),
            StreamKind::Unix(s) => (&mut &*s).read(buf),
        }
    }

    fn do_write_vectored(&self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match &self.kind {
            StreamKind::Tcp(s) => (&mut &*s).write_vectored(bufs),
            StreamKind::Unix(s) => (&mut &*s).write_vectored(bufs),
        }
    }

    /// One nonblocking read attempt under the readiness protocol (see the
    /// reactor docs): try, and on `WouldBlock` clear readiness, park, and
    /// re-check to close the wake race.
    pub fn poll_read(&self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
        poll_io(&self.source, Interest::Read, cx, || self.do_read(buf))
    }

    /// One nonblocking gathering write attempt over `bufs`, in order (same
    /// protocol as [`poll_read`]).
    ///
    /// [`poll_read`]: AsyncStream::poll_read
    pub fn poll_write_vectored(
        &self,
        cx: &mut Context<'_>,
        bufs: &[IoSlice<'_>],
    ) -> Poll<io::Result<usize>> {
        poll_io(&self.source, Interest::Write, cx, || self.do_write_vectored(bufs))
    }

    /// Reads at least one byte into `buf`, or resolves `Eof`; with a drain
    /// signal supplied, `Drained` preempts a read that has not started.
    pub async fn read_some(
        &self,
        buf: &mut [u8],
        drain: Option<&DrainListener<'_>>,
    ) -> io::Result<ReadEvent> {
        std::future::poll_fn(|cx| {
            if drain.is_some_and(|d| d.poll_set(cx)) {
                return Poll::Ready(Ok(ReadEvent::Drained));
            }
            match self.poll_read(cx, buf) {
                Poll::Ready(Ok(0)) => Poll::Ready(Ok(ReadEvent::Eof)),
                Poll::Ready(Ok(n)) => Poll::Ready(Ok(ReadEvent::Data(n))),
                Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
                Poll::Pending => Poll::Pending,
            }
        })
        .await
    }

    /// Writes all of `bufs`, in order, suspending between partial writes;
    /// each write gathers whatever is left of every buffer. Writes are
    /// *not* drain-preempted: graceful shutdown wants queued responses
    /// flushed, and the peer is (by protocol) always reading.
    pub async fn write_all_vectored(&self, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
        IoSlice::advance_slices(&mut bufs, 0); // skips leading empty buffers
        std::future::poll_fn(|cx| {
            while !bufs.is_empty() {
                match self.poll_write_vectored(cx, bufs) {
                    Poll::Ready(Ok(0)) => {
                        return Poll::Ready(Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "peer stopped accepting bytes",
                        )))
                    }
                    Poll::Ready(Ok(n)) => IoSlice::advance_slices(&mut bufs, n),
                    Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                    Poll::Pending => return Poll::Pending,
                }
            }
            Poll::Ready(Ok(()))
        })
        .await
    }
}

impl Drop for AsyncStream {
    fn drop(&mut self) {
        self.reactor.deregister(&self.source);
    }
}

/// The shared clear-try-park-recheck loop behind every I/O future.
///
/// Readiness is cleared **before** the syscall attempt: an edge the
/// reactor delivers at any later point therefore lands on a cleared flag
/// and survives until the post-park recheck observes it. (Clearing after
/// a `WouldBlock` instead would wipe an edge that arrived between the
/// syscall and the clear — a lost wakeup an edge-triggered reactor never
/// repeats.)
fn poll_io<T>(
    source: &Source,
    interest: Interest,
    cx: &mut Context<'_>,
    mut op: impl FnMut() -> io::Result<T>,
) -> Poll<io::Result<T>> {
    loop {
        source.clear_ready(interest);
        match op() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                source.set_waker(interest, cx.waker());
                if source.is_ready(interest) {
                    // An edge arrived after the clear: consume it now.
                    continue;
                }
                return Poll::Pending;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            result => return Poll::Ready(result),
        }
    }
}

/// What an accept future resolved to.
pub enum Accepted<S> {
    Stream(S),
    Drained,
}

/// A nonblocking TCP listener registered with a reactor.
pub struct AsyncTcpListener {
    listener: TcpListener,
    source: Arc<Source>,
    reactor: Arc<Reactor>,
}

impl AsyncTcpListener {
    pub fn bind(addr: &str, reactor: &Arc<Reactor>) -> io::Result<AsyncTcpListener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let source = reactor.register(listener.as_raw_fd())?;
        Ok(AsyncTcpListener { listener, source, reactor: Arc::clone(reactor) })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts the next connection, already registered with the reactor,
    /// or resolves `Drained` when the shutdown signal fires.
    pub async fn accept(&self, drain: &DrainListener<'_>) -> io::Result<Accepted<AsyncStream>> {
        let stream = std::future::poll_fn(|cx| {
            if drain.poll_set(cx) {
                return Poll::Ready(Ok(None));
            }
            poll_io(&self.source, Interest::Read, cx, || self.listener.accept())
                .map(|r| r.map(|(s, _)| Some(s)))
        })
        .await?;
        match stream {
            Some(s) => Ok(Accepted::Stream(AsyncStream::from_tcp(s, &self.reactor)?)),
            None => Ok(Accepted::Drained),
        }
    }
}

impl Drop for AsyncTcpListener {
    fn drop(&mut self) {
        self.reactor.deregister(&self.source);
    }
}

/// A nonblocking Unix-domain listener registered with a reactor. Removes
/// its socket file on drop.
pub struct AsyncUnixListener {
    listener: UnixListener,
    path: std::path::PathBuf,
    source: Arc<Source>,
    reactor: Arc<Reactor>,
}

impl AsyncUnixListener {
    pub fn bind(path: &std::path::Path, reactor: &Arc<Reactor>) -> io::Result<AsyncUnixListener> {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let source = reactor.register(listener.as_raw_fd())?;
        Ok(AsyncUnixListener {
            listener,
            path: path.to_path_buf(),
            source,
            reactor: Arc::clone(reactor),
        })
    }

    /// Accepts the next connection (see [`AsyncTcpListener::accept`]).
    pub async fn accept(&self, drain: &DrainListener<'_>) -> io::Result<Accepted<AsyncStream>> {
        let stream = std::future::poll_fn(|cx| {
            if drain.poll_set(cx) {
                return Poll::Ready(Ok(None));
            }
            poll_io(&self.source, Interest::Read, cx, || self.listener.accept())
                .map(|r| r.map(|(s, _)| Some(s)))
        })
        .await?;
        match stream {
            Some(s) => Ok(Accepted::Stream(AsyncStream::from_unix(s, &self.reactor)?)),
            None => Ok(Accepted::Drained),
        }
    }
}

impl Drop for AsyncUnixListener {
    fn drop(&mut self) {
        self.reactor.deregister(&self.source);
        let _ = std::fs::remove_file(&self.path);
    }
}
