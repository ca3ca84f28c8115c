//! A connected stream socket, TCP or Unix-domain: what both ends of a
//! connection read and write frames on.

use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;

/// A connected, blocking stream socket. One thread can read a connection
/// while another writes it through a [`Socket::try_clone`].
#[derive(Debug)]
pub enum Socket {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Socket {
    /// A second handle on the same connection.
    pub fn try_clone(&self) -> io::Result<Socket> {
        match self {
            Socket::Tcp(s) => s.try_clone().map(Socket::Tcp),
            Socket::Unix(s) => s.try_clone().map(Socket::Unix),
        }
    }

    /// Shuts down one or both halves of the connection, for every handle
    /// on it: a thread blocked reading a shut-down read half sees EOF.
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => s.shutdown(how),
            Socket::Unix(s) => s.shutdown(how),
        }
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.read(buf),
            Socket::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.write(buf),
            Socket::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.write_vectored(bufs),
            Socket::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => s.flush(),
            Socket::Unix(s) => s.flush(),
        }
    }
}
