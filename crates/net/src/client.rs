//! A blocking protocol client over `std` sockets.
//!
//! The client side of the wire protocol is plain blocking I/O: a load
//! generator (or CLI) drives one connection per thread, pipelining up to
//! the server-granted credit window and blocking on the reply stream. The
//! client tracks its credits and transparently waits for a response
//! (buffering it for a later [`WireClient::recv`]) when a send would
//! overdraw the window — so a caller can simply pump batches and the
//! connection self-throttles to the server's advertised window.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;

use xpv_maintain::Edit;
use xpv_obs::MetricsSnapshot;
use xpv_pattern::Pattern;

use crate::frame::{read_frame, write_frame};
use crate::proto::{Msg, TenantStats, WireAnswer, WireDump, WireUpdateReport, VERSION};
use crate::socket::Socket;

/// One response frame, correlated to its request by `id`.
#[derive(Clone, Debug)]
pub enum Response {
    /// Answers for query batch `id` (input order).
    Answers { id: u64, answers: Vec<WireAnswer> },
    /// Edit batch `id` was applied.
    EditAck { id: u64, report: WireUpdateReport },
    /// Tenant counters for stats request `id`.
    Stats { id: u64, found: bool, stats: TenantStats },
    /// Whole-server metrics snapshot for stats-v2 request `id`.
    Metrics { id: u64, metrics: MetricsSnapshot },
    /// Flight-recorder artifact for dump request `id`.
    Dump { id: u64, dump: Box<WireDump> },
    /// Request `id` was not served (e.g. the server is draining, or the
    /// edit batch failed validation).
    Rejected { id: u64, reason: String },
}

impl Response {
    /// The request id this response answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::Answers { id, .. }
            | Response::EditAck { id, .. }
            | Response::Stats { id, .. }
            | Response::Metrics { id, .. }
            | Response::Dump { id, .. }
            | Response::Rejected { id, .. } => *id,
        }
    }
}

/// A blocking client connection speaking the xpv wire protocol.
pub struct WireClient {
    reader: BufReader<Socket>,
    writer: BufWriter<Socket>,
    window: u32,
    credits: u32,
    next_id: u64,
    /// Responses read while waiting for a credit or a specific id.
    buffered: VecDeque<Response>,
}

impl WireClient {
    /// Connects over TCP and performs the version handshake.
    pub fn connect_tcp(addr: &str) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Self::handshake(Socket::Tcp(stream))
    }

    /// Connects over a Unix-domain socket and performs the handshake.
    pub fn connect_unix(path: &Path) -> io::Result<WireClient> {
        Self::handshake(Socket::Unix(UnixStream::connect(path)?))
    }

    fn handshake(socket: Socket) -> io::Result<WireClient> {
        let mut client = WireClient {
            reader: BufReader::new(socket.try_clone()?),
            writer: BufWriter::new(socket),
            window: 0,
            credits: 0,
            next_id: 1,
            buffered: VecDeque::new(),
        };
        client.send(&Msg::Hello { version: VERSION })?;
        match client.read_msg()? {
            Msg::HelloAck { version, window } => {
                if version != VERSION {
                    return Err(protocol_err(format!(
                        "server speaks protocol v{version}, client v{VERSION}"
                    )));
                }
                client.window = window;
                client.credits = window;
                Ok(client)
            }
            Msg::Error { message } => Err(protocol_err(format!("handshake refused: {message}"))),
            other => Err(protocol_err(format!("expected HelloAck, got {other:?}"))),
        }
    }

    /// The credit window the server granted at handshake.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Credits currently available (window minus in-flight requests).
    pub fn credits(&self) -> u32 {
        self.credits
    }

    fn send(&mut self, msg: &Msg) -> io::Result<()> {
        write_frame(&mut self.writer, &msg.encode())?;
        self.writer.flush()
    }

    fn read_msg(&mut self) -> io::Result<Msg> {
        let body = read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        Msg::decode(&body).map_err(|e| protocol_err(e.to_string()))
    }

    /// Spends one credit, first waiting for (and buffering) a response if
    /// the window is exhausted.
    fn take_credit(&mut self) -> io::Result<()> {
        if self.credits == 0 {
            let response = self.read_response()?;
            self.buffered.push_back(response);
        }
        self.credits -= 1;
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let response = match self.read_msg()? {
            Msg::Answers { id, answers } => Response::Answers { id, answers },
            Msg::EditAck { id, report } => Response::EditAck { id, report },
            Msg::StatsResp { id, found, stats } => Response::Stats { id, found, stats },
            Msg::StatsV2Resp { id, metrics } => Response::Metrics { id, metrics },
            Msg::DebugDumpResp { id, dump } => Response::Dump { id, dump: Box::new(dump) },
            Msg::Rejected { id, reason } => Response::Rejected { id, reason },
            Msg::ServerBye => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "server said goodbye with requests still in flight",
                ))
            }
            Msg::Error { message } => return Err(protocol_err(message)),
            other => return Err(protocol_err(format!("unexpected frame {other:?}"))),
        };
        self.credits += 1;
        Ok(response)
    }

    /// Sends a query batch (pipelined), returning its request id. Blocks
    /// only when the credit window is exhausted.
    pub fn send_queries(&mut self, tenant: &str, queries: &[Pattern]) -> io::Result<u64> {
        self.take_credit()?;
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Msg::QueryBatch { id, tenant: tenant.to_string(), queries: queries.to_vec() })?;
        Ok(id)
    }

    /// Sends an edit batch (pipelined), returning its request id.
    pub fn send_edits(&mut self, tenant: &str, edits: &[Edit]) -> io::Result<u64> {
        self.take_credit()?;
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Msg::EditBatch { id, tenant: tenant.to_string(), edits: edits.to_vec() })?;
        Ok(id)
    }

    /// Receives the next response (buffered ones first).
    pub fn recv(&mut self) -> io::Result<Response> {
        if let Some(buffered) = self.buffered.pop_front() {
            return Ok(buffered);
        }
        self.read_response()
    }

    /// Receives until the response for `id` arrives, buffering others.
    pub fn recv_for(&mut self, id: u64) -> io::Result<Response> {
        if let Some(pos) = self.buffered.iter().position(|r| r.id() == id) {
            return Ok(self.buffered.remove(pos).expect("position just found"));
        }
        loop {
            let response = self.read_response()?;
            if response.id() == id {
                return Ok(response);
            }
            self.buffered.push_back(response);
        }
    }

    /// Synchronous batch answering: send one batch, wait for its answers.
    pub fn answer_batch(
        &mut self,
        tenant: &str,
        queries: &[Pattern],
    ) -> io::Result<Vec<WireAnswer>> {
        let id = self.send_queries(tenant, queries)?;
        match self.recv_for(id)? {
            Response::Answers { answers, .. } => Ok(answers),
            Response::Rejected { reason, .. } => {
                Err(io::Error::new(io::ErrorKind::ConnectionRefused, reason))
            }
            other => Err(protocol_err(format!("expected Answers, got {other:?}"))),
        }
    }

    /// Synchronous edit application: send one edit batch, wait for the ack.
    /// The outer error is transport-level; the inner `Err(reason)` means
    /// the server rejected the batch (validation failure, drain).
    pub fn apply_edits(
        &mut self,
        tenant: &str,
        edits: &[Edit],
    ) -> io::Result<Result<WireUpdateReport, String>> {
        let id = self.send_edits(tenant, edits)?;
        match self.recv_for(id)? {
            Response::EditAck { report, .. } => Ok(Ok(report)),
            Response::Rejected { reason, .. } => Ok(Err(reason)),
            other => Err(protocol_err(format!("expected EditAck, got {other:?}"))),
        }
    }

    /// Fetches `tenant`'s counters from the server (`None` when the server
    /// has never seen the tenant).
    pub fn tenant_stats(&mut self, tenant: &str) -> io::Result<Option<TenantStats>> {
        self.take_credit()?;
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Msg::StatsReq { id, tenant: tenant.to_string() })?;
        match self.recv_for(id)? {
            Response::Stats { found, stats, .. } => Ok(found.then_some(stats)),
            Response::Rejected { reason, .. } => {
                Err(io::Error::new(io::ErrorKind::ConnectionRefused, reason))
            }
            other => Err(protocol_err(format!("expected Stats, got {other:?}"))),
        }
    }

    /// Fetches the server's full metrics snapshot (every metric family,
    /// sorted by name then labels) — the wire face of `xpv stats`.
    pub fn metrics(&mut self) -> io::Result<MetricsSnapshot> {
        self.take_credit()?;
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Msg::StatsV2Req { id })?;
        match self.recv_for(id)? {
            Response::Metrics { metrics, .. } => Ok(metrics),
            Response::Rejected { reason, .. } => {
                Err(io::Error::new(io::ErrorKind::ConnectionRefused, reason))
            }
            other => Err(protocol_err(format!("expected Metrics, got {other:?}"))),
        }
    }

    /// Fetches a flight-recorder dump: metrics, alerts, drained trace
    /// spans, and config state in one artifact. Draining is
    /// destructive server-side — the server's buffered spans move into
    /// this dump.
    pub fn debug_dump(&mut self) -> io::Result<WireDump> {
        self.take_credit()?;
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Msg::DebugDumpReq { id })?;
        match self.recv_for(id)? {
            Response::Dump { dump, .. } => Ok(*dump),
            Response::Rejected { reason, .. } => {
                Err(io::Error::new(io::ErrorKind::ConnectionRefused, reason))
            }
            other => Err(protocol_err(format!("expected Dump, got {other:?}"))),
        }
    }

    /// Clean close: announce goodbye, drain every in-flight response, and
    /// wait for the server's bye. Returns the drained responses.
    pub fn goodbye(mut self) -> io::Result<Vec<Response>> {
        self.send(&Msg::Goodbye)?;
        let mut drained: Vec<Response> = self.buffered.drain(..).collect();
        loop {
            match self.read_msg()? {
                Msg::Answers { id, answers } => drained.push(Response::Answers { id, answers }),
                Msg::EditAck { id, report } => drained.push(Response::EditAck { id, report }),
                Msg::StatsResp { id, found, stats } => {
                    drained.push(Response::Stats { id, found, stats })
                }
                Msg::StatsV2Resp { id, metrics } => drained.push(Response::Metrics { id, metrics }),
                Msg::DebugDumpResp { id, dump } => {
                    drained.push(Response::Dump { id, dump: Box::new(dump) })
                }
                Msg::Rejected { id, reason } => drained.push(Response::Rejected { id, reason }),
                Msg::ServerBye => return Ok(drained),
                Msg::Error { message } => return Err(protocol_err(message)),
                other => return Err(protocol_err(format!("unexpected frame {other:?}"))),
            }
        }
    }
}

fn protocol_err(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}
