//! Socket load generation over the xpv wire protocol.
//!
//! [`run_socket_load`] is the client side of the async serving tests: it
//! opens `connections` protocol connections (one OS thread each — the
//! *client* may burn threads; the point under test is that the **server**
//! does not), splits a query stream across them, and pumps batches with a
//! bounded pipelining depth, respecting each connection's credit window.

use std::collections::VecDeque;
use std::io;

use xpv_net::{Response, WireClient};
use xpv_pattern::Pattern;

/// What one [`run_socket_load`] run did.
#[derive(Clone, Copy, Debug)]
pub struct SocketLoadReport {
    /// Connections that carried traffic.
    pub connections: usize,
    /// Query batches sent.
    pub batches: usize,
    /// Individual query answers received.
    pub answered: usize,
}

/// Drives `stream` through `connections` wire-protocol connections
/// (created by `connect`, e.g. a closure over [`WireClient::connect_tcp`])
/// as tenant `"{tenant_prefix}{i}"`, in batches of `batch_size`, keeping
/// up to `pipeline` batches in flight per connection (clamped to the
/// server-granted window). Returns once every answer has arrived and all
/// connections closed cleanly.
pub fn run_socket_load<C>(
    connect: C,
    connections: usize,
    stream: &[Pattern],
    batch_size: usize,
    pipeline: usize,
    tenant_prefix: &str,
) -> io::Result<SocketLoadReport>
where
    C: Fn() -> io::Result<WireClient> + Sync,
{
    let connections = connections.max(1);
    let per_conn = stream.len().div_ceil(connections).max(1);
    let results: Vec<io::Result<(usize, usize)>> = std::thread::scope(|scope| {
        let connect = &connect;
        let handles: Vec<_> = stream
            .chunks(per_conn)
            .enumerate()
            .map(|(i, chunk)| {
                let tenant = format!("{tenant_prefix}{i}");
                scope.spawn(move || {
                    pump_connection(connect()?, &tenant, chunk, batch_size, pipeline)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load connection panicked")).collect()
    });
    let mut batches = 0;
    let mut answered = 0;
    let mut used = 0;
    for result in results {
        let (b, a) = result?;
        batches += b;
        answered += a;
        used += 1;
    }
    Ok(SocketLoadReport { connections: used, batches, answered })
}

/// One connection's pump loop: send up to `pipeline` batches ahead of the
/// oldest unanswered one, then drain and say goodbye.
fn pump_connection(
    mut client: WireClient,
    tenant: &str,
    queries: &[Pattern],
    batch_size: usize,
    pipeline: usize,
) -> io::Result<(usize, usize)> {
    let depth = pipeline.clamp(1, client.window().max(1) as usize);
    let mut in_flight: VecDeque<u64> = VecDeque::new();
    let mut batches = 0;
    let mut answered = 0;
    for batch in queries.chunks(batch_size.max(1)) {
        if in_flight.len() >= depth {
            let id = in_flight.pop_front().expect("nonempty window");
            answered += take_answers(&mut client, id)?;
        }
        in_flight.push_back(client.send_queries(tenant, batch)?);
        batches += 1;
    }
    while let Some(id) = in_flight.pop_front() {
        answered += take_answers(&mut client, id)?;
    }
    client.goodbye()?;
    Ok((batches, answered))
}

fn take_answers(client: &mut WireClient, id: u64) -> io::Result<usize> {
    match client.recv_for(id)? {
        Response::Answers { answers, .. } => Ok(answers.len()),
        Response::Rejected { reason, .. } => {
            Err(io::Error::new(io::ErrorKind::ConnectionRefused, reason))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected Answers for batch {id}, got {other:?}"),
        )),
    }
}
