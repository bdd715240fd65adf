//! How the router reaches nodes: one trait, a TCP implementation, and (in
//! [`crate::sim`]) the deterministic in-process simulation.
//!
//! The unit of exchange is the NDJSON wire protocol's — one request line
//! in, one response line out — so every transport speaks exactly the
//! protocol a single `ssjoin serve` process speaks, and the router cannot
//! observe which one it is on. The response buffer is caller-provided and
//! reused, keeping the scatter-gather steady state allocation-free.

use ssj_serve::net;

/// Why a node call failed at the transport layer (before any response
/// line was produced).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The node is down, partitioned away, or refused the connection.
    /// The router treats this as "owner unavailable" and fails reads over
    /// to a replica.
    Unreachable,
    /// The connection produced an I/O error mid-exchange.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unreachable => write!(f, "node unreachable"),
            TransportError::Io(msg) => write!(f, "transport i/o: {msg}"),
        }
    }
}

/// One-line-in, one-line-out access to a fixed set of nodes.
pub trait Transport {
    /// Number of nodes this transport can address (node ids are
    /// `0..nodes()`).
    fn nodes(&self) -> usize;

    /// Sends `line` (without trailing newline) to `node` and fills `resp`
    /// with the response line (cleared first, no trailing newline).
    fn call(&mut self, node: usize, line: &str, resp: &mut String) -> Result<(), TransportError>;
}

/// Real-TCP transport: each call opens a `TCP_NODELAY` connection to the
/// node's address, sends the line and its newline as one write, and reads
/// one response line — the framing every NDJSON endpoint shares
/// ([`ssj_serve::net::exchange`]), so no call waits on Nagle's algorithm.
///
/// Connect-per-call stays on purpose for now. It keeps the transport
/// trivially robust to node restarts. A pooled-connection variant,
/// measured on the benchmark's `cluster-fanout` workload (2-core x86-64
/// VM), cut the query p50 from 425–736 µs to 188–208 µs but raised the
/// nodes' summed peak RSS from 32.3–34.2 MB to 35.4–48.6 MB: its faster
/// closed loop inserted about four times as many sets into the node
/// indexes. Pooling waits until per-set index memory shrinks.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    addrs: Vec<String>,
    /// The framed request line, reused across calls.
    scratch: String,
}

impl TcpTransport {
    /// Builds the transport over one address per node.
    pub fn new(addrs: Vec<String>) -> Self {
        Self {
            addrs,
            scratch: String::new(),
        }
    }

    /// The node addresses, index = node id.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }
}

impl Transport for TcpTransport {
    fn nodes(&self) -> usize {
        self.addrs.len()
    }

    fn call(&mut self, node: usize, line: &str, resp: &mut String) -> Result<(), TransportError> {
        resp.clear();
        let Some(addr) = self.addrs.get(node) else {
            return Err(TransportError::Unreachable);
        };
        let stream = net::connect(addr).map_err(|_| TransportError::Unreachable)?;
        net::exchange(&stream, line, &mut self.scratch, resp)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        if resp.is_empty() {
            return Err(TransportError::Unreachable);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, Read, Write};

    /// A stream that counts `write` calls and answers with a canned reply.
    struct MockStream {
        writes: usize,
        sent: Vec<u8>,
        reply: io::Cursor<Vec<u8>>,
    }

    impl Write for MockStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.sent.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for MockStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reply.read(buf)
        }
    }

    #[test]
    fn node_call_framing_is_one_write_per_request() {
        let mut scratch = String::new();
        let mut resp = String::new();
        for (i, line) in [
            "{\"op\":\"query\",\"set\":[1,2,3]}",
            "{\"op\":\"insert\",\"set\":[4,5]}",
        ]
        .into_iter()
        .enumerate()
        {
            let mut stream = MockStream {
                writes: 0,
                sent: Vec::new(),
                reply: io::Cursor::new(format!("{{\"ok\":true,\"n\":{i}}}\r\n").into_bytes()),
            };
            net::exchange(&mut stream, line, &mut scratch, &mut resp).expect("exchange");
            assert_eq!(stream.writes, 1, "one write for {line}");
            assert_eq!(stream.sent, format!("{line}\n").into_bytes());
            assert_eq!(resp, format!("{{\"ok\":true,\"n\":{i}}}"));
        }
    }
}
