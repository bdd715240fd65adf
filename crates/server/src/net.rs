//! Network and stdio frontends for the wire protocol.
//!
//! [`serve_connection`] runs one newline-delimited JSON session over any
//! `BufRead`/`Write` pair; [`serve_tcp`] accepts TCP clients and runs each
//! on its own thread; [`serve_stdio`] runs a single session over the
//! process's stdin/stdout. A `{"op":"shutdown"}` line from any session
//! triggers a graceful drain of the whole server.
//!
//! Every NDJSON line this workspace puts on a socket — server replies,
//! [`client_call`] requests, the cluster transport's node calls — goes
//! out through [`send_line`] as one write on a `TCP_NODELAY` socket (see
//! [`connect`] and [`serve_tcp`]).

use crate::service::{Handle, Response, Server};
use crate::wire::{encode_response_into, parse_request, WireRequest};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Why a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client closed its end of the connection.
    Eof,
    /// The client sent `{"op":"shutdown"}`.
    Shutdown,
}

/// Appends the `\n` terminator to `line` and sends it with a single
/// `write_all`, then flushes.
///
/// One write per line is what keeps a request/reply exchange off the
/// network's timers: when a body and its newline go out as two writes,
/// Nagle's algorithm holds the second until the peer ACKs the first, and
/// a peer waiting for that newline delays its ACK (40 ms on Linux) — one
/// stall per exchange. On a `TCP_NODELAY` socket one write leaves as one
/// segment.
pub fn send_line<W: Write>(out: &mut W, line: &mut String) -> io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// Opens a client connection to `addr` with `TCP_NODELAY` set.
pub fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One request/reply exchange on a fresh connection: sends `line` through
/// [`send_line`] (`scratch` holds the framed copy) and reads the one reply
/// line into `resp`, cleared first and without its line terminator.
///
/// The reply is read through a buffer that may take bytes past its
/// newline, so `stream` must not be read again afterwards. `resp` is
/// left empty when the peer closes without replying.
pub fn exchange<S: Read + Write>(
    mut stream: S,
    line: &str,
    scratch: &mut String,
    resp: &mut String,
) -> io::Result<()> {
    scratch.clear();
    scratch.push_str(line);
    send_line(&mut stream, scratch)?;
    resp.clear();
    BufReader::new(stream).read_line(resp)?;
    while resp.ends_with('\n') || resp.ends_with('\r') {
        resp.pop();
    }
    Ok(())
}

/// Runs one wire-protocol session: one response line per request line.
///
/// Malformed lines are answered with a `bad_request` response and the
/// session continues; only I/O failures and shutdown end it. Each reply
/// goes out as one write ([`send_line`]); the request and reply buffers
/// are reused for the whole session.
pub fn serve_connection<R: BufRead, W: Write>(
    handle: &Handle,
    mut input: R,
    mut output: W,
) -> io::Result<SessionEnd> {
    let mut line = String::new();
    let mut reply = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            return Ok(SessionEnd::Eof);
        }
        let request = line.strip_suffix('\n').unwrap_or(&line);
        let request = request.strip_suffix('\r').unwrap_or(request);
        if request.trim().is_empty() {
            continue;
        }
        reply.clear();
        let end = match parse_request(request) {
            Err(msg) => {
                encode_response_into(&Response::Error(msg), &mut reply);
                None
            }
            Ok(WireRequest::Call { req, deadline }) => {
                encode_response_into(&handle.call_with_deadline(req, deadline), &mut reply);
                None
            }
            Ok(WireRequest::Shutdown) => {
                reply.push_str("{\"ok\":true,\"op\":\"shutdown\"}");
                Some(SessionEnd::Shutdown)
            }
        };
        send_line(&mut output, &mut reply)?;
        if let Some(end) = end {
            return Ok(end);
        }
    }
}

/// Serves TCP clients on `listener` until one of them sends
/// `{"op":"shutdown"}`, then drains the server and returns.
///
/// Each connection runs on its own thread with a cloned [`Handle`], with
/// `TCP_NODELAY` set so every reply leaves in one segment. Once a
/// shutdown arrives, the accept loop is woken by a loop-back connection,
/// in-queue requests are answered, and still-connected clients receive
/// `shutting_down` responses to any further calls.
pub fn serve_tcp(server: Server, listener: TcpListener) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let handle = server.handle();
        let stop = Arc::clone(&stop);
        // Detached on purpose: a lingering client cannot block shutdown —
        // its future calls answer `shutting_down`, and the thread dies
        // with the process.
        let _ = std::thread::Builder::new()
            .name("ssj-serve-conn".to_string())
            .spawn(move || {
                if stream.set_nodelay(true).is_err() {
                    return;
                }
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let outcome = serve_connection(&handle, BufReader::new(read_half), &stream);
                if matches!(outcome, Ok(SessionEnd::Shutdown)) {
                    stop.store(true, Ordering::SeqCst);
                    // Wake the accept loop so it observes the flag.
                    let _ = TcpStream::connect(addr);
                }
            });
    }
    // Drain (which flushes the WAL to stable storage on a durable server)
    // completes *before* this function returns and drops the listener, so
    // every write acked over a connection is on disk by the time the port
    // closes.
    server.shutdown();
    Ok(())
}

/// Runs one session over the process's stdin/stdout, then drains the
/// server (whether the session ended by EOF or an explicit shutdown).
pub fn serve_stdio(server: Server) -> io::Result<SessionEnd> {
    let handle = server.handle();
    let stdin = io::stdin();
    let stdout = io::stdout();
    let end = serve_connection(&handle, stdin.lock(), stdout.lock())?;
    server.shutdown();
    Ok(end)
}

/// One-shot client: sends `line` to a wire-protocol server at `addr` and
/// returns the single response line.
pub fn client_call(addr: &str, line: &str) -> io::Result<String> {
    let mut reply = String::new();
    exchange(&connect(addr)?, line, &mut String::new(), &mut reply)?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::service::Server;

    fn test_server() -> Server {
        Server::start(ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::default()
        })
        .expect("valid config")
    }

    #[test]
    fn scripted_stdio_style_session() {
        let server = test_server();
        let handle = server.handle();
        let script = concat!(
            "{\"op\":\"insert\",\"set\":[1,2,3,4,5]}\n",
            "\n", // blank lines are ignored
            "{\"op\":\"query\",\"set\":[1,2,3,4,5]}\n",
            "not json\n",
            "{\"op\":\"stats\"}\n",
        );
        let mut out = Vec::new();
        let end = serve_connection(&handle, script.as_bytes(), &mut out).expect("io ok");
        assert_eq!(end, SessionEnd::Eof);
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"op\":\"insert\""), "{}", lines[0]);
        assert!(lines[1].contains("\"ids\":["), "{}", lines[1]);
        assert!(lines[2].contains("bad_request"), "{}", lines[2]);
        assert!(lines[3].contains("\"op\":\"stats\""), "{}", lines[3]);
        server.shutdown();
    }

    #[test]
    fn oversized_set_answers_wire_error_and_session_continues() {
        let server = Server::start(ServerConfig {
            shards: 2,
            workers: 2,
            max_set_len: 4,
            ..ServerConfig::default()
        })
        .expect("valid config");
        let handle = server.handle();
        let script = concat!(
            "{\"op\":\"insert\",\"set\":[1,2,3,4,5,6,7,8]}\n",
            "{\"op\":\"query\",\"set\":[9,8,7,6,5,4,3,2,1]}\n",
            "{\"op\":\"insert\",\"set\":[1,2,3]}\n",
        );
        let mut out = Vec::new();
        let end = serve_connection(&handle, script.as_bytes(), &mut out).expect("io ok");
        assert_eq!(end, SessionEnd::Eof);
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("bad_request") && lines[0].contains("max_set_len"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("bad_request"), "{}", lines[1]);
        assert!(lines[2].contains("\"op\":\"insert\""), "{}", lines[2]);
        server.shutdown();
    }

    /// A `Write` that counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_is_one_write() {
        let server = test_server();
        let handle = server.handle();
        let script = concat!(
            "{\"op\":\"insert\",\"set\":[1,2,3,4,5]}\n",
            "{\"op\":\"query\",\"set\":[1,2,3,4,5]}\r\n",
            "not json\n",
            "{\"op\":\"stats\"}\n",
            "{\"op\":\"shutdown\"}\n",
            "{\"op\":\"query\",\"set\":[1]}\n", // never read
        );
        let mut out = CountingWriter::default();
        let end = serve_connection(&handle, script.as_bytes(), &mut out).expect("io ok");
        assert_eq!(end, SessionEnd::Shutdown);
        let text = std::str::from_utf8(&out.bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "{text}");
        assert!(lines[1].contains("\"ids\":["), "{}", lines[1]);
        assert!(lines[2].contains("bad_request"), "{}", lines[2]);
        assert_eq!(lines[4], "{\"ok\":true,\"op\":\"shutdown\"}");
        assert_eq!(out.writes, lines.len(), "one write per reply: {text}");
        server.shutdown();
    }

    #[test]
    fn persistent_session_round_trips_without_stalls() {
        let server = test_server();
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("addr").to_string();
        let srv = std::thread::spawn(move || serve_tcp(server, listener));
        let insert = client_call(&addr, "{\"op\":\"insert\",\"set\":[9,8,7]}").expect("insert");
        assert!(insert.contains("\"ok\":true"), "{insert}");

        // One connection, each reply read before the next send. A reply
        // split across two writes without TCP_NODELAY waits out the
        // client's delayed ACK (about 40 ms) on every round trip, about
        // 8 s for 200.
        let stream = connect(&addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = &stream;
        let mut line = String::new();
        let mut reply = String::new();
        let start = std::time::Instant::now();
        for _ in 0..200 {
            line.clear();
            line.push_str("{\"op\":\"query\",\"set\":[7,8,9]}");
            send_line(&mut writer, &mut line).expect("send");
            reply.clear();
            reader.read_line(&mut reply).expect("reply");
            assert!(reply.contains("\"ids\":["), "{reply}");
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "200 round trips took {elapsed:?}"
        );
        drop(reader);
        drop(stream);

        let bye = client_call(&addr, "{\"op\":\"shutdown\"}").expect("shutdown");
        assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
        srv.join().expect("server thread").expect("serve_tcp io");
    }

    #[test]
    fn tcp_round_trip_with_shutdown() {
        let server = test_server();
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("addr").to_string();
        let srv = std::thread::spawn(move || serve_tcp(server, listener));
        let insert = client_call(&addr, "{\"op\":\"insert\",\"set\":[9,8,7]}").expect("insert");
        assert!(insert.contains("\"ok\":true"), "{insert}");
        let query = client_call(&addr, "{\"op\":\"query\",\"set\":[7,8,9]}").expect("query");
        assert!(query.contains("\"ids\":["), "{query}");
        let bye = client_call(&addr, "{\"op\":\"shutdown\"}").expect("shutdown");
        assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
        srv.join().expect("server thread").expect("serve_tcp io");
    }
}
