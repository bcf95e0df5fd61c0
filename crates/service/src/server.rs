//! Transport loops: stdio (the default) and TCP.
//!
//! Both speak the same line-delimited protocol through
//! [`Service::handle`]; neither owns any state of its own. The stdio
//! loop is what tests and supervised deployments drive (one daemon per
//! pipe pair, shuts down on EOF or `{"op":"shutdown"}`); the TCP loop
//! accepts any number of connections, each served on its own thread
//! against the shared [`Service`] — streams are named, so clients on
//! different connections can even share a stream, and the dispatcher's
//! locking keeps every request/response pair atomic.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::proto::err_response;
use crate::Service;

/// Serves requests from `input` to `output` until EOF or shutdown.
///
/// # Errors
///
/// I/O failures on the transport (protocol-level failures — a line that
/// is not UTF-8 included — are structured responses, not errors).
pub fn serve_lines(
    svc: &Service,
    input: impl std::io::Read,
    mut output: impl Write,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(input);
    // One buffer for every request line of the connection.
    let mut line = Vec::new();
    while !svc.is_shutdown() {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        respond(svc, &line, &mut output)?;
    }
    Ok(())
}

/// Serves one request line as it came off the transport (blank lines are
/// skipped). Bytes that are not UTF-8 cannot be a request: they get a
/// `bad_request` like any other malformed line, and the next line is
/// served as usual.
fn respond(svc: &Service, line: &[u8], out: &mut impl Write) -> std::io::Result<()> {
    let mut response = match std::str::from_utf8(line).map(str::trim) {
        Ok("") => return Ok(()),
        Ok(line) => svc.handle(line),
        Err(e) => err_response(
            "bad_request",
            &format!("request line is not valid UTF-8: {e}"),
            vec![],
        ),
    };
    // One write for the line and its newline: split in two, the newline
    // of a small response waits on a TCP socket for the peer's delayed ACK.
    response.push('\n');
    out.write_all(response.as_bytes())?;
    out.flush()
}

/// The stdio daemon: requests on stdin, responses on stdout (one line
/// each, flushed per response so pipe-driven clients never block on
/// buffering).
///
/// # Errors
///
/// As [`serve_lines`].
pub fn serve_stdio(svc: &Service) -> std::io::Result<()> {
    serve_lines(svc, std::io::stdin().lock(), std::io::stdout().lock())
}

/// The TCP daemon: binds `addr`, prints the bound address to stderr
/// (`listening on <addr>` — tests parse this to find an OS-assigned
/// port), and serves each connection on its own thread until a client
/// sends `{"op":"shutdown"}`.
///
/// # Errors
///
/// Bind failures; per-connection I/O errors only end that connection.
pub fn serve_tcp(svc: Arc<Service>, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("streamlind: listening on {}", listener.local_addr()?);
    serve_listener(svc, listener)
}

/// The accept loop behind [`serve_tcp`], taking an already-bound
/// listener (tests bind their own to learn the port).
///
/// # Errors
///
/// Accept failures other than the polling timeout.
pub fn serve_listener(svc: Arc<Service>, listener: TcpListener) -> std::io::Result<()> {
    // Poll accept so the listener notices shutdown requested on another
    // connection within a bounded delay.
    listener.set_nonblocking(true)?;
    let mut handles = Vec::new();
    while !svc.is_shutdown() {
        match listener.accept() {
            Ok((conn, _)) => {
                let svc = Arc::clone(&svc);
                handles.push(std::thread::spawn(move || serve_conn(&svc, conn)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

/// How often an idle connection re-checks the shutdown flag.
const CONN_POLL: Duration = Duration::from_millis(100);

/// One TCP connection. Unlike [`serve_lines`], the socket gets a finite
/// read timeout so a connection idling between requests still observes a
/// shutdown dispatched on *another* connection within [`CONN_POLL`] —
/// otherwise `shutdown` would not terminate the daemon until every
/// client disconnected on its own.
fn serve_conn(svc: &Service, mut conn: TcpStream) {
    // Responses are complete lines a client is waiting on: never hold one
    // back to coalesce it with the next.
    if conn.set_read_timeout(Some(CONN_POLL)).is_err() || conn.set_nodelay(true).is_err() {
        return;
    }
    let mut reader = match conn.try_clone() {
        Ok(c) => BufReader::new(c),
        Err(_) => return,
    };
    // Request bytes accumulate here across timeouts: `read_until`
    // guarantees bytes read before an error are in the buffer, so a line
    // split by a timeout is finished on a later pass.
    let mut buf = Vec::new();
    while !svc.is_shutdown() {
        match reader.read_until(b'\n', &mut buf) {
            Ok(_) if buf.ends_with(b"\n") => {
                if respond(svc, &buf, &mut conn).is_err() {
                    break;
                }
                buf.clear();
            }
            // EOF; serve whatever an unterminated final line carried.
            Ok(_) => {
                let _ = respond(svc, &buf, &mut conn);
                break;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle (or mid-line) timeout: loop around and re-check
                // the shutdown flag; partial data stays in `buf`.
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceOpts;

    #[test]
    fn stdio_loop_answers_each_line_and_stops_on_shutdown() {
        let svc = Service::new(ServiceOpts::default());
        let input = b"{\"op\":\"ping\"}\n\n{\"op\":\"shutdown\"}\n{\"op\":\"ping\"}\n" as &[u8];
        let mut out = Vec::new();
        serve_lines(&svc, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Blank line skipped; loop exits after shutdown, so the trailing
        // ping is never answered.
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"pong\""));
        assert!(lines[1].contains("\"shutdown\""));
        assert!(svc.is_shutdown());
    }

    const COUNTER: &str = "void->void pipeline Main { add S(); add K(); } \
        void->float filter S { float x; work push 1 { push(x++); } } \
        float->void filter K { work pop 1 { println(pop()); } }";

    fn served(svc: &Service, input: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        serve_lines(svc, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        text.lines().map(str::to_string).collect()
    }

    /// An absurd `n` costs one refusal line: the stream is not touched
    /// (its next read starts where it would have), and the daemon goes on
    /// answering.
    #[test]
    fn oversized_read_is_refused_and_the_stream_reads_on() {
        let svc = Service::new(ServiceOpts::default());
        let over = crate::MAX_READ_N + 1;
        let input = format!(
            "{{\"op\":\"open\",\"id\":\"s1\",\"program\":\"{COUNTER}\"}}\n\
             {{\"op\":\"read\",\"id\":\"s1\",\"n\":1e18}}\n\
             {{\"op\":\"read\",\"id\":\"s1\",\"n\":{over}}}\n\
             {{\"op\":\"read\",\"id\":\"s1\",\"n\":3}}\n\
             {{\"op\":\"ping\"}}\n"
        );
        let lines = served(&svc, input.as_bytes());
        assert_eq!(lines.len(), 5, "{lines:?}");
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        let limit = format!("\"limit\":{}", crate::MAX_READ_N);
        for (line, n) in [
            (&lines[1], "1000000000000000000".to_string()),
            (&lines[2], over.to_string()),
        ] {
            assert!(line.contains("\"ok\":false"), "{line}");
            assert!(line.contains("\"error\":\"too_large\""), "{line}");
            assert!(line.contains(&format!("\"n\":{n}")), "{line}");
            assert!(line.contains(&limit), "{line}");
        }
        assert!(lines[3].contains("\"values\":[0,1,2]"), "{}", lines[3]);
        assert!(lines[4].contains("\"pong\""), "{}", lines[4]);
    }

    /// Bytes that are not UTF-8 are a malformed request like any other:
    /// one `bad_request` line, and the next request is served.
    #[test]
    fn non_utf8_line_is_a_bad_request_over_stdio() {
        let svc = Service::new(ServiceOpts::default());
        let lines = served(&svc, b"{\"op\":\"ping\"}\n\xff\xfe\n{\"op\":\"ping\"}\n");
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("\"pong\""));
        assert!(
            lines[1].contains("\"error\":\"bad_request\""),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("UTF-8"), "{}", lines[1]);
        assert!(lines[2].contains("\"pong\""));
    }

    #[test]
    fn non_utf8_line_is_a_bad_request_over_tcp() {
        let svc = Arc::new(Service::new(ServiceOpts::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || serve_listener(svc, listener))
        };
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        for (request, expect) in [
            (&b"\xff\xfe\n"[..], "\"error\":\"bad_request\""),
            (b"{\"op\":\"ping\"}\n", "\"pong\""),
            (b"{\"op\":\"shutdown\"}\n", "\"shutdown\""),
        ] {
            conn.write_all(request).unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(expect), "{line}");
        }
        server.join().expect("server thread").unwrap();
    }

    /// A shutdown on one connection terminates the whole daemon even
    /// while another connection sits idle between requests — the idle
    /// connection's read timeout wakes it to observe the flag. On the
    /// way, sequential round trips on one connection must be prompt.
    #[test]
    fn tcp_shutdown_terminates_despite_idle_connection() {
        let svc = Arc::new(Service::new(ServiceOpts::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || serve_listener(svc, listener))
        };

        // Idle connection: 50 ping round trips, then it just sits there.
        // A response held back for a delayed ACK costs ~40 ms a trip.
        let mut idle = TcpStream::connect(addr).unwrap();
        let mut idle_reader = BufReader::new(idle.try_clone().unwrap());
        let mut line = String::new();
        let started = std::time::Instant::now();
        for _ in 0..50 {
            idle.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            line.clear();
            idle_reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"pong\""), "{line}");
        }
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "50 pings took {took:?}");

        // Second connection shuts the daemon down.
        let mut ctl = TcpStream::connect(addr).unwrap();
        ctl.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        line.clear();
        BufReader::new(ctl.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("\"shutdown\""), "{line}");

        // The accept loop and every connection thread must wind down
        // without the idle client ever disconnecting. Join on a watchdog
        // thread so a regression fails fast instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(server.join().expect("server thread").is_ok());
        });
        let joined = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(joined, Ok(true), "daemon did not exit after shutdown");
    }
}
