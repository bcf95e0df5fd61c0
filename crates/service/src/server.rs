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

use std::io::{stdin, stdout, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use streamlin_support::json::Json;

use crate::proto::err_response;
use crate::{Service, MAX_LINE_BYTES};

/// Serves requests from `input` to `output` until EOF or shutdown: the one
/// request loop of both transports. With `polled`, a read timeout on
/// `input` is not an error but a chance to re-check the shutdown flag;
/// bytes read before it stay in the line buffer, so a line split by a
/// timeout is finished on a later pass.
///
/// # Errors
///
/// I/O failures on the transport (protocol-level failures — a line that
/// is not UTF-8 or longer than [`MAX_LINE_BYTES`] included — are
/// structured responses, not errors).
pub fn serve_lines(
    svc: &Service,
    input: impl std::io::Read,
    mut output: impl Write,
    polled: bool,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(input);
    // One buffer for every request line of the connection, never longer
    // than the cap and a newline; `oversized` from the refusal of a longer
    // line until its newline has gone by, a buffer at a time.
    let mut line = Vec::new();
    let mut oversized = false;
    while !svc.is_shutdown() {
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Err(e) if polled && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                continue;
            }
            Err(e) => return Err(e),
            Ok(_) if line.is_empty() => break,
            Ok(_) => {}
        }
        let ended = line.ends_with(b"\n");
        if oversized {
            oversized = !ended;
        } else if ended || line.len() <= MAX_LINE_BYTES {
            // A whole line, or the unterminated last one before EOF.
            respond(svc, &line, &mut output)?;
        } else {
            oversized = true;
            let detail = format!("request line exceeds the limit of {MAX_LINE_BYTES} bytes");
            let limit = ("limit".to_string(), Json::Num(MAX_LINE_BYTES as f64));
            send(err_response("too_large", &detail, vec![limit]), &mut output)?;
        }
        line.clear();
    }
    Ok(())
}

/// Serves one request line as it came off the transport (blank lines are
/// skipped). Bytes that are not UTF-8 cannot be a request: they get a
/// `bad_request` like any other malformed line, and the next line is
/// served as usual.
fn respond(svc: &Service, line: &[u8], out: &mut impl Write) -> std::io::Result<()> {
    let response = match std::str::from_utf8(line).map(str::trim) {
        Ok("") => return Ok(()),
        Ok(line) => svc.handle(line),
        Err(e) => err_response(
            "bad_request",
            &format!("request line is not valid UTF-8: {e}"),
            vec![],
        ),
    };
    send(response, out)
}

/// One write for the line and its newline: split in two, the newline of a
/// small response waits on a TCP socket for the peer's delayed ACK.
fn send(mut response: String, out: &mut impl Write) -> std::io::Result<()> {
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
    serve_lines(svc, stdin().lock(), stdout().lock(), false)
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
    accept_loop(svc, listener, |_| {})
}

/// [`serve_listener`], telling `held` how many connection threads the
/// loop holds after each accept.
fn accept_loop(
    svc: Arc<Service>,
    listener: TcpListener,
    mut held: impl FnMut(usize),
) -> std::io::Result<()> {
    // Poll accept so the listener notices shutdown requested on another
    // connection within a bounded delay.
    listener.set_nonblocking(true)?;
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    while !svc.is_shutdown() {
        match listener.accept() {
            Ok((conn, _)) => {
                // Join the connections that have ended (at once: they are
                // finished), so the loop holds the live ones only, however
                // many have come and gone.
                for done in handles.extract_if(.., |h| h.is_finished()) {
                    let _ = done.join();
                }
                let svc = Arc::clone(&svc);
                handles.push(std::thread::spawn(move || serve_conn(&svc, conn)));
                held(handles.len());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
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

/// One TCP connection: [`serve_lines`] with a finite read timeout, so a
/// connection idling between requests still observes a shutdown
/// dispatched on *another* connection within [`CONN_POLL`] — otherwise
/// `shutdown` would not terminate the daemon until every client
/// disconnected on its own. An I/O error only ends this connection.
fn serve_conn(svc: &Service, conn: TcpStream) {
    // Responses are complete lines a client is waiting on: never hold one
    // back to coalesce it with the next.
    if conn.set_read_timeout(Some(CONN_POLL)).is_err() || conn.set_nodelay(true).is_err() {
        return;
    }
    if let Ok(input) = conn.try_clone() {
        let _ = serve_lines(svc, input, conn, true);
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
        serve_lines(&svc, input, &mut out, false).unwrap();
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
        serve_lines(svc, input, &mut out, false).unwrap();
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

    /// A line past the cap costs one `too_large` however long it runs on
    /// (nothing of it is held), a line exactly at the cap is served, and
    /// the requests behind both are answered.
    #[test]
    fn oversized_line_is_refused_once_and_the_next_line_is_served() {
        let svc = Service::new(ServiceOpts::default());
        let mut input = b"{\"op\":\"ping\"}\n".to_vec();
        input.extend(std::iter::repeat_n(b'x', 3 * MAX_LINE_BYTES));
        input.extend(b"\n{\"op\":\"ping\"}");
        input.extend(std::iter::repeat_n(b' ', MAX_LINE_BYTES - 13));
        input.extend(b"\n{\"op\":\"ping\"}\n");
        let lines = served(&svc, &input);
        assert_eq!(lines.len(), 4, "{lines:?}");
        let refusal = format!("\"error\":\"too_large\",\"limit\":{MAX_LINE_BYTES}");
        assert!(lines[1].contains(&refusal), "{}", lines[1]);
        for i in [0, 2, 3] {
            assert!(lines[i].contains("\"pong\""), "{}", lines[i]);
        }
    }

    #[test]
    fn malformed_lines_are_structured_refusals_over_tcp() {
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
        let mut oversized = vec![b'x'; MAX_LINE_BYTES + 1];
        oversized.push(b'\n');
        for (request, expect) in [
            (&b"\xff\xfe\n"[..], "\"error\":\"bad_request\""),
            (&oversized[..], "\"error\":\"too_large\""),
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

    /// A thousand short connections leave the accept loop holding only
    /// the ones still being served, not one handle per connection ever
    /// made.
    #[test]
    fn listener_forgets_finished_connections() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const CONNS: usize = 1000;
        const BATCH: usize = 25;
        let svc = Arc::new(Service::new(ServiceOpts::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (accepted, most) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let server = {
            let (svc, accepted, most) =
                (Arc::clone(&svc), Arc::clone(&accepted), Arc::clone(&most));
            std::thread::spawn(move || {
                accept_loop(svc, listener, |held| {
                    accepted.fetch_add(1, Ordering::Relaxed);
                    most.fetch_max(held, Ordering::Relaxed);
                })
            })
        };
        let round_trip = |conn: &mut TcpStream, request: &[u8]| {
            conn.write_all(request).unwrap();
            let mut line = String::new();
            BufReader::new(conn.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            line
        };
        // Connections that close at once, in batches whose last one waits
        // for its answer — so the listener's backlog never overflows.
        for _ in 0..CONNS / BATCH {
            for _ in 1..BATCH {
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            }
            let mut last = TcpStream::connect(addr).unwrap();
            assert!(round_trip(&mut last, b"{\"op\":\"ping\"}\n").contains("\"pong\""));
        }
        let mut ctl = TcpStream::connect(addr).unwrap();
        assert!(round_trip(&mut ctl, b"{\"op\":\"shutdown\"}\n").contains("\"shutdown\""));
        server.join().expect("server thread").unwrap();
        assert_eq!(accepted.load(Ordering::Relaxed), CONNS + 1);
        let most = most.load(Ordering::Relaxed);
        assert!(most <= 4 * BATCH, "the loop held {most} handles at once");
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
