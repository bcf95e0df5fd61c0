//! Child processes: the `streamlinc` runs, the `streamlind` daemon and the
//! watchdog that keeps either from hanging the benchmark.
//!
//! The load generator is one thread. The watchdog is a second thread that
//! sleeps except for a clock read every 25 ms, so generator plus daemon
//! still fit the two cores the benchmark is sized for.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Output, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Every child operation must finish within this or the child is killed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}
const SIGKILL: i32 = 9;

/// A CPU set as the kernel takes it: one bit per CPU, 1024 CPUs.
#[derive(Clone, Copy)]
pub struct CpuMask([u64; 16]);

impl CpuMask {
    /// The CPUs the calling thread may run on.
    pub fn current() -> Option<CpuMask> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(CpuMask(mask))
    }

    pub fn count(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Just the lowest-numbered CPU of this set.
    pub fn first_only(self) -> CpuMask {
        let mut one = [0u64; 16];
        if let Some((i, word)) = self.0.iter().enumerate().find(|(_, w)| **w != 0) {
            one[i] = word & word.wrapping_neg();
        }
        CpuMask(one)
    }

    /// Restricts the calling thread, and every child it spawns from now
    /// on, to this set. Returns whether the kernel accepted it.
    pub fn apply(self) -> bool {
        // SAFETY: `self.0` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }
}

struct WatchState {
    epoch: Instant,
    /// Nanoseconds after `epoch` at which `pid` is killed; 0 = disarmed.
    deadline_ns: AtomicU64,
    pid: AtomicU32,
    fired: AtomicU32,
    stop: AtomicBool,
}

/// Kills the armed child when its deadline passes. One child is armed at
/// a time, which is all a single closed-loop generator needs.
pub struct Watchdog {
    state: Arc<WatchState>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn new() -> Self {
        let state = Arc::new(WatchState {
            epoch: Instant::now(),
            deadline_ns: AtomicU64::new(0),
            pid: AtomicU32::new(0),
            fired: AtomicU32::new(0),
            stop: AtomicBool::new(false),
        });
        let st = Arc::clone(&state);
        let thread = std::thread::spawn(move || {
            // SeqCst throughout: the flags carry no data, and a 25 ms
            // poll has no use for anything weaker.
            while !st.stop.load(Ordering::SeqCst) {
                let deadline = st.deadline_ns.load(Ordering::SeqCst);
                if deadline != 0 && st.epoch.elapsed().as_nanos() as u64 > deadline {
                    let pid = st.pid.load(Ordering::SeqCst);
                    // SAFETY: `kill` has no memory-safety preconditions.
                    // The pid is a child this process spawned and has not
                    // reaped yet (callers disarm before or right after
                    // `wait`), so it cannot name an unrelated process.
                    unsafe { kill(pid as i32, SIGKILL) };
                    st.fired.fetch_add(1, Ordering::SeqCst);
                    st.deadline_ns.store(0, Ordering::SeqCst);
                }
                std::thread::park_timeout(Duration::from_millis(25));
            }
        });
        Watchdog {
            state,
            thread: Some(thread),
        }
    }

    /// Arms (or re-arms) the deadline for `pid`, `timeout` from now.
    #[inline]
    pub fn arm(&self, pid: u32, timeout: Duration) {
        let at = self.state.epoch.elapsed() + timeout;
        self.state.pid.store(pid, Ordering::SeqCst);
        self.state
            .deadline_ns
            .store(at.as_nanos() as u64, Ordering::SeqCst);
    }

    #[inline]
    pub fn disarm(&self) {
        self.state.deadline_ns.store(0, Ordering::SeqCst);
    }

    /// How many children the watchdog has had to kill.
    pub fn fired(&self) -> u32 {
        self.state.fired.load(Ordering::SeqCst)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

/// Runs a command to completion under the watchdog, capturing stdout and
/// stderr. `Err` only if it could not be spawned; a killed child shows as
/// an unsuccessful exit status.
pub fn run_to_exit(cmd: &mut Command, wd: &Watchdog) -> std::io::Result<Output> {
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    wd.arm(child.id(), OP_TIMEOUT);
    let out = child.wait_with_output();
    wd.disarm();
    out
}

/// What a request gets when the pipe has closed: the daemon exited,
/// crashed, or was killed by the watchdog after [`OP_TIMEOUT`].
const GONE: &str = "daemon gone (exited, crashed or timed out)";

/// A `streamlind` child speaking the line protocol over its stdio.
pub struct Daemon<'w> {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    wd: &'w Watchdog,
    /// The outgoing request with its newline, reused across requests.
    out: Vec<u8>,
    /// The last response line, without its newline.
    line: String,
}

impl<'w> Daemon<'w> {
    /// Spawns `streamlind --workers <DAEMON_WORKERS>` on stdio, its stderr
    /// discarded.
    pub fn spawn(bin: &Path, wd: &'w Watchdog) -> std::io::Result<Self> {
        let mut child = Command::new(bin)
            .args(["--workers", &crate::run::DAEMON_WORKERS.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::with_capacity(1 << 16, child.stdout.take().expect("piped"));
        Ok(Daemon {
            child,
            stdin,
            stdout,
            wd,
            out: Vec::new(),
            line: String::new(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one request line (`line` carries no newline).
    #[inline]
    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or(GONE)?;
        // One write per request: the daemon wakes once per line.
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        stdin.write_all(&self.out).map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe => GONE.to_string(),
            _ => format!("daemon pipe: {e}"),
        })
    }

    /// Receives one response line, waiting at most [`OP_TIMEOUT`].
    #[inline]
    fn recv(&mut self) -> Result<&str, String> {
        self.line.clear();
        self.wd.arm(self.child.id(), OP_TIMEOUT);
        let got = self.stdout.read_line(&mut self.line);
        self.wd.disarm();
        match got {
            Ok(0) => Err(GONE.to_string()),
            Ok(_) => {
                if self.line.ends_with('\n') {
                    self.line.pop();
                }
                Ok(&self.line)
            }
            Err(e) => Err(format!("daemon pipe: {e}")),
        }
    }

    /// One request, one response.
    #[inline]
    pub fn request(&mut self, line: &str) -> Result<&str, String> {
        self.send(line)?;
        self.recv()
    }

    /// A `Vm*` line of `/proc/<pid>/status`, in kB.
    pub fn status_kb(&self, field: &str) -> Option<u64> {
        let text = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        text.lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|n| n.trim().parse().ok())
    }

    /// Asks the daemon to shut down and waits for it to exit; an error
    /// unless it answered and exited cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let answered = self
            .request("{\"op\":\"shutdown\"}")
            .is_ok_and(|r| r.contains("\"ok\":true"));
        self.stdin = None;
        self.wd.arm(self.child.id(), OP_TIMEOUT);
        let status = self.child.wait();
        self.wd.disarm();
        if answered && status.is_ok_and(|s| s.success()) {
            Ok(())
        } else {
            Err("daemon did not shut down cleanly".into())
        }
    }
}

impl Drop for Daemon<'_> {
    /// Runs on every exit path, unwinding from a panic included: the
    /// daemon never outlives the benchmark.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
