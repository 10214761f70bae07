//! Driving the release `fg` binary from outside: one process per op
//! with its own peak RSS, and the `fg serve` daemon over one fg-rpc/1
//! connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use telemetry::json::Json;
use telemetry::limits::Limits;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("fgbench reads child resource usage with the 64-bit Linux `struct rusage` layout");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage([i64; 18]);

const RU_MAXRSS: usize = 4;
const SIGKILL: i32 = 9;
const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;

extern "C" {
    fn waitid(idtype: i32, id: u32, info: *mut [u64; 16], options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Retries a libc call that failed with `EINTR`.
fn retry(mut call: impl FnMut() -> i32) -> io::Result<i32> {
    loop {
        let r = call();
        if r != -1 {
            return Ok(r);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Environment variables that would change what `fg` does; cleared from
/// every child so caps come only from explicit flags.
const FG_ENV: [&str; 7] = [
    "FG_FUEL",
    "FG_MAX_DEPTH",
    "FG_MAX_TERMS",
    "FG_MAX_DICT_NODES",
    "FG_TIMEOUT_MS",
    "FG_FAULT",
    "FG_BENCH_QUICK",
];

/// A harness-side limit on one op. `fg`'s own deadline (10 s) trips first.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// One op's answer, from a process or a daemon response.
#[derive(Debug)]
pub struct Reply {
    /// Exit code; 128 + signal number when killed, e.g. on timeout.
    pub code: i32,
    pub stdout: String,
    pub stderr: String,
    /// Whether the daemon answered from its compile cache.
    pub cached: bool,
}

/// The CLI's default caps, passed as explicit flags.
pub fn cap_flags() -> Vec<String> {
    let l = Limits::DEFAULT_CAPS;
    let mut out = Vec::new();
    for (flag, v) in [
        ("--fuel", l.fuel),
        ("--max-depth", l.max_depth),
        ("--max-terms", l.max_cc_terms),
        ("--max-dict-nodes", l.max_dict_nodes),
        ("--timeout-ms", l.timeout_ms),
    ] {
        out.push(flag.to_owned());
        out.push(v.map_or_else(|| "none".to_owned(), |n| n.to_string()));
    }
    out
}

/// A `Command` for `fg` with the hermetic environment.
pub fn fg_command(fg: &Path) -> Command {
    let mut cmd = Command::new(fg);
    for var in FG_ENV {
        cmd.env_remove(var);
    }
    cmd
}

/// Builds the release `fg` from the checkout in the working directory
/// and returns its path. Cargo rebuilds whatever the tree changed, so a
/// stale binary is never measured.
pub fn build_fg() -> Result<PathBuf, String> {
    if !Path::new("crates/fg-cli/Cargo.toml").is_file() {
        return Err("run from the root of an fg checkout (crates/fg-cli is missing)".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "fg-cli"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building fg failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned());
    let fg = Path::new(&target).join("release").join("fg");
    if !fg.is_file() {
        return Err(format!("{} was not built", fg.display()));
    }
    Ok(fg)
}

/// Kills a child that outlives its deadline. One thread serves every
/// op: `arm` before waiting, `disarm` after.
pub struct Watchdog {
    state: Arc<(Mutex<WatchState>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

#[derive(Default)]
struct WatchState {
    armed: Option<(i32, Instant)>,
    fired: bool,
    stop: bool,
}

impl Watchdog {
    pub fn new() -> Watchdog {
        let state = Arc::new((Mutex::new(WatchState::default()), Condvar::new()));
        let shared = Arc::clone(&state);
        let thread = std::thread::spawn(move || {
            let (lock, cond) = &*shared;
            let mut s = lock.lock().expect("watchdog state lock");
            while !s.stop {
                match s.armed {
                    None => s = cond.wait(s).expect("watchdog state lock"),
                    Some((pid, deadline)) => {
                        let now = Instant::now();
                        if now >= deadline {
                            // SAFETY: `kill` has no memory-safety
                            // preconditions. `pid` still names our child:
                            // it is disarmed before it is reaped, so the
                            // pid cannot have been reused.
                            unsafe { kill(pid, SIGKILL) };
                            s.fired = true;
                            s.armed = None;
                        } else {
                            s = cond
                                .wait_timeout(s, deadline - now)
                                .expect("watchdog state lock")
                                .0;
                        }
                    }
                }
            }
        });
        Watchdog {
            state,
            thread: Some(thread),
        }
    }

    fn arm(&self, pid: i32, deadline: Instant) {
        let (lock, cond) = &*self.state;
        let mut s = lock.lock().expect("watchdog state lock");
        s.armed = Some((pid, deadline));
        s.fired = false;
        cond.notify_one();
    }

    /// Disarms and reports whether the deadline fired.
    fn disarm(&self) -> bool {
        let mut s = self.state.0.lock().expect("watchdog state lock");
        s.armed = None;
        s.fired
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        if let Ok(mut s) = self.state.0.lock() {
            s.stop = true;
        }
        self.state.1.notify_one();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A finished process: its reply, wall latency and peak RSS.
pub struct ProcRun {
    pub reply: Reply,
    pub latency: Duration,
    pub maxrss_kb: u64,
    pub timed_out: bool,
}

/// Runs `cmd` to completion, timing it from spawn to reap, and reads the
/// child's own `ru_maxrss` with `wait4`.
pub fn run_process(cmd: &mut Command, watchdog: &Watchdog) -> io::Result<ProcRun> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    watchdog.arm(pid, t0 + OP_TIMEOUT);
    let mut stdout = String::new();
    let mut stderr = String::new();
    // `fg` writes its diagnostics after its output and keeps them far
    // below a pipe buffer, so reading the two streams in turn cannot
    // deadlock.
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)
        .and_then(|_| {
            child
                .stderr
                .take()
                .expect("stderr is piped")
                .read_to_string(&mut stderr)
        });
    // Wait for the exit without reaping, so the watchdog is disarmed while
    // the pid still belongs to the child; then reap it with its rusage.
    let mut info = [0u64; 16];
    // SAFETY: `info` is a live, writable buffer of 128 bytes, the size of
    // `siginfo_t`; `pid` is our child, which `std` never waits for because
    // we do not call `Child::wait`.
    let exited = retry(|| unsafe { waitid(P_PID, pid as u32, &mut info, WEXITED | WNOWAIT) });
    let latency = t0.elapsed();
    let timed_out = watchdog.disarm();
    exited?;
    let mut status = 0i32;
    let mut usage = RUsage([0; 18]);
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // `int` and 64-bit Linux `struct rusage`; `pid` is our exited,
    // unreaped child.
    retry(|| unsafe { wait4(pid, &mut status, 0, &mut usage) })?;
    read?;
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(ProcRun {
        reply: Reply {
            code,
            stdout,
            stderr,
            cached: false,
        },
        latency,
        maxrss_kb: u64::try_from(usage.0[RU_MAXRSS]).unwrap_or(0),
        timed_out,
    })
}

/// A running `fg --prelude --jobs 2 serve` daemon and one connection.
pub struct Daemon {
    child: Option<Child>,
    _banner: BufReader<ChildStdout>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    pid: u32,
}

impl Daemon {
    /// Spawns the daemon, reads its address banner and connects.
    pub fn spawn(fg: &Path) -> io::Result<Daemon> {
        let mut cmd = fg_command(fg);
        cmd.args(["--prelude", "--jobs", "2"])
            .args(cap_flags())
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        let mut child = cmd.spawn()?;
        let pid = child.id();
        let mut banner = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let connected = banner.read_line(&mut line).and_then(|_| {
            let addr = line
                .trim()
                .strip_prefix("fg: serving fg-rpc/1 on ")
                .ok_or_else(|| io::Error::other(format!("unexpected banner {line:?}")))?;
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(OP_TIMEOUT))?;
            stream.set_write_timeout(Some(OP_TIMEOUT))?;
            Ok(stream)
        });
        let stream = match connected {
            Ok(s) => s,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        Ok(Daemon {
            child: Some(child),
            _banner: banner,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            pid,
        })
    }

    /// Sends one request line (newline-terminated) and returns the raw
    /// response line and the round-trip time.
    pub fn round_trip(&mut self, line: &str) -> io::Result<(String, Duration)> {
        let t0 = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        let mut resp = String::new();
        self.reader.read_line(&mut resp)?;
        let dt = t0.elapsed();
        if resp.is_empty() {
            return Err(io::Error::other("daemon closed the connection"));
        }
        Ok((resp, dt))
    }

    /// The daemon's `stats` reply: its fg-metrics/1 document.
    pub fn stats(&mut self) -> io::Result<Json> {
        let (resp, _) = self.round_trip("{\"v\":\"fg-rpc/1\",\"id\":0,\"method\":\"stats\"}\n")?;
        let doc = Json::parse(&resp)
            .ok()
            .and_then(|r| r.get("output").and_then(Json::as_str).map(str::to_owned))
            .ok_or_else(|| io::Error::other(format!("bad stats reply {resp:?}")))?;
        Json::parse(&doc).map_err(io::Error::other)
    }

    /// A `VmHWM`/`VmRSS` line of the daemon's `/proc` status, in KiB.
    pub fn proc_kb(&self, field: &str) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other(format!("no {field} in /proc status")))
    }

    /// Asks the daemon to stop and waits until it has exited.
    pub fn shutdown(mut self) -> io::Result<()> {
        let sent = self.round_trip("{\"v\":\"fg-rpc/1\",\"id\":0,\"method\":\"shutdown\"}\n");
        let mut child = self.child.take().expect("daemon is running");
        if sent.is_err() {
            let _ = child.kill();
        }
        let status = child.wait()?;
        sent?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("daemon exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Decodes one fg-rpc/1 pipeline response.
pub fn parse_response(resp: &str) -> Result<Reply, String> {
    let r = Json::parse(resp).map_err(|e| format!("bad response: {e}"))?;
    let field = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
    let code = r
        .get("exit")
        .and_then(Json::as_i64)
        .ok_or_else(|| format!("response without exit code: {resp}"))?;
    Ok(Reply {
        code: i32::try_from(code).map_err(|_| "exit code out of range".to_owned())?,
        stdout: field("output"),
        stderr: field("diagnostics"),
        cached: r.get("cached").and_then(Json::as_bool).unwrap_or(false),
    })
}
