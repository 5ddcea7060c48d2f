//! The daemon under test, as a child process of its own.
//!
//! The benchmark re-executes its own binary with `daemon <flags>`, which
//! runs the `seer daemon` command unchanged (`seer_cli`'s dispatcher), so
//! the daemon's threads, allocator, and memory are separate from the load
//! generator's: its CPU time and peak RSS can be read from `/proc`, and a
//! crash is a real `SIGKILL` rather than an in-process kill flag that may
//! still take the graceful exit path and write a final snapshot.

use seer_daemon::DaemonClient;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a starting daemon may take to answer its handshake.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon child. Dropping it kills and reaps the process.
pub struct DaemonProcess {
    child: Child,
    pid: i32,
    socket: PathBuf,
}

impl DaemonProcess {
    /// Starts `seer daemon --socket <socket> <flags>` as a child, with its
    /// output appended to `log`.
    ///
    /// # Errors
    ///
    /// Returns a description if the binary cannot be started.
    pub fn spawn(socket: &Path, flags: &[String], log: &Path) -> Result<DaemonProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let out = File::options()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("opening {}: {e}", log.display()))?;
        let err = out
            .try_clone()
            .map_err(|e| format!("duplicating log handle: {e}"))?;
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--socket")
            .arg(socket)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("starting daemon: {e}"))?;
        let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
        Ok(DaemonProcess {
            child,
            pid,
            socket: socket.to_owned(),
        })
    }

    /// Connects once the daemon listens, polling every 100 µs: a daemon
    /// binds its socket only after recovery, so the first successful
    /// handshake (`Welcome`) marks the end of start-up.
    ///
    /// # Errors
    ///
    /// Returns a description if the child exits or never answers.
    pub fn connect(&mut self) -> Result<DaemonClient, String> {
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status})"));
            }
            match DaemonClient::connect(&self.socket, "perfbench") {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("daemon did not answer: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_micros(100)),
            }
        }
    }

    /// CPU time (user + system, all threads) the daemon has used so far.
    ///
    /// # Errors
    ///
    /// Returns a description if the process clock cannot be read.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        process_cpu_seconds(self.pid)
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    ///
    /// # Errors
    ///
    /// Returns a description if `/proc` cannot be read.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("reading daemon status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM line in daemon status".to_string())?;
        Ok(kb / 1024.0)
    }

    /// Sends `SIGKILL` and reaps the child; returns when the kill was
    /// sent, the start of a crash-recovery interval.
    pub fn kill(mut self) -> Instant {
        let at = Instant::now();
        let _ = self.child.kill();
        let _ = self.child.wait();
        at
    }

    /// Waits for a daemon that was asked to shut down to exit.
    ///
    /// # Errors
    ///
    /// Returns a description if it exits unsuccessfully.
    pub fn wait(mut self) -> Result<(), String> {
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock_id: *mut i32) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Total CPU time of process `pid` at nanosecond resolution, via its
/// POSIX CPU-time clock (`/proc`'s utime/stime tick at 10 ms, too coarse
/// for sub-second windows).
fn process_cpu_seconds(pid: i32) -> Result<f64, String> {
    let mut clock = 0i32;
    // SAFETY: `clock` is a valid, writable i32 for the duration of the
    // call, which writes at most one `clockid_t` (an `int` on Linux).
    if unsafe { clock_getcpuclockid(pid, &mut clock) } != 0 {
        return Err(format!("no CPU clock for pid {pid}"));
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` matches the C `struct timespec` layout on 64-bit Linux
    // (two 64-bit fields) and stays valid and writable during the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!("reading CPU clock of pid {pid}"));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}
