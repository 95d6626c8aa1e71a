//! Child processes: building and locating the release `thirstyflops`
//! binary, reaping children with their resource usage, and reading
//! peak resident memory.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// Builds the release CLI from the checkout (a no-op when it is fresh)
/// and returns its path. Cargo's own output goes to stderr.
pub fn build_cli() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--locked", "--quiet"])
        .args(["-p", "thirstyflops", "--bin", "thirstyflops"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the thirstyflops binary failed: {status}"));
    }
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = dir.join("release").join("thirstyflops");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no binary at {}", bin.display()))
    }
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size (`ru_maxrss`), MiB.
    pub max_rss_mb: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Waits for `child` and returns its exit and peak RSS. The standard
/// library's `wait` drops the kernel's resource usage, so this reaps
/// through `wait4` instead; `child` must not be waited on afterwards.
pub fn reap(child: &mut Child) -> Result<Exit, String> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range")?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out
        // as the kernel's `int` and 64-bit `struct rusage`; `pid` is our
        // own unreaped child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        max_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// `VmHWM` (peak resident set size) from a `/proc/<pid>/status` text, MiB.
pub fn vm_hwm_mb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
}

/// Peak resident set size of this process so far, MiB.
pub fn self_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    vm_hwm_mb(&status).ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Shortens this thread's timer slack to 1 µs so the open-loop
/// generator's short sleeps end close to when they were asked to (the
/// default slack is 50 µs).
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no memory of ours; failure only leaves the default slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}
