//! Host readings: process CPU time, memory high-water mark, steal time
//! and the fingerprint printed beside every run.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread
/// of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux `CLOCK_THREAD_CPUTIME_ID`: user + system time of the calling
/// thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for) that outlives
    // the call; the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks are always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Process CPU seconds (user + system, all threads) so far.
pub fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds (user + system) of the calling thread so far.
pub fn thread_cpu_seconds() -> f64 {
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// The process's resident-memory high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide steal time so far, in clock ticks (the 8th value of the
/// aggregate `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|line| line.starts_with("cpu "))
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host and build fingerprint: one JSON object.
pub fn fingerprint(steal_delta_ticks: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only this checkout's own repository counts, never an enclosing one.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"steal_ticks_during_run\":{steal_delta_ticks},\
         \"rustc\":{},\"rev\":{}}}",
        json_str(&cpu_model()),
        json_str(&rustc),
        json_str(&rev)
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
