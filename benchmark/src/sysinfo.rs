//! What the operating system and the toolchain say about this run: CPU
//! time and peak memory of the process, and the environment a result is
//! only comparable within.

use crate::json::Json;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat`; Linux fixes
/// `USER_HZ` at 100 on every architecture Rust supports.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of this process (all threads) in
/// milliseconds, from `/proc/self/stat` fields 14 and 15.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("numeric stat field") };
    // `rest` starts at field 3, so fields 14 and 15 are at 11 and 12.
    (ticks(11) + ticks(12)) * 1000.0 / TICKS_PER_S
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB");
    kb / 1024.0
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line a command prints, or "unknown" when it cannot run (the
/// driver's checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment every output file records.
pub fn environment(seed: u64, seconds: f64) -> Json {
    Json::obj([
        ("available_parallelism", Json::Int(cores() as u64)),
        ("scale_factor", Json::Num(crate::workloads::SF)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        (
            "git_revision",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}
