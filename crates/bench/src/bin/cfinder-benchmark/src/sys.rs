//! Statistics and process accounting read from `/proc`.

use std::process::Command;

/// Linear-interpolation quantile (position `p·(n−1)`) of unsorted samples;
/// 0 for no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = proc_path(pid, "status");
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds consumed so far by `pid`, or by this
/// process (all threads). `/proc` counts in clock ticks, which Linux
/// exposes to user space at 100 per second.
fn cpu_seconds(pid: Option<u32>) -> f64 {
    let stat = std::fs::read_to_string(proc_path(pid, "stat")).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Runs `f` and returns its result with the cores it kept busy: CPU
/// seconds of this process, plus of `other` when given, per wall second.
pub fn cpu_util<T>(other: Option<u32>, f: impl FnOnce() -> T) -> (T, f64) {
    let cpu = || cpu_seconds(None) + other.map_or(0.0, |pid| cpu_seconds(Some(pid)));
    let (before, start) = (cpu(), std::time::Instant::now());
    let out = f();
    (out, (cpu() - before) / start.elapsed().as_secs_f64())
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// First line of a command's standard output, or `unknown` when it fails
/// (a checkout without `.git`, a host without the tool).
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
