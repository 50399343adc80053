//! Facts about the host and the process, read from `/proc`: every result
//! records where and on what it was measured.

use std::path::Path;

/// The host facts every result carries.
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_commit: String,
}

impl HostFacts {
    /// Collects the facts. `root` is the checkout the benchmark runs in.
    pub fn collect(root: &Path) -> HostFacts {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            git_commit: git_commit(root),
        }
    }
}

/// `git rev-parse HEAD`, or "unknown" where git cannot name it (an
/// exported checkout carries only the files).
fn git_commit(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The filesystem type holding `path` (longest mount-point prefix in
/// `/proc/self/mounts`): WAL sync cost differs between ext4 and tmpfs.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(fstype)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() >= *len) {
            best = Some((mnt.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the calling thread has run, in nanoseconds
/// (`/proc/thread-self/schedstat`, first field).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// CPU time every thread of this process has run, exited threads
/// included, in clock ticks (`/proc/self/stat`, utime + stime).
pub fn process_cpu_ticks() -> u64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line.
    let fields: Vec<u64> = text
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    fields.iter().sum()
}

/// Cumulative `(steal, total)` jiffies of all CPUs (`/proc/stat`): the
/// share of a run's CPU time the hypervisor gave to other guests.
pub fn cpu_steal_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}
