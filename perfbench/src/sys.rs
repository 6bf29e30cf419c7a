//! Process and file-system probes: peak memory, bytes written, store
//! size, and the work-directory cleanup guard.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Reads one `key: value` field of a `/proc/self/*` file as a number.
fn proc_field(file: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM").map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes this process has passed to `write`-family calls (`wchar`).
pub fn bytes_written() -> f64 {
    proc_field("/proc/self/io", "wchar").unwrap_or(0.0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> f64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0.0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len() as f64,
            Err(_) => 0.0,
        })
        .sum()
}

/// CPU time of every thread of this process: `(thread id, name, ns)`,
/// from `/proc/self/task/*/schedstat`.
pub fn thread_cpu() -> Vec<(u64, String, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    tasks
        .flatten()
        .filter_map(|t| {
            let tid = t.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(t.path().join("comm")).ok()?.trim().to_string();
            let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            Some((tid, name, stat.split_whitespace().next()?.parse().ok()?))
        })
        .collect()
}

/// CPU time of the calling thread, in nanoseconds.
pub fn this_thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time of the first thread whose name starts with `prefix`.
pub fn named_thread_cpu_ns(prefix: &str) -> Option<u64> {
    thread_cpu().into_iter().find(|(_, name, _)| name.starts_with(prefix)).map(|t| t.2)
}

/// Removes a directory tree when dropped, so stores never outlive a run.
pub struct RemoveOnDrop(pub PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Leave no empty parent behind either.
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Sleeps until `at`; returns at once when `at` has passed.
pub fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}
