//! CPU placement. Each sub-window of a run confines itself —
//! generators and in-process servers alike — to one CPU. On a small
//! virtual machine, wake-ups that cross vCPUs cost tens of microseconds
//! and the scheduler's placement of a rig's threads changes from run to
//! run, so unpinned runs of one seed differ by up to 2x in throughput.
//! Threads inherit the affinity of the thread that spawns them, so
//! pinning the main thread before a rig is booted places every thread
//! of that rig.

use std::fs;
use std::process::{Command, Stdio};

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g.
/// `0-1,4`), in ascending order.
pub fn allowed_cpus() -> Option<Vec<usize>> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    parse_cpu_list(list)
}

/// Parses a kernel CPU list such as `0-1,4`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
        cpus.extend(lo..=hi);
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// Pins the calling thread to `cpu` with `taskset`.
pub fn pin_current_thread(cpu: usize) -> Result<(), String> {
    let link = fs::read_link("/proc/thread-self").map_err(|e| format!("/proc/thread-self: {e}"))?;
    let tid = link
        .file_name()
        .and_then(|t| t.to_str())
        .ok_or("unreadable thread id")?
        .to_owned();
    let status = Command::new("taskset")
        .args(["-pc", &cpu.to_string(), &tid])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("taskset exited with {status}"))
    }
}

#[cfg(test)]
mod tests {
    use super::parse_cpu_list;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("0,2-4,7"), Some(vec![0, 2, 3, 4, 7]));
        assert_eq!(parse_cpu_list("x"), None);
    }
}
