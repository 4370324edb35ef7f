//! The `/proc` sampler: per-thread CPU time and context switches,
//! grouped by thread-name prefix, plus the process's CPU and `VmHWM`.
//! On a host without `/proc/self/task` every reading is `None` —
//! reported as absent, never as zero.

use std::fs;

/// `/proc` reports CPU time in `USER_HZ` ticks, fixed at 100 by the
/// Linux ABI.
pub const NS_PER_TICK: u64 = 10_000_000;

/// One thread's counters at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadSample {
    /// Thread id.
    pub tid: u64,
    /// Thread name (`comm`, at most 15 bytes).
    pub name: String,
    /// User CPU, ticks.
    pub utime: u64,
    /// System CPU, ticks.
    pub stime: u64,
    /// Voluntary context switches.
    pub vcsw: u64,
    /// Involuntary context switches.
    pub nvcsw: u64,
}

/// Parses `utime` and `stime` (fields 14 and 15) from a `stat` line.
/// The name field may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Fields read from a `status` file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Status {
    /// `Name:`.
    pub name: String,
    /// `voluntary_ctxt_switches:`.
    pub vcsw: u64,
    /// `nonvoluntary_ctxt_switches:`.
    pub nvcsw: u64,
    /// `VmHWM:` in KiB (present for the process, not for threads on
    /// every kernel).
    pub vm_hwm_kib: Option<u64>,
}

/// Parses the fields of a `status` file this sampler uses.
pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        let number = || value.split_whitespace().next()?.parse::<u64>().ok();
        match key {
            "Name" => s.name = value.to_owned(),
            "voluntary_ctxt_switches" => s.vcsw = number().unwrap_or(0),
            "nonvoluntary_ctxt_switches" => s.nvcsw = number().unwrap_or(0),
            "VmHWM" => s.vm_hwm_kib = number(),
            _ => {}
        }
    }
    s
}

/// Samples every thread of this process (`None` without `/proc`).
pub fn sample_threads() -> Option<Vec<ThreadSample>> {
    let mut out = Vec::new();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let Ok(entry) = entry else { continue };
        let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        let dir = entry.path();
        // A thread that exits between the listing and the reads is
        // skipped, not an error.
        let (Ok(stat), Ok(status)) = (
            fs::read_to_string(dir.join("stat")),
            fs::read_to_string(dir.join("status")),
        ) else {
            continue;
        };
        let Some((utime, stime)) = parse_stat(&stat) else {
            continue;
        };
        let st = parse_status(&status);
        out.push(ThreadSample {
            tid,
            name: st.name,
            utime,
            stime,
            vcsw: st.vcsw,
            nvcsw: st.nvcsw,
        });
    }
    Some(out)
}

/// Samples the calling thread (`None` without `/proc`). A thread
/// that exits before the process samples it again measures itself.
pub fn sample_self() -> Option<ThreadSample> {
    let stat = fs::read_to_string("/proc/thread-self/stat").ok()?;
    let (utime, stime) = parse_stat(&stat)?;
    let st = parse_status(&fs::read_to_string("/proc/thread-self/status").ok()?);
    Some(ThreadSample {
        tid: 0,
        name: st.name,
        utime,
        stime,
        vcsw: st.vcsw,
        nvcsw: st.nvcsw,
    })
}

/// Whole-process `(utime, stime)` in ticks, exited threads included.
pub fn process_cpu() -> Option<(u64, u64)> {
    parse_stat(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// The process's peak resident set (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    parse_status(&fs::read_to_string("/proc/self/status").ok()?).vm_hwm_kib
}

/// Resets the process's peak resident set to its current resident set
/// (`5` to `/proc/self/clear_refs`) and returns that value in KiB, the
/// baseline later [`peak_rss_kib`] readings are measured above.
pub fn reset_peak_rss() -> Option<u64> {
    fs::write("/proc/self/clear_refs", "5").ok()?;
    peak_rss_kib()
}

/// Counter deltas of the threads whose names start with `prefix`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupDelta {
    /// Threads seen in the group.
    pub threads: usize,
    /// User CPU, ns.
    pub user_ns: u64,
    /// System CPU, ns.
    pub sys_ns: u64,
    /// Voluntary context switches.
    pub vcsw: u64,
    /// Involuntary context switches.
    pub nvcsw: u64,
}

impl GroupDelta {
    /// Adds another group's counters.
    pub fn add(&mut self, o: &GroupDelta) {
        self.threads += o.threads;
        self.user_ns += o.user_ns;
        self.sys_ns += o.sys_ns;
        self.vcsw += o.vcsw;
        self.nvcsw += o.nvcsw;
    }

    /// The delta of one thread between two of its own samples.
    pub fn between(before: &ThreadSample, after: &ThreadSample) -> GroupDelta {
        group_delta(
            std::slice::from_ref(before),
            std::slice::from_ref(after),
            &[""],
        )
    }

    /// User plus system CPU, ns.
    pub fn cpu_ns(&self) -> u64 {
        self.user_ns + self.sys_ns
    }

    /// System share of the group's CPU (0 when it used none).
    pub fn sys_share(&self) -> f64 {
        if self.cpu_ns() == 0 {
            0.0
        } else {
            self.sys_ns as f64 / self.cpu_ns() as f64
        }
    }
}

/// Sums the deltas between two samples over threads named with any of
/// `prefixes`. A thread absent from `before` started inside the
/// interval and counts from zero.
pub fn group_delta(
    before: &[ThreadSample],
    after: &[ThreadSample],
    prefixes: &[&str],
) -> GroupDelta {
    let mut g = GroupDelta::default();
    for a in after {
        if !prefixes.iter().any(|p| a.name.starts_with(p)) {
            continue;
        }
        let b = before
            .iter()
            .find(|b| b.tid == a.tid)
            .cloned()
            .unwrap_or_default();
        g.threads += 1;
        g.user_ns += a.utime.saturating_sub(b.utime) * NS_PER_TICK;
        g.sys_ns += a.stime.saturating_sub(b.stime) * NS_PER_TICK;
        g.vcsw += a.vcsw.saturating_sub(b.vcsw);
        g.nvcsw += a.nvcsw.saturating_sub(b.nvcsw);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (ivl-conn 0) (x) S 1 4242 4242 0 -1 4194368 120 0 0 0 \
                        731 219 0 0 20 0 9 0 115432 2568192 328 18446744073709551615";

    const STATUS: &str = "Name:\tivl-reactor-1\nUmask:\t0022\nState:\tS (sleeping)\n\
                          VmHWM:\t   41236 kB\nvoluntary_ctxt_switches:\t1503\n\
                          nonvoluntary_ctxt_switches:\t77\n";

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        assert_eq!(parse_stat(STAT), Some((731, 219)));
        assert_eq!(parse_stat("no paren here"), None);
        assert_eq!(parse_stat("1 (short) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse() {
        let s = parse_status(STATUS);
        assert_eq!(s.name, "ivl-reactor-1");
        assert_eq!((s.vcsw, s.nvcsw), (1503, 77));
        assert_eq!(s.vm_hwm_kib, Some(41236));
        assert_eq!(parse_status("Name:\tx\n").vm_hwm_kib, None);
    }

    #[test]
    fn groups_sum_deltas_by_prefix_and_count_new_threads_from_zero() {
        let t = |tid, name: &str, utime, stime, vcsw| ThreadSample {
            tid,
            name: name.into(),
            utime,
            stime,
            vcsw,
            nvcsw: 0,
        };
        let before = vec![t(1, "ivl-conn-0", 10, 5, 100), t(2, "pb-ingest-0", 3, 1, 7)];
        let after = vec![
            t(1, "ivl-conn-0", 14, 9, 160),
            t(2, "pb-ingest-0", 4, 1, 9),
            t(3, "ivl-accept", 0, 1, 2),
        ];
        let server = group_delta(&before, &after, &["ivl-conn-", "ivl-accept"]);
        assert_eq!(server.threads, 2);
        assert_eq!(server.user_ns, 4 * NS_PER_TICK);
        assert_eq!(server.sys_ns, 5 * NS_PER_TICK);
        assert_eq!(server.vcsw, 62);
        assert!((server.sys_share() - 5.0 / 9.0).abs() < 1e-12);
        let client = group_delta(&before, &after, &["pb-"]);
        assert_eq!((client.threads, client.cpu_ns()), (1, NS_PER_TICK));
    }
}
