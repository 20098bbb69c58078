//! Process accounting from `/proc/self`: CPU time split into user and
//! kernel time, and peak resident memory.

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux fixes
/// this `USER_HZ` at 100 for user space on every architecture it exposes
/// `/proc` on, independent of the kernel's internal tick rate.
const USER_HZ: f64 = 100.0;

/// CPU time a process has used so far, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    pub user: f64,
    pub system: f64,
}

impl CpuTimes {
    pub fn total(&self) -> f64 {
        self.user + self.system
    }

    /// CPU time spent between `earlier` and `self`.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user: self.user - earlier.user,
            system: self.system - earlier.system,
        }
    }
}

/// Parse `utime` and `stime` (fields 14 and 15) from a `/proc/<pid>/stat`
/// line. The command name (field 2) is parenthesised and may itself hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<CpuTimes> {
    let after_comm = &line[line.rfind(')')? + 1..];
    // After the command name come field 3 (state) onwards, so utime is the
    // 12th whitespace-separated token and stime the 13th.
    let mut fields = after_comm.split_whitespace().skip(11);
    let user: u64 = fields.next()?.parse().ok()?;
    let system: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user: user as f64 / USER_HZ,
        system: system as f64 / USER_HZ,
    })
}

/// CPU time of this process (all threads, including those that ended).
pub fn cpu_times() -> CpuTimes {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in MB.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mb(&s))
        .expect("/proc/self/status reports VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_after_command_name() {
        // A command name holding spaces and a ')' must not shift the fields.
        let line = "4242 (my prog) (x) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    1234 56 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        let t = parse_stat(line).unwrap();
        assert!((t.user - 12.34).abs() < 1e-9);
        assert!((t.system - 0.56).abs() < 1e-9);
        assert!((t.total() - 12.90).abs() < 1e-9);
        assert!(parse_stat("12 (truncated) S 1 2").is_none());
    }

    #[test]
    fn cpu_time_deltas_and_live_reading() {
        let a = CpuTimes {
            user: 1.0,
            system: 0.5,
        };
        let b = CpuTimes {
            user: 3.0,
            system: 0.75,
        };
        assert_eq!(
            b.since(&a),
            CpuTimes {
                user: 2.0,
                system: 0.25
            }
        );
        // Burning CPU on this thread shows up in the live reading.
        let before = cpu_times();
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_times().since(&before).total() > 0.0);
    }

    #[test]
    fn peak_rss_from_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(200.0));
        assert!(peak_rss_mb() > 0.0);
    }
}
