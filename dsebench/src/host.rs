//! Host and process counters read from `/proc`: steal, CPU time, context
//! switches and peak memory.

use std::fs;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    pub fn read() -> CpuTimes {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal (guest time is
        // already counted in user).
        CpuTimes {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Steal as a share of all CPU time since `earlier`, in percent.
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Counters of one process, summed over its live threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcCounters {
    /// Nanoseconds on CPU (`schedstat`).
    pub cpu_ns: u64,
    pub voluntary_cs: u64,
    pub involuntary_cs: u64,
}

impl ProcCounters {
    /// Counters of process `pid` (`"self"` for this process).
    pub fn read(pid: &str) -> ProcCounters {
        let mut c = ProcCounters::default();
        let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
            return c;
        };
        for task in tasks.flatten() {
            let path = task.path();
            if let Ok(s) = fs::read_to_string(path.join("schedstat")) {
                c.cpu_ns += s
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
            if let Ok(s) = fs::read_to_string(path.join("status")) {
                c.voluntary_cs += status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0);
                c.involuntary_cs += status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0);
            }
        }
        c
    }

    pub fn since(&self, earlier: &ProcCounters) -> ProcCounters {
        ProcCounters {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            voluntary_cs: self.voluntary_cs.saturating_sub(earlier.voluntary_cs),
            involuntary_cs: self.involuntary_cs.saturating_sub(earlier.involuntary_cs),
        }
    }
}

/// Host CPU speed right now: the median time, in µs, of a fixed integer
/// loop. Steal does not show every slowdown (a throttled or contended
/// core shows none), so this is printed beside it.
pub fn calibrate_us() -> f64 {
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for _ in 0..1_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&times)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let s = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_field(&s, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// The leading integer after `key` in a `/proc/*/status` text.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let c = ProcCounters::read("self");
        assert!(c.cpu_ns > 0);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        let a = CpuTimes::read();
        let b = CpuTimes::read();
        assert!((0.0..=100.0).contains(&b.steal_pct_since(&a)));
    }
}
