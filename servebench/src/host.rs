//! Host and process counters read from `/proc` (no FFI).

use std::fs;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/*/stat` times (Linux `USER_HZ`, fixed
/// at 100 by the kernel ABI on every architecture this runs on).
const USER_HZ: f64 = 100.0;

/// Cumulative machine-wide CPU time from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    /// Sum of every state's ticks.
    pub total: u64,
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
}

impl CpuTicks {
    /// Reads `/proc/stat`; `None` where it is unavailable.
    #[must_use]
    pub fn now() -> Option<Self> {
        parse_proc_stat(&fs::read_to_string("/proc/stat").ok()?)
    }

    /// Share of CPU time stolen between `earlier` and `self`.
    #[must_use]
    pub fn steal_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Samples `/proc/stat` on a background thread at a fixed period, so a
/// run can tell which stretches of its timed phase the hypervisor stole.
#[derive(Debug)]
pub struct StealMonitor {
    stop: Sender<()>,
    thread: JoinHandle<Vec<(Instant, CpuTicks)>>,
}

impl StealMonitor {
    /// Takes a first sample now and one every `period` after it.
    ///
    /// # Panics
    ///
    /// Panics if the sampling thread cannot be spawned.
    #[must_use]
    pub fn start(period: Duration) -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = thread::Builder::new()
            .name("steal-monitor".into())
            .spawn(move || {
                let mut samples = Vec::new();
                loop {
                    if let Some(ticks) = CpuTicks::now() {
                        samples.push((Instant::now(), ticks));
                    }
                    match stopped.recv_timeout(period) {
                        Err(RecvTimeoutError::Timeout) => {}
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                if let Some(ticks) = CpuTicks::now() {
                    samples.push((Instant::now(), ticks));
                }
                samples
            })
            .expect("spawning the steal monitor thread");
        Self { stop, thread }
    }

    /// Takes a last sample and returns every sample in time order.
    #[must_use]
    pub fn stop(self) -> Vec<(Instant, CpuTicks)> {
        let _ = self.stop.send(());
        self.thread.join().unwrap_or_default()
    }
}

fn parse_proc_stat(text: &str) -> Option<CpuTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let states = fields.len().min(8);
    Some(CpuTicks {
        total: fields[..states].iter().sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    })
}

/// User plus system CPU seconds this process has used so far.
#[must_use]
pub fn process_cpu_s() -> Option<f64> {
    parse_self_stat(&fs::read_to_string("/proc/self/stat").ok()?)
}

fn parse_self_stat(text: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3, so utime (14) and stime (15) sit at 11, 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm(&fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_steal_is_parsed() {
        let ticks = parse_proc_stat("cpu  10 0 5 80 1 0 0 4 3 0\ncpu0 1 2 3\n").expect("parses");
        assert_eq!(
            ticks,
            CpuTicks {
                total: 100,
                steal: 4
            }
        );
        let later = CpuTicks {
            total: 200,
            steal: 29,
        };
        assert!((later.steal_since(&ticks) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn self_stat_times_survive_spaces_in_the_name() {
        let line = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_self_stat(line), Some(3.0));
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        assert_eq!(parse_vm_hwm("Name:\tx\nVmHWM:\t    2048 kB\n"), Some(2.0));
    }
}
