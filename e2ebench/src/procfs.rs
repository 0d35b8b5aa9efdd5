//! Peak resident memory, process CPU time and host CPU steal from
//! `/proc`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `VmHWM` (peak resident set) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kib / 1024.0)
}

/// User plus system CPU time `pid` has used, in seconds, summed over
/// all its threads (including exited ones). `/proc` counts it in
/// `USER_HZ` ticks, which the kernel ABI fixes at 100 per second.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Fields after the parenthesized command name start at field 3;
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |field: usize| -> Result<u64, String> {
        fields
            .get(field - 3)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("{path} has no field {field}"))
    };
    Ok((ticks(14)? + ticks(15)?) as f64 / 100.0)
}

/// Aggregate CPU time counters from `/proc/stat`: `(steal, total)` in
/// clock ticks.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// How often the steal monitor reads `/proc/stat`.
const STEAL_PERIOD: Duration = Duration::from_millis(100);

/// Host CPU steal over the run: the share of the host's CPU time that
/// the hypervisor gave to other tenants. A thread reads `/proc/stat`
/// every [`STEAL_PERIOD`], so any span of the run can later be asked
/// how much was stolen during it.
#[derive(Debug)]
pub struct StealMonitor {
    /// `(when, steal ticks, total ticks)`, in time order.
    readings: Mutex<Vec<(Instant, u64, u64)>>,
    stop: AtomicBool,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl StealMonitor {
    /// The process-wide monitor, started on first use.
    pub fn global() -> &'static Self {
        static MONITOR: OnceLock<StealMonitor> = OnceLock::new();
        let mut started = false;
        let monitor = MONITOR.get_or_init(|| {
            started = true;
            Self {
                readings: Mutex::new(Vec::new()),
                stop: AtomicBool::new(false),
                thread: Mutex::new(None),
            }
        });
        if started {
            monitor.read_now();
            let thread = std::thread::spawn(|| {
                let monitor = Self::global();
                while !monitor.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(STEAL_PERIOD);
                    monitor.read_now();
                }
            });
            *monitor.thread.lock().expect("steal monitor lock") = Some(thread);
        }
        monitor
    }

    /// Takes one reading now.
    pub fn read_now(&self) {
        if let Some((steal, total)) = cpu_ticks() {
            let mut readings = self.readings.lock().expect("steal monitor lock");
            readings.push((Instant::now(), steal, total));
        }
    }

    /// Stops the reading thread and waits for it to end.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let thread = self.thread.lock().expect("steal monitor lock").take();
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }

    /// Steal share over the readings that bracket `from..to`: the last
    /// one at or before `from` and the first one at or after `to`. Take
    /// a reading with [`read_now`](Self::read_now) after the last span
    /// of interest has ended.
    pub fn steal_frac(&self, from: Instant, to: Instant) -> f64 {
        let readings = self.readings.lock().expect("steal monitor lock");
        if readings.is_empty() {
            return 0.0;
        }
        let before = readings.partition_point(|r| r.0 <= from).saturating_sub(1);
        let after = readings
            .partition_point(|r| r.0 < to)
            .min(readings.len() - 1);
        let (a, b) = (readings[before], readings[after]);
        if b.2 > a.2 {
            (b.1 - a.1) as f64 / (b.2 - a.2) as f64
        } else {
            0.0
        }
    }

    /// Which of `spans` to keep for a steady figure: those during which
    /// no more was stolen than during the median span, or than during
    /// the `at_least`-th quietest span if that keeps more. On a quiet
    /// host that is nearly all of them; while other tenants take the
    /// CPU in bursts, it is the spans between the bursts.
    pub fn quiet(&self, spans: &[(Instant, Instant)], at_least: usize) -> Vec<bool> {
        let steal: Vec<f64> = spans
            .iter()
            .map(|&(from, to)| self.steal_frac(from, to))
            .collect();
        let mut sorted = steal.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (sorted.len() / 2).max(at_least.saturating_sub(1));
        let Some(&limit) = sorted.get(rank.min(sorted.len().saturating_sub(1))) else {
            return Vec::new();
        };
        steal.iter().map(|&s| s <= limit).collect()
    }
}
