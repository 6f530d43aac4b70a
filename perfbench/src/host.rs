//! Host facts recorded beside every result, CPU-time clocks and the
//! hypervisor's steal time.

use std::path::Path;
use std::time::Duration;

/// User + system CPU time consumed by the whole process.
pub fn process_cpu() -> Duration {
    cpu_clock(clock::PROCESS)
}

/// User + system CPU time consumed by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(clock::THREAD)
}

/// The machine-wide CPU time counters of `/proc/stat`, in clock ticks
/// summed over every CPU: time the hypervisor ran something else while a
/// CPU of this machine wanted to run (steal), and all time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    steal: u64,
    total: u64,
}

impl Ticks {
    /// Reads the counters now; zeros where `/proc/stat` is unavailable.
    pub fn now() -> Ticks {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| Ticks::parse(s.lines().next()?))
            .unwrap_or_default()
    }

    /// Parses the aggregate line: `cpu` user nice system idle iowait irq
    /// softirq steal ...
    fn parse(line: &str) -> Option<Ticks> {
        let mut fields = line.split_whitespace();
        if fields.next()? != "cpu" {
            return None;
        }
        let v: Vec<u64> = fields
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        (v.len() == 8).then(|| Ticks {
            steal: v[7],
            total: v.iter().sum(),
        })
    }

    /// Percentage of all CPU time between `earlier` and `self` that was
    /// stolen.
    pub fn steal_pct_since(&self, earlier: &Ticks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

#[cfg(target_os = "linux")]
mod clock {
    use std::os::raw::{c_int, c_long};

    pub const PROCESS: c_int = 2; // CLOCK_PROCESS_CPUTIME_ID
    pub const THREAD: c_int = 3; // CLOCK_THREAD_CPUTIME_ID

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    extern "C" {
        pub fn clock_gettime(clock: c_int, out: *mut Timespec) -> c_int;
    }
}

#[cfg(target_os = "linux")]
fn cpu_clock(id: std::os::raw::c_int) -> Duration {
    let mut ts = clock::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout, and both
    // clock ids are valid on Linux, so clock_gettime writes only into `ts`.
    let rc = unsafe { clock::clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed for a CPU-time clock");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(not(target_os = "linux"))]
mod clock {
    pub const PROCESS: i32 = 0;
    pub const THREAD: i32 = 1;
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to the highest-numbered CPU it may run on; returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    use std::os::raw::c_int;
    // cpu_set_t: a bit mask of 1024 CPUs.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable cpu_set_t of `size` bytes; pid 0
    // names the calling thread, so the call reads or writes only `mask`.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is a valid cpu_set_t naming one allowed CPU.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    Err(std::io::Error::other(
        "CPU pinning is only wired up for Linux",
    ))
}

#[cfg(not(target_os = "linux"))]
fn cpu_clock(_id: i32) -> Duration {
    panic!("CPU-time clocks are only wired up for Linux");
}

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub nproc: usize,
    /// The one CPU the run is pinned to (see [`pin_to_one_cpu`]).
    pub pinned_cpu: Option<usize>,
    pub cpu: String,
    pub git_rev: String,
    pub rustc: String,
    pub profile: String,
}

impl Provenance {
    /// Collects the facts; `root` is the checkout the benchmark runs from.
    pub fn collect(root: &Path) -> Provenance {
        Provenance {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            pinned_cpu: None,
            cpu: cpu_model(),
            git_rev: git_rev(root),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: format!(
                "{} (opt-level {}, debug-assertions {})",
                env!("PERFBENCH_PROFILE"),
                env!("PERFBENCH_OPT_LEVEL"),
                cfg!(debug_assertions)
            ),
        }
    }
}

/// The CPU brand string from `cpuid`.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    #[allow(unused_unsafe)]
    // SAFETY: cpuid is available on every x86_64 processor and only reads
    // identification registers; leaves 0x8000_0002..=4 are checked against
    // the highest extended leaf first.
    let brand = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown x86_64".into();
        }
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&reg.to_le_bytes());
            }
        }
        bytes
    };
    String::from_utf8_lossy(&brand)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    format!("unknown {}", std::env::consts::ARCH)
}

/// The commit checked out at `root`, when `root` is itself a git work tree.
fn git_rev(root: &Path) -> String {
    let run = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let top = run(&["rev-parse", "--show-toplevel"]).map(std::path::PathBuf::from);
    let here = root.canonicalize().ok();
    match (top.and_then(|t| t.canonicalize().ok()), here) {
        (Some(t), Some(h)) if t == h => {
            run(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown (not a git checkout)".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_comes_from_the_aggregate_cpu_line() {
        let a = Ticks::parse("cpu  100 0 50 800 10 0 5 35 0 0").unwrap();
        assert_eq!((a.steal, a.total), (35, 1000));
        let b = Ticks::parse("cpu  150 0 60 900 10 0 5 75 0 0").unwrap();
        assert_eq!(b.steal_pct_since(&a), 20.0);
        assert_eq!(a.steal_pct_since(&a), 0.0);
        assert!(Ticks::parse("cpu0 1 2 3 4 5 6 7 8").is_none());
        assert!(Ticks::parse("cpu 1 2 3").is_none());
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu() > t0);
        assert!(process_cpu() > p0);
    }
}
