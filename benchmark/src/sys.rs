//! The few operating-system facts the benchmark needs: CPU affinity,
//! resource usage and peak memory of the current process, and a
//! description of the machine. Linux only — the layouts below are those
//! of 64-bit Linux, and std already links the C library these come from.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark pins with sched_setaffinity and reads /proc: 64-bit Linux only");

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..CPU_SET_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread — and every thread it later spawns — to
/// `cpu`. Call before any other thread exists.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    if cpu >= CPU_SET_WORDS * 64 {
        return Err(format!("cpu {cpu} is beyond the affinity mask"));
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; the call
    // only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    match allowed_cpus()?.as_slice() {
        [only] if *only == cpu => Ok(()),
        other => Err(format!("pinned to cpu {cpu} but may run on {other:?}")),
    }
}

/// Resource usage of the whole process so far (all threads).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User CPU time, seconds.
    pub user_s: f64,
    /// System CPU time, seconds.
    pub sys_s: f64,
    /// Voluntary context switches (a thread blocked and gave up the CPU).
    pub vcsw: u64,
}

impl Usage {
    /// Reads `getrusage(RUSAGE_SELF)`.
    pub fn now() -> Usage {
        // struct rusage on 64-bit Linux: two timevals (4 longs) then 14
        // longs, the last two being ru_nvcsw (index 16) and ru_nivcsw.
        let mut raw = [0i64; 18];
        // SAFETY: `raw` is writable and has the size of `struct rusage`
        // (144 bytes); 0 is RUSAGE_SELF.
        let rc = unsafe { getrusage(0, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        Usage {
            user_s: raw[0] as f64 + raw[1] as f64 / 1e6,
            sys_s: raw[2] as f64 + raw[3] as f64 / 1e6,
            vcsw: raw[16] as u64,
        }
    }

    /// Usage accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vcsw: self.vcsw - earlier.vcsw,
        }
    }
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.trim_start().strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Result<u64, String> {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The CPU model name, or "unknown".
pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string())
}

/// First line of `program args...` output, or "unknown" — for recording
/// tool versions; never fails the run.
pub fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
