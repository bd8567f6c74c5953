//! Facts about the machine and the process: what every recorded number
//! has to be read against, plus the CPU-time and resident-set probes.

use std::process::Command;

use crate::surface::Json;

/// Cores the scheduler may run this process on (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Generator threads (= keep-alive connections): `min(nproc, 4)`.
pub fn generator_threads() -> usize {
    nproc().min(4)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The cache sizes of cpu0, by level and type (`L1d`, `L2`, `L3`).
fn caches() -> Vec<(String, Json)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/type")),
            read_trimmed(&format!("{dir}/size")),
        ) else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => continue,
            _ => "",
        };
        out.push((format!("L{level}{suffix}"), Json::from(size)));
    }
    out
}

/// Host facts stamped into every run's output.
pub fn facts(seed: u64) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let flags = field("flags").unwrap_or_default();
    let has = |flag: &str| Json::Bool(flags.split_whitespace().any(|f| f == flag));
    let unknown = || "unknown".to_string();
    Json::obj([
        ("nproc", Json::from(nproc())),
        (
            "cpu_model",
            Json::from(field("model name").unwrap_or_else(unknown)),
        ),
        ("avx2", has("avx2")),
        ("fma", has("fma")),
        ("sse4_2", has("sse4_2")),
        ("caches", Json::Obj(caches())),
        (
            "rustc",
            Json::from(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            // the driver's checkout is not a git repository
            "git_rev",
            Json::from(
                command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
            ),
        ),
        ("seed", Json::from(seed as f64)),
    ])
}

/// Process CPU time (user + system, all threads, reaped ones included)
/// in milliseconds, from `CLOCK_PROCESS_CPUTIME_ID`. The `utime`/`stime`
/// of `/proc/self/stat` are the same quantity sampled at 100 Hz ticks,
/// which mis-books a bursty server by ±5 % over a 12 s window.
pub fn cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        seconds: i64,
        nanos: i64,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, time: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut time = Timespec {
        seconds: 0,
        nanos: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI) for the duration of the call.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    time.seconds as f64 * 1e3 + time.nanos as f64 / 1e6
}

/// Restarts the kernel's high-water mark of the resident set (`VmHWM`)
/// at the current resident set, so that [`peak_rss_mib`] reads the peak
/// since this call. `false` where `/proc/self/clear_refs` cannot be
/// written.
pub fn restart_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set in MiB (`VmHWM` of `/proc/self/status`): exact, and
/// read without a sampling thread — a thread of the benchmark's own would
/// take a malloc arena from the program's threads and change what they
/// find in theirs (see the README's traps).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_something() {
        assert!(nproc() >= 1);
        assert!((1..=4).contains(&generator_threads()));
        assert!(generator_threads() <= nproc());
        assert!(peak_rss_mib() > 0.0);
        if restart_peak_rss() {
            let floor = peak_rss_mib();
            let block = std::hint::black_box(vec![1u8; 64 << 20]);
            assert!(peak_rss_mib() >= floor + 60.0, "64 MiB were touched");
            drop(block);
        }
        let before = cpu_ms();
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(20) {}
        let spent = cpu_ms() - before;
        assert!(
            (15.0..200.0).contains(&spent),
            "spun 20 ms, booked {spent} ms"
        );
        let doc = facts(7);
        assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(7.0));
        assert!(doc.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
    }
}
