//! The host block recorded with every result, and peak-RSS probes.

/// Cores, runtime-detected SIMD, build profile, compiler and commit, as
/// a JSON object.
pub fn host_json() -> String {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cores\":{cores},\"simd\":[{}],\"cpu\":\"{}\",\"profile\":\"{profile}\",\
         \"rustc\":\"{}\",\"commit\":\"{}\"}}",
        simd().iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(","),
        cpu.replace('"', "'"),
        env!("QOEBENCH_RUSTC"),
        commit(),
    )
}

fn simd() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut out = Vec::new();
        if std::arch::is_x86_feature_detected!("sse2") {
            out.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            out.push("avx512f");
        }
        out
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// The checked-out commit, or `unknown` when the working directory is
/// not itself a git checkout (no search above it).
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_self_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `struct rusage` on 64-bit Linux: user and system `timeval`s, then
/// fourteen `long`s of which `ru_maxrss` (kB) is the first.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kb: i64,
    rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage(who: i32) -> Option<RUsage> {
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage { times: [0; 4], maxrss_kb: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable struct with the layout of the
    // C `struct rusage` on 64-bit Linux, and getrusage writes only that.
    let rc = unsafe { getrusage(who, &mut usage) };
    (rc == 0).then_some(usage)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const RUSAGE_SELF: i32 = 0;
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const RUSAGE_CHILDREN: i32 = -1;

/// Peak resident set size of the largest reaped descendant, MB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_children_mb() -> f64 {
    rusage(RUSAGE_CHILDREN).map_or(0.0, |u| u.maxrss_kb as f64 / 1024.0)
}

/// CPU seconds (user + system) used so far by this process and by its
/// reaped descendants together.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_s() -> f64 {
    let secs = |u: RUsage| {
        let [us, uus, ss, sus] = u.times;
        (us + ss) as f64 + (uus + sus) as f64 / 1e6
    };
    [RUSAGE_SELF, RUSAGE_CHILDREN].into_iter().filter_map(rusage).map(secs).sum()
}

/// Peak resident set size of the largest reaped descendant, MB.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_children_mb() -> f64 {
    0.0
}

/// CPU seconds used by this process and its reaped descendants.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_s() -> f64 {
    0.0
}
