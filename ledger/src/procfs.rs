//! What the process costs and where it runs, read from `/proc`.

use crate::json::Json;
use std::path::Path;

/// Kernel clock ticks per second for `utime`/`stime` in `/proc/<pid>/stat`.
/// `USER_HZ` is 100 on every Linux architecture; the standard library has
/// no `sysconf` to ask.
const USER_HZ: f64 = 100.0;

/// Process CPU time so far (user + system, all threads, living and dead),
/// in milliseconds. 0 where `/proc` is absent.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after its ')'.
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => (utime + stime) * 1000.0 / USER_HZ,
        _ => 0.0,
    }
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_ascii_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Resident set size now, MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:") / 1024.0
}

/// Peak resident set size so far, MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// The filesystem type `path` lives on: the longest mount point in
/// `/proc/mounts` that prefixes it.
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What was measured: the program's own build identifier and, where the
/// run happens inside a git checkout, its head. Recorded, never compared:
/// a before/after pair differs here by design.
pub fn build(ctup_build_info: &str) -> Json {
    Json::obj(vec![
        ("ctup", Json::str(ctup_build_info)),
        (
            "git_head",
            Json::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

/// Where a result was measured. `ledger diff` refuses to compare files
/// whose fingerprints differ: a number means nothing off its machine.
pub fn fingerprint(state_root: &Path) -> Json {
    let rustc = command_line("rustc", &["-V"]);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        (
            "cpu_model",
            Json::str(
                first_line_value("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "kernel",
            Json::str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            ),
        ),
        ("rustc", Json::str(rustc)),
        ("state_root_fs", Json::str(filesystem_of(state_root))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_ms();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ms() - before >= 30.0, "{} -> {}", before, cpu_ms());
        assert!(rss_mib() > 0.0 && peak_rss_mib() >= rss_mib() * 0.5);
    }

    #[test]
    fn fingerprint_names_the_machine() {
        let f = fingerprint(Path::new("."));
        assert!(f
            .get("nproc")
            .and_then(Json::as_f64)
            .is_some_and(|n| n >= 1.0));
        assert!(f.get("state_root_fs").and_then(Json::as_str).is_some());
        let b = build("0.1.0+test");
        assert_eq!(b.get("ctup").and_then(Json::as_str), Some("0.1.0+test"));
        assert!(b.get("git_head").and_then(Json::as_str).is_some());
    }
}
