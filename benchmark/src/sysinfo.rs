//! What the output header says about the machine, and the process counters
//! the traced run reports. Linux `/proc` and `/sys`; anything unreadable
//! prints as "unknown" or 0 rather than failing the run.

use std::fs;

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPUs the process may run on (`Cpus_allowed_list`), e.g. `"1"` under `run.sh`.
pub fn cpus_allowed() -> String {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("Cpus_allowed_list:"))?;
            Some(line.split_whitespace().nth(1)?.to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `"L1d 32K, L2 4096K, …"` from cpu0's cache directory.
pub fn caches() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        let kind = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{level}{kind} {size}"));
    }
    if out.is_empty() {
        "unknown".to_string()
    } else {
        out.join(", ")
    }
}

/// Peak resident set size, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minor page faults of the process so far (`minflt`, field 10 of `/proc/self/stat`).
pub fn minor_faults() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may hold spaces; fields are counted after its ')'.
            let rest = &s[s.rfind(')')? + 1..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}
