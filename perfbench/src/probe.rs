//! Process resource probes read from `/proc`, with no dependency beyond std.

/// Clock ticks per second of the `utime`/`stime` fields in `/proc/<pid>/stat`.
/// Linux exports these in `USER_HZ`, which is 100 on every architecture the
/// kernel's ABI documents.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) is parenthesised and may hold spaces, so
    // count fields from the last ')'. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> f64 {
        fields[i]
            .parse::<u64>()
            .expect("numeric tick field in /proc/self/stat") as f64
    };
    // `rest` starts at field 3, so field n sits at index n - 3.
    (tick(14 - 3) + tick(15 - 3)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_plausible_values() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.5);
    }
}
