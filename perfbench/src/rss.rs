//! Resident set size of this process, from `/proc/self/status`.

fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size so far (`VmHWM`), MiB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size (`VmRSS`), MiB; 0 where unavailable.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}
