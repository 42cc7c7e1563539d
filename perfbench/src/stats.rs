//! Small statistics and process probes: medians, the tail percentile,
//! peak resident memory and process CPU time.

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Mean of `v`; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The tail of a latency sample: the highest nearest-rank percentile that
/// still has at least ten of `planned` samples above it, read from `v`.
/// A run cut short keeps the percentile its planned sample count gives.
/// Returns `(value, percentile, samples)`; with ten or fewer planned
/// samples the minimum stands in, at percentile 0.
pub fn tail(v: &[f64], planned: usize) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if planned <= 10 || n == 0 {
        return (s.first().copied().unwrap_or(0.0), 0.0, n);
    }
    let share = (planned - 10) as f64 / planned as f64;
    let idx = ((share * n as f64).ceil() as usize).clamp(1, n) - 1;
    (s[idx], 100.0 * share, n)
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's VmHWM to its current resident size, so the next
/// read gives the peak since now (`/proc/self/clear_refs`, value 5).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Returns the allocator's free pages to the OS (glibc `malloc_trim`).
/// Called between ops, untimed: each 2-thread search frees its state
/// cache into whichever allocator arenas its workers used, and without a
/// trim the process high-water mark grows with the luck of that arena
/// assignment instead of with the largest op's footprint.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers, only releases memory
        // the allocator already considers free, and may be called from
        // any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// User + system CPU seconds this process has used, all threads included
/// (`/proc/self/stat` fields 14 and 15, at the kernel's 100 Hz tick).
pub fn cpu_seconds() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after ')'.
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3 (state), so utime (14) and stime (15) sit
    // at offsets 11 and 12.
    (ticks(11) + ticks(12)) / 100.0
}

/// SplitMix64: the benchmark's own generator for op orders and swarm
/// seeds, so its inputs never depend on the program's random number code.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The identity permutation of `0..n`, shuffled by `seed` (Fisher-Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct, n) = tail(&v, 40);
        assert_eq!(n, 40);
        assert_eq!(value, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 75.0).abs() < 1e-9);
        // Half the planned samples: the same percentile, not a lower one.
        let (value, pct, _) = tail(&v[..20], 40);
        assert_eq!(value, 15.0);
        assert!((pct - 75.0).abs() < 1e-9);
    }

    #[test]
    fn permutation_is_a_permutation_and_depends_on_the_seed() {
        let a = permutation(20, 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_eq!(a, permutation(20, 1));
        assert_ne!(a, permutation(20, 2));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
