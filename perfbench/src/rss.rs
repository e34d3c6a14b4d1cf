//! Peak resident sets: of this process over its first unit, and of the
//! processes it started.
//!
//! Units run one after another in one process, and the heap the
//! allocator keeps from one unit to the next grows by a different
//! amount in every run, so the peak over a whole run depends on how
//! many units it held. The timed loop reads the peak of the first
//! unit, in a fresh process, as `swifi campaign` runs. The service's
//! server and its shard workers are measured by the rusage of reaped
//! children, which a parent's `wait4` sees but `/proc` does not.

/// Reset this process's resident-set high-water mark to what is
/// resident now (Linux 4.0 and later; elsewhere the mark stays, and
/// the reading is the peak since the process started).
pub fn reset_peak() {
    // Best effort: an older kernel leaves the mark as it was.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// This process's resident-set high-water mark, in MiB; 0 when the
/// kernel does not report it.
pub fn peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Largest resident set, in MiB, of the children this process has
/// reaped and of the descendants they reaped (`RUSAGE_CHILDREN`); 0
/// where it is not available. A child's figure includes what its
/// parent had resident when it forked, so the children are started
/// from this small process, not from a script's interpreter.
pub fn children_peak_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct rusage` of 64-bit Linux: two `timeval`s, then 14
        /// `long`s of which `ru_maxrss` (KiB) is the first.
        #[repr(C)]
        struct Rusage {
            times: [i64; 4],
            maxrss_kib: i64,
            rest: [i64; 13],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        const RUSAGE_CHILDREN: i32 = -1;
        let mut usage = Rusage {
            times: [0; 4],
            maxrss_kib: 0,
            rest: [0; 13],
        };
        // SAFETY: getrusage writes one `struct rusage`, whose layout on
        // 64-bit Linux `Rusage` mirrors, through a valid pointer.
        if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } == 0 {
            return usage.maxrss_kib as f64 / 1024.0;
        }
    }
    0.0
}

/// The `VmHWM:` figure of a `/proc/PID/status` text, in KiB.
fn parse_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_high_water_mark_is_read_from_the_status_text() {
        let status = "Name:\tperfbench\nVmPeak:\t  40000 kB\nVmHWM:\t   21348 kB\nVmRSS:\t 18588 kB\n";
        assert_eq!(parse_hwm_kib(status), Some(21_348));
        assert_eq!(parse_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_reports_a_peak() {
        reset_peak();
        assert!(peak_mb() > 0.0);
    }

    #[test]
    fn a_reaped_child_reports_its_peak() {
        // A child that holds about 64 MiB resident before it exits.
        let status = std::process::Command::new("sh")
            .args(["-c", "x=$(head -c 67108864 /dev/zero | tr '\\0' a); echo ${#x}"])
            .stdout(std::process::Stdio::null())
            .status()
            .expect("sh");
        assert!(status.success());
        assert!(children_peak_mb() > 60.0, "{}", children_peak_mb());
    }
}
