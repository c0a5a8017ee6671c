//! Host-side resource readings: `getrusage(RUSAGE_SELF)` and the peak
//! resident set from `/proc/self/status`.

use std::os::raw::{c_int, c_long};

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads Linux rusage and /proc/self/status");

/// `struct timeval` on Linux: `time_t` and `suseconds_t` are `long`.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on Linux: two timevals, then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// CPU time and minor page faults of the whole process so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System (kernel) CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: u64,
}

fn timeval_secs(tv: &Timeval) -> f64 {
    tv.tv_sec as f64 + tv.tv_usec as f64 * 1e-6
}

impl Usage {
    /// Read the calling process's usage (all threads).
    pub fn now() -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `RawRusage` whose layout matches
        // Linux's `struct rusage` (two `struct timeval`s of two `long`s,
        // then fourteen `long`s); getrusage writes only within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
        );
        Usage::from_raw(&raw)
    }

    fn from_raw(raw: &RawRusage) -> Usage {
        Usage {
            user_s: timeval_secs(&raw.ru_utime),
            sys_s: timeval_secs(&raw.ru_stime),
            minflt: raw.ru_minflt.max(0) as u64,
        }
    }

    /// What was spent between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }
}

/// Parse the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line.split_whitespace().skip(1);
    let value = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(value)
}

/// Peak resident set of this process so far, in KiB. It is per address
/// space, so unlike the parent's `wait4` figure it does not inherit the
/// spawning process's peak across `exec`.
pub fn peak_rss_kib() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kib(&status).expect("/proc/self/status has a VmHWM line in kB")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timevals_convert_to_seconds() {
        let raw = RawRusage {
            ru_utime: Timeval {
                tv_sec: 3,
                tv_usec: 250_000,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 1,
            },
            ru_minflt: 42,
            ..RawRusage::default()
        };
        let u = Usage::from_raw(&raw);
        assert_eq!(u.user_s, 3.25);
        assert_eq!(u.sys_s, 1e-6);
        assert_eq!(u.minflt, 42);
    }

    #[test]
    fn usage_deltas_subtract_fieldwise() {
        let a = Usage {
            user_s: 1.0,
            sys_s: 0.5,
            minflt: 10,
        };
        let b = Usage {
            user_s: 1.75,
            sys_s: 0.5,
            minflt: 25,
        };
        assert_eq!(
            b.since(&a),
            Usage {
                user_s: 0.75,
                sys_s: 0.0,
                minflt: 15
            }
        );
    }

    #[test]
    fn live_usage_is_monotone() {
        let a = Usage::now();
        let v: Vec<u8> = vec![1; 1 << 22];
        std::hint::black_box(&v);
        let b = Usage::now();
        assert!(b.user_s >= a.user_s && b.sys_s >= a.sys_s && b.minflt >= a.minflt);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   1536 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1536));
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t12 kB\n"), None);
        assert!(peak_rss_kib() > 0);
    }
}
