//! Process resource counters read through `getrusage(2)`.
//!
//! The benchmark attributes kernel time and page faults to the layer
//! calls that cause them, so every span samples these counters at its
//! edges. The standard library exposes none of them, hence the one
//! foreign call below.

use std::os::raw::{c_int, c_long};

/// `struct timeval` of the Linux ABI.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct TimeVal {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of the Linux ABI: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RUsage {
    ru_utime: TimeVal,
    ru_stime: TimeVal,
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

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

/// One sample of this process's resource counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Usage {
    /// User CPU time, microseconds.
    pub user_us: u64,
    /// System CPU time, microseconds.
    pub sys_us: u64,
    /// Minor page faults.
    pub minflt: u64,
    /// Peak resident set size, kilobytes.
    pub maxrss_kb: u64,
}

fn micros(tv: TimeVal) -> u64 {
    (tv.tv_sec.max(0) as u64) * 1_000_000 + tv.tv_usec.max(0) as u64
}

/// Samples the counters of the calling process.
pub fn usage() -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a properly aligned, writable `struct rusage` of the
    // Linux x86-64/aarch64 ABI layout (two timevals, fourteen longs), and
    // RUSAGE_SELF is a valid `who`; getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    Usage {
        user_us: micros(ru.ru_utime),
        sys_us: micros(ru.ru_stime),
        minflt: ru.ru_minflt.max(0) as u64,
        maxrss_kb: ru.ru_maxrss.max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_grow_when_fresh_pages_are_touched() {
        let before = usage();
        let mut v = vec![0u8; 8 << 20];
        for i in (0..v.len()).step_by(4096) {
            v[i] = 1;
        }
        std::hint::black_box(&v);
        let after = usage();
        assert!(
            after.minflt >= before.minflt + 1000,
            "{before:?} -> {after:?}"
        );
        assert!(after.maxrss_kb >= 8 << 10);
    }
}
