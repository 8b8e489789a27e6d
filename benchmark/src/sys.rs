//! What the harness needs from the OS and cannot get from `std`:
//! CPU time and peak RSS of this process and of its waited-for
//! descendants, a process-group kill for launch deadlines, and an
//! allocation counter. `getrusage` and `kill` are hand-declared (the
//! build has no registry access for `libc`); the layouts are the
//! 64-bit Linux ones.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage`: two timevals, then fourteen longs of which only
/// `ru_maxrss` (the first) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;

/// Resource use so far: user + system CPU seconds and peak RSS.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub max_rss_kb: u64,
}

fn usage_of(who: i32) -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the 64-bit
    // Linux layout, and `who` is one of the two constants the call
    // defines; getrusage writes only inside the struct.
    let rc = unsafe { getrusage(who, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage { cpu_s: secs(&ru.utime) + secs(&ru.stime), max_rss_kb: ru.maxrss.max(0) as u64 }
}

/// This process (all its threads).
pub fn usage_self() -> Usage {
    usage_of(RUSAGE_SELF)
}

/// Every descendant that has exited and been waited for.
pub fn usage_children() -> Usage {
    usage_of(RUSAGE_CHILDREN)
}

/// CPU seconds of this process plus its waited-for descendants.
pub fn cpu_total_s() -> f64 {
    usage_self().cpu_s + usage_children().cpu_s
}

/// This process's peak RSS in kB, from `VmHWM`. Not `ru_maxrss`: Linux
/// folds the RSS of whatever process forked us into that figure at
/// exec, so it reads the parent shell's size when ours is smaller.
/// (The same fold puts a floor of this process's RSS under every
/// child's `ru_maxrss`; the one workload that reads it keeps this
/// process small.)
pub fn peak_rss_self_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    hwm.and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok()).unwrap_or(0)
}

/// SIGKILL every process in group `pgid` (a launcher and the workers
/// it spawned), then wait — briefly, they are not ours to reap — until
/// the group is empty, so no process outlives the call that started it.
pub fn kill_group(pgid: u32) {
    let group = -(pgid as i32);
    // SAFETY: kill(2) takes two integers and touches no memory; a
    // negative pid addresses the process group, signal 0 only probes.
    let signal = |sig: i32| unsafe { kill(group, sig) };
    signal(SIGKILL);
    for _ in 0..200 {
        if signal(0) != 0 {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Counts allocator calls so workloads can assert a step allocates
/// nothing. Frees are not counted.
pub struct CountingAlloc;

static ALLOC_EVENTS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counter is a side effect that touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocator calls made by the whole process so far. A statistic that
/// publishes no other data, hence `Relaxed`.
pub fn alloc_events() -> usize {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}
