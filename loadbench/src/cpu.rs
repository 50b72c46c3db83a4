//! Confines a run to one CPU.
//!
//! Every thread of the benchmark and of its server child runs on the same
//! CPU, so a request never wakes a thread on another CPU. On a shared
//! 2-vCPU virtual machine a cross-CPU wake-up of an idle vCPU goes through
//! the hypervisor, and both its cost and whether the scheduler happened to
//! put a client next to its server thread changed from run to run: the
//! same read took 5.5 µs in one run and 13–16 µs in the next. On one CPU
//! a closed-loop request is a chain of same-CPU context switches, and the
//! latencies and rates measure the code on the request path.
//!
//! The affinity is set on the main thread before any thread or child is
//! started; threads and children inherit it.

/// `cpu_set_t` of the C library: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to the first CPU it may run on and returns
/// that CPU's number.
pub fn pin_to_one() -> Result<usize, String> {
    let mut mask: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a writable cpu_set_t of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("empty CPU affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a cpu_set_t of `size` bytes; pid 0 is the calling
    // thread.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
