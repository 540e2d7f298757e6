//! Pinning the benchmark's thread to one CPU at a time.
//!
//! On a shared host each CPU has neighbours of its own, and one CPU can
//! run slow for minutes while another does not. A run that moves its
//! single thread from CPU to CPU between rounds gives every op a
//! repetition on each of them, so its fastest repetition comes from the
//! least disturbed one.

/// The CPUs this thread may run on, in increasing order; empty when they
/// cannot be read.
pub fn allowed() -> Vec<usize> {
    sys::allowed()
}

/// Restricts this thread to `cpus`; false when the system refused.
pub fn pin(cpus: &[usize]) -> bool {
    sys::pin(cpus)
}

#[cfg(target_os = "linux")]
mod sys {
    /// Mask words: room for 1024 CPUs, glibc's `cpu_set_t`.
    const WORDS: usize = 16;
    const BITS: usize = u64::BITS as usize;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is writable for the size passed; pid 0 is this
        // thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * BITS)
            .filter(|&cpu| mask[cpu / BITS] >> (cpu % BITS) & 1 == 1)
            .collect()
    }

    pub fn pin(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < WORDS * BITS) {
            mask[cpu / BITS] |= 1 << (cpu % BITS);
        }
        // SAFETY: `mask` is readable for the size passed; pid 0 is this
        // thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_moves_this_thread_and_restores() {
        let cpus = allowed();
        if cpus.is_empty() {
            return; // no affinity on this system
        }
        std::thread::spawn(move || {
            let last = *cpus.last().unwrap();
            assert!(pin(&[last]));
            assert_eq!(allowed(), vec![last]);
            assert!(pin(&cpus));
            assert_eq!(allowed(), cpus);
        })
        .join()
        .unwrap();
    }
}
