//! CPU affinity of the calling thread, through the C library that the
//! standard library already links (Linux).
//!
//! The per-event feed and the server's writer take strict turns: the feed
//! sends one event and blocks in `flush()` while the writer applies it. Kept
//! on one core, each turn is a switch on that core. Spread over two, each
//! turn wakes the other core from idle, which on a virtual machine costs a
//! round trip through the hypervisor whose price follows the host's load.

/// A `cpu_set_t`: 1024 bits.
pub type Mask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn get() -> Option<Mask> {
    let mut mask: Mask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Restrict the calling thread (and the threads it spawns from now on) to
/// `mask`. Returns whether the kernel accepted it.
pub fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// Split `mask` into its lowest CPU and the others, if it holds two or more.
pub fn split(mask: &Mask) -> Option<(Mask, Mask)> {
    let word = mask.iter().position(|&w| w != 0)?;
    let mut first: Mask = [0; 16];
    first[word] = mask[word] & mask[word].wrapping_neg();
    let mut rest = *mask;
    rest[word] &= !first[word];
    rest.iter().any(|&w| w != 0).then_some((first, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_takes_the_lowest_cpu() {
        let mut m: Mask = [0; 16];
        m[0] = 0b1100;
        m[1] = 1;
        let (first, rest) = split(&m).unwrap();
        assert_eq!((first[0], first[1]), (0b0100, 0));
        assert_eq!((rest[0], rest[1]), (0b1000, 1));
        let mut one: Mask = [0; 16];
        one[2] = 1 << 5;
        assert!(split(&one).is_none());
    }

    #[test]
    fn the_current_mask_can_be_set_again() {
        let m = get().expect("sched_getaffinity");
        assert!(m.iter().any(|&w| w != 0));
        assert!(set(&m));
    }
}
