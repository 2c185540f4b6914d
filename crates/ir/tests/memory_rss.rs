//! A large `Memory` costs what is touched: resident-set and address-space
//! accounting for creation, sparse clones and drop, read from
//! `/proc/self/statm`.
//!
//! One test function in its own binary, so no other test's allocations
//! land between two readings.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use dyncomp_ir::eval::Memory;
use dyncomp_ir::MemSize;

const PAGE: usize = 4096;
const CAP: usize = 16 << 20;
const SLACK: usize = 64 << 10;
/// Three dirty pages: low, middle and the last one.
const DIRTY: [usize; 3] = [8 * PAGE, CAP / 2, CAP - 8];

/// (address-space bytes, resident bytes) of this process.
fn statm() -> (usize, usize) {
    let s = std::fs::read_to_string("/proc/self/statm").expect("statm is readable");
    let mut pages = s
        .split_whitespace()
        .map(|f| f.parse::<usize>().expect("statm fields are integers"));
    let size = pages.next().expect("size field");
    let resident = pages.next().expect("resident field");
    (size * PAGE, resident * PAGE)
}

#[test]
fn large_memory_is_resident_only_where_touched() {
    let (size0, rss0) = statm();

    let mut mem = Memory::with_capacity(CAP);
    let (size1, rss1) = statm();
    assert!(size1 >= size0 + CAP, "16 MiB of address space is reserved");
    assert!(
        rss1 < rss0 + SLACK,
        "fresh memory added {} resident bytes",
        rss1 - rss0
    );

    for addr in DIRTY {
        mem.write(addr as u64, MemSize::B8, 0xDEAD_BEEF).unwrap();
    }
    let (_, rss2) = statm();
    let fork = mem.clone();
    let (size3, rss3) = statm();
    assert!(size3 >= size1 + CAP, "the fork has its own address space");
    assert!(
        rss3 < rss2 + SLACK,
        "sparse clone added {} resident bytes",
        rss3 - rss2
    );
    for addr in DIRTY {
        assert_eq!(fork.read_u64(addr as u64), Ok(0xDEAD_BEEF));
    }
    assert_eq!(fork.read_u64(CAP as u64 / 4), Ok(0));

    drop(mem);
    drop(fork);
    let (size4, _) = statm();
    assert!(
        size4 < size0 + SLACK,
        "dropping both left {} bytes mapped",
        size4 - size0
    );
}
