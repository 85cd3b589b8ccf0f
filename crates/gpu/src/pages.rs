//! An MPK/PKU-style page-protection registry.
//!
//! PipeLLM uses memory protection twice (paper §5.2, §5.4, §6):
//!
//! 1. **Write protection for validation**: after pre-encrypting a chunk, the
//!    plaintext pages are write-protected. If the application writes them,
//!    the fault handler invalidates the pre-encrypted ciphertext so stale
//!    data is never sent.
//! 2. **Access revocation for asynchronous decryption**: a swapped-out
//!    chunk's destination pages are read+write revoked until background
//!    decryption completes; a fault forces synchronous decryption.
//!
//! The registry tracks protected ranges tagged with an opaque `u64` cookie
//! (the owner's entry id) and reports faults by returning the cookies of
//! every range a memory access hit.

use crate::memory::HostRegion;
use std::collections::BTreeMap;

/// What kind of protection a range carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Writes fault; reads proceed (validation of pre-encrypted data).
    WriteProtected,
    /// Reads and writes fault (asynchronous-decryption placeholder).
    AccessRevoked,
}

/// Kind of access an application performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

#[derive(Debug, Clone)]
struct Range {
    region: HostRegion,
    protection: Protection,
    cookie: u64,
}

/// Registry of protected ranges with fault accounting.
#[derive(Debug, Default)]
pub struct PageRegistry {
    // Keyed by range start address; ranges never overlap because host
    // allocations are page-aligned and chunk-granular.
    ranges: BTreeMap<u64, Range>,
    write_faults: u64,
    access_faults: u64,
}

impl PageRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        PageRegistry::default()
    }

    /// Protects `region` with the given mode, tagging faults with `cookie`.
    ///
    /// Re-protecting a region replaces its previous protection.
    pub fn protect(&mut self, region: HostRegion, protection: Protection, cookie: u64) {
        self.ranges.insert(
            region.addr.0,
            Range {
                region,
                protection,
                cookie,
            },
        );
    }

    /// Removes protection from the range starting exactly at `region.addr`.
    /// Returns whether a protection existed.
    pub fn unprotect(&mut self, region: HostRegion) -> bool {
        self.ranges.remove(&region.addr.0).is_some()
    }

    /// Whether the exact range starting at `region.addr` is protected.
    pub fn protection_of(&self, region: HostRegion) -> Option<Protection> {
        self.ranges.get(&region.addr.0).map(|r| r.protection)
    }

    /// Simulates the MMU check for an application access to `region`.
    ///
    /// Returns the cookies of all protected ranges the access faulted on,
    /// removing them from the registry (the fault handler downgrades the
    /// pages to plain access after resolving, as PipeLLM does). Reads only
    /// fault on [`Protection::AccessRevoked`] ranges; writes fault on both.
    pub fn access(&mut self, region: HostRegion, access: Access) -> Vec<u64> {
        if region.len == 0 {
            return Vec::new();
        }
        let mut hit = Vec::new();
        // Candidate ranges start at or before the region's last byte; scan
        // those that could overlap. The bound is inclusive and computed
        // saturating so accesses near `u64::MAX` cannot overflow (a checked
        // `addr + len` panics in debug builds for such ranges).
        let last_byte = region.addr.0.saturating_add(region.len - 1);
        let overlapping: Vec<u64> = self
            .ranges
            .range(..=last_byte)
            .filter(|(_, r)| r.region.overlaps(&region))
            .filter(|(_, r)| match (r.protection, access) {
                (Protection::WriteProtected, Access::Read) => false,
                (Protection::WriteProtected, Access::Write) => true,
                (Protection::AccessRevoked, _) => true,
            })
            .map(|(start, _)| *start)
            .collect();
        for range in overlapping.iter().filter_map(|s| self.ranges.remove(s)) {
            match access {
                Access::Write => self.write_faults += 1,
                Access::Read => self.access_faults += 1,
            }
            hit.push(range.cookie);
        }
        hit
    }

    /// Total write faults observed.
    pub fn write_faults(&self) -> u64 {
        self.write_faults
    }

    /// Total read faults on access-revoked ranges.
    pub fn access_faults(&self) -> u64 {
        self.access_faults
    }

    /// Number of currently protected ranges.
    pub fn protected_ranges(&self) -> usize {
        self.ranges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::HostAddr;

    fn region(addr: u64, len: u64) -> HostRegion {
        HostRegion {
            addr: HostAddr(addr),
            len,
        }
    }

    #[test]
    fn write_fault_on_write_protected_range() {
        let mut reg = PageRegistry::new();
        reg.protect(region(0x1000, 0x100), Protection::WriteProtected, 7);
        assert!(reg.access(region(0x1000, 0x100), Access::Read).is_empty());
        let cookies = reg.access(region(0x1000, 0x100), Access::Write);
        assert_eq!(cookies, vec![7]);
        assert_eq!(reg.write_faults(), 1);
        // The fault handler removed the protection.
        assert!(reg.access(region(0x1000, 0x100), Access::Write).is_empty());
    }

    #[test]
    fn reads_fault_only_on_revoked_ranges() {
        let mut reg = PageRegistry::new();
        reg.protect(region(0x2000, 0x80), Protection::AccessRevoked, 9);
        let cookies = reg.access(region(0x2000, 0x10), Access::Read);
        assert_eq!(cookies, vec![9]);
        assert_eq!(reg.access_faults(), 1);
    }

    #[test]
    fn partial_overlap_still_faults() {
        let mut reg = PageRegistry::new();
        reg.protect(region(0x1000, 0x1000), Protection::WriteProtected, 1);
        // A write that straddles the protected range's tail.
        let cookies = reg.access(region(0x1f00, 0x200), Access::Write);
        assert_eq!(cookies, vec![1]);
    }

    #[test]
    fn disjoint_access_does_not_fault() {
        let mut reg = PageRegistry::new();
        reg.protect(region(0x1000, 0x100), Protection::WriteProtected, 1);
        assert!(reg.access(region(0x5000, 0x100), Access::Write).is_empty());
        assert_eq!(reg.write_faults(), 0);
        assert_eq!(reg.protected_ranges(), 1);
    }

    #[test]
    fn one_access_can_hit_multiple_ranges() {
        let mut reg = PageRegistry::new();
        reg.protect(region(0x1000, 0x100), Protection::WriteProtected, 1);
        reg.protect(region(0x2000, 0x100), Protection::WriteProtected, 2);
        let mut cookies = reg.access(region(0x0, 0x10000), Access::Write);
        cookies.sort_unstable();
        assert_eq!(cookies, vec![1, 2]);
        assert_eq!(reg.write_faults(), 2);
    }

    #[test]
    fn unprotect_removes_range() {
        let mut reg = PageRegistry::new();
        let r = region(0x3000, 0x40);
        reg.protect(r, Protection::AccessRevoked, 5);
        assert_eq!(reg.protection_of(r), Some(Protection::AccessRevoked));
        assert!(reg.unprotect(r));
        assert!(!reg.unprotect(r));
        assert!(reg.access(r, Access::Write).is_empty());
    }

    #[test]
    fn ranges_near_address_space_top_do_not_overflow() {
        // Regression test: the scan bound was `addr + len`, which panics
        // on overflow in debug builds for ranges near `u64::MAX` (the
        // sentinel regions the speculation decoys use live up there).
        let mut reg = PageRegistry::new();
        let top = region(u64::MAX - 0x10, 0x11); // ends exactly at u64::MAX
        reg.protect(top, Protection::AccessRevoked, 3);
        // An access whose end saturates must still fault on the range...
        let cookies = reg.access(region(u64::MAX - 0x20, 0x100), Access::Read);
        assert_eq!(cookies, vec![3]);
        // ...and one that misses it must not.
        reg.protect(top, Protection::AccessRevoked, 3);
        assert!(reg
            .access(region(u64::MAX - 0x100, 0x10), Access::Read)
            .is_empty());
        // A zero-length access faults on nothing.
        assert!(reg.access(region(u64::MAX, 0), Access::Write).is_empty());
        assert_eq!(reg.protected_ranges(), 1);
    }

    #[test]
    fn reprotect_replaces_mode() {
        let mut reg = PageRegistry::new();
        let r = region(0x4000, 0x40);
        reg.protect(r, Protection::WriteProtected, 1);
        reg.protect(r, Protection::AccessRevoked, 2);
        let cookies = reg.access(r, Access::Read);
        assert_eq!(cookies, vec![2]);
    }
}
