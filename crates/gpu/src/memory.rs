//! Host (CVM) and device memory with real or virtual payloads.
//!
//! Swapped chunks in the real system are tensors of up to hundreds of
//! megabytes. The functional layer of this reproduction moves real bytes so
//! AES-GCM semantics are genuine, but the timing experiments must be able to
//! "transfer" OPT-175B without allocating 350 GB. [`Payload`] makes the
//! distinction explicit: a `Real` payload carries bytes, a `Virtual` payload
//! carries a length and a content *version* so staleness (the thing the
//! PipeLLM validator detects) still exists.

use std::collections::BTreeMap;
use std::fmt;

/// Address of a host (CVM private memory) allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostAddr(pub u64);

impl fmt::Display for HostAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A contiguous host region `[addr, addr + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostRegion {
    /// Start address.
    pub addr: HostAddr,
    /// Length in bytes.
    pub len: u64,
}

impl HostRegion {
    /// Whether this region overlaps `other`. Regions whose end would pass
    /// `u64::MAX` are treated as ending there (saturating), so ranges near
    /// the top of the address space — e.g. sentinel cookies — never
    /// overflow the comparison.
    pub fn overlaps(&self, other: &HostRegion) -> bool {
        self.addr.0 < other.addr.0.saturating_add(other.len)
            && other.addr.0 < self.addr.0.saturating_add(self.len)
    }
}

/// Handle to a device (GPU enclave) memory allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DevicePtr(pub u64);

impl fmt::Display for DevicePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu:0x{:x}", self.0)
    }
}

/// The contents of an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Real bytes (functional tests).
    Real(Vec<u8>),
    /// A length-only stand-in with a content version (timing experiments).
    Virtual {
        /// Logical length in bytes.
        len: u64,
        /// Content version; bumped on every logical write.
        version: u64,
    },
}

impl Payload {
    /// Wire-format kind byte of a [`Payload::Real`] payload.
    pub const KIND_REAL: u8 = 0;
    /// Wire-format kind byte of a [`Payload::Virtual`] payload.
    pub const KIND_VIRTUAL: u8 = 1;

    /// Creates a virtual payload of `len` bytes at version 0.
    pub fn virtual_of(len: u64) -> Self {
        Payload::Virtual { len, version: 0 }
    }

    /// Serializes the payload's sealable plaintext into `out` (cleared
    /// first, capacity reused) and returns the kind byte for the transfer
    /// descriptor: real bytes verbatim, virtual payloads as a 16-byte
    /// `(len, version)` stand-in so the ciphertext stays small while IV
    /// semantics remain genuine. The zero-copy counterpart of
    /// [`Payload::from_plaintext`].
    pub fn write_plaintext(&self, out: &mut Vec<u8>) -> u8 {
        out.clear();
        match self {
            Payload::Real(bytes) => {
                out.extend_from_slice(bytes);
                Payload::KIND_REAL
            }
            Payload::Virtual { len, version } => {
                out.extend_from_slice(&len.to_be_bytes());
                out.extend_from_slice(&version.to_be_bytes());
                Payload::KIND_VIRTUAL
            }
        }
    }

    /// Rebuilds a payload from decrypted plaintext, taking ownership of
    /// the buffer (real payloads keep it as their storage — no copy).
    /// Inverse of [`Payload::write_plaintext`].
    pub fn from_plaintext(kind: u8, bytes: Vec<u8>) -> Payload {
        match <[u8; 16]>::try_from(bytes.as_slice()).map(u128::from_be_bytes) {
            Ok(header) if kind == Payload::KIND_VIRTUAL => Payload::Virtual {
                len: (header >> 64) as u64,
                version: header as u64,
            },
            _ => Payload::Real(bytes),
        }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Real(bytes) => bytes.len() as u64,
            Payload::Virtual { len, .. } => *len,
        }
    }

    /// Whether the payload is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact byte length [`Payload::write_plaintext`] will produce — what a
    /// staging buffer should reserve (plus the tag) to seal without
    /// reallocating.
    pub fn plaintext_len(&self) -> usize {
        match self {
            Payload::Real(bytes) => bytes.len(),
            Payload::Virtual { .. } => 16,
        }
    }

    /// A compact fingerprint of the contents, used as the plaintext
    /// stand-in when sealing virtual payloads (see `context`).
    pub fn fingerprint(&self) -> u64 {
        match self {
            Payload::Real(bytes) => {
                // FNV-1a: cheap, deterministic, good enough for labels.
                let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
                for &b in bytes {
                    hash ^= u64::from(b);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
                hash
            }
            Payload::Virtual { len, version } => {
                len.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ version.rotate_left(32)
            }
        }
    }
}

/// One host allocation.
#[derive(Debug, Clone)]
pub struct HostAlloc {
    region: HostRegion,
    payload: Payload,
    writes: u64,
}

impl HostAlloc {
    /// The allocation's region.
    pub fn region(&self) -> HostRegion {
        self.region
    }

    /// Current payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Number of writes this allocation has seen.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

/// Errors from memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemoryError {
    /// No allocation at this address.
    UnknownHostAddr(HostAddr),
    /// No allocation behind this device pointer.
    UnknownDevicePtr(DevicePtr),
    /// Device memory exhausted.
    DeviceOutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free.
        free: u64,
    },
    /// A write/copy did not match the allocation's length.
    LengthMismatch {
        /// Allocation length.
        expected: u64,
        /// Supplied length.
        got: u64,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::UnknownHostAddr(addr) => write!(f, "unknown host address {addr}"),
            MemoryError::UnknownDevicePtr(ptr) => write!(f, "unknown device pointer {ptr}"),
            MemoryError::DeviceOutOfMemory { requested, free } => {
                write!(
                    f,
                    "device out of memory: requested {requested} bytes, {free} free"
                )
            }
            MemoryError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "length mismatch: allocation is {expected} bytes, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// The CVM's private host memory: an allocation-granular address space.
///
/// Serving systems swap whole tensors/blocks, so the model allocates and
/// addresses whole chunks; sub-range addressing is not needed.
#[derive(Debug, Default)]
pub struct HostMemory {
    allocs: BTreeMap<u64, HostAlloc>,
    next_addr: u64,
}

impl HostMemory {
    /// Creates an empty host memory.
    pub fn new() -> Self {
        HostMemory {
            allocs: BTreeMap::new(),
            next_addr: 0x1000,
        }
    }

    /// Allocates a chunk holding real bytes; returns its region.
    pub fn alloc_real(&mut self, bytes: Vec<u8>) -> HostRegion {
        self.alloc(Payload::Real(bytes))
    }

    /// Allocates a virtual chunk of `len` bytes; returns its region.
    pub fn alloc_virtual(&mut self, len: u64) -> HostRegion {
        self.alloc(Payload::virtual_of(len))
    }

    /// Allocates an arbitrary payload; returns its region.
    pub fn alloc(&mut self, payload: Payload) -> HostRegion {
        let len = payload.len();
        let addr = HostAddr(self.next_addr);
        // Page-align the next allocation so protected ranges never share
        // pages, mirroring how a real runtime would lay out swap buffers.
        self.next_addr += len.max(1).next_multiple_of(4096);
        let region = HostRegion { addr, len };
        self.allocs.insert(
            addr.0,
            HostAlloc {
                region,
                payload,
                writes: 0,
            },
        );
        region
    }

    /// Frees the allocation at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnknownHostAddr`] if nothing is allocated there.
    pub fn free(&mut self, addr: HostAddr) -> Result<(), MemoryError> {
        self.allocs
            .remove(&addr.0)
            .map(|_| ())
            .ok_or(MemoryError::UnknownHostAddr(addr))
    }

    /// Looks up the allocation at `addr`.
    pub fn get(&self, addr: HostAddr) -> Result<&HostAlloc, MemoryError> {
        self.allocs
            .get(&addr.0)
            .ok_or(MemoryError::UnknownHostAddr(addr))
    }

    /// Overwrites the allocation's payload (same length), bumping versions.
    ///
    /// # Errors
    ///
    /// - [`MemoryError::UnknownHostAddr`] if nothing is allocated at `addr`.
    /// - [`MemoryError::LengthMismatch`] if the new payload's length differs.
    pub fn write(&mut self, addr: HostAddr, payload: Payload) -> Result<(), MemoryError> {
        let alloc = self
            .allocs
            .get_mut(&addr.0)
            .ok_or(MemoryError::UnknownHostAddr(addr))?;
        if payload.len() != alloc.region.len {
            return Err(MemoryError::LengthMismatch {
                expected: alloc.region.len,
                got: payload.len(),
            });
        }
        alloc.payload = payload;
        alloc.writes += 1;
        Ok(())
    }

    /// Logically mutates a chunk in place (bumps the version of a virtual
    /// payload; XOR-scrambles a real one) — the "application updates the
    /// data" event the PipeLLM validator must catch.
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnknownHostAddr`] if nothing is allocated at `addr`.
    pub fn touch(&mut self, addr: HostAddr) -> Result<(), MemoryError> {
        let alloc = self
            .allocs
            .get_mut(&addr.0)
            .ok_or(MemoryError::UnknownHostAddr(addr))?;
        match &mut alloc.payload {
            Payload::Real(bytes) => {
                if let Some(first) = bytes.first_mut() {
                    *first ^= 0xff;
                }
            }
            Payload::Virtual { version, .. } => *version += 1,
        }
        alloc.writes += 1;
        Ok(())
    }

    /// Number of live allocations.
    pub fn len(&self) -> usize {
        self.allocs.len()
    }

    /// Whether no allocations exist.
    pub fn is_empty(&self) -> bool {
        self.allocs.is_empty()
    }

    /// Iterates over live allocations in address order.
    pub fn iter(&self) -> impl Iterator<Item = &HostAlloc> {
        self.allocs.values()
    }
}

/// Device (GPU enclave) memory: a capacity-limited handle store.
#[derive(Debug)]
pub struct DeviceMemory {
    buffers: BTreeMap<u64, Payload>,
    capacity: u64,
    used: u64,
    next_ptr: u64,
}

impl DeviceMemory {
    /// Creates a device memory of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            buffers: BTreeMap::new(),
            capacity,
            used: 0,
            next_ptr: 0x10,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// Allocates `len` bytes of uninitialized device memory.
    ///
    /// # Errors
    ///
    /// [`MemoryError::DeviceOutOfMemory`] when `len` exceeds free capacity.
    pub fn alloc(&mut self, len: u64) -> Result<DevicePtr, MemoryError> {
        if len > self.free_bytes() {
            return Err(MemoryError::DeviceOutOfMemory {
                requested: len,
                free: self.free_bytes(),
            });
        }
        let ptr = DevicePtr(self.next_ptr);
        self.next_ptr += 1;
        self.used += len;
        self.buffers.insert(ptr.0, Payload::virtual_of(len));
        Ok(ptr)
    }

    /// Frees the allocation behind `ptr`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnknownDevicePtr`] if `ptr` is not live.
    pub fn dealloc(&mut self, ptr: DevicePtr) -> Result<(), MemoryError> {
        let payload = self
            .buffers
            .remove(&ptr.0)
            .ok_or(MemoryError::UnknownDevicePtr(ptr))?;
        self.used -= payload.len();
        Ok(())
    }

    /// Reads the payload behind `ptr`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnknownDevicePtr`] if `ptr` is not live.
    pub fn get(&self, ptr: DevicePtr) -> Result<&Payload, MemoryError> {
        self.buffers
            .get(&ptr.0)
            .ok_or(MemoryError::UnknownDevicePtr(ptr))
    }

    /// Mutable access to the payload behind `ptr` — in-place device-side
    /// compute without cloning the buffer. Callers must not change the
    /// payload's length.
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnknownDevicePtr`] if `ptr` is not live.
    pub fn get_mut(&mut self, ptr: DevicePtr) -> Result<&mut Payload, MemoryError> {
        self.buffers
            .get_mut(&ptr.0)
            .ok_or(MemoryError::UnknownDevicePtr(ptr))
    }

    /// Stores `payload` into the allocation behind `ptr`.
    ///
    /// # Errors
    ///
    /// - [`MemoryError::UnknownDevicePtr`] if `ptr` is not live.
    /// - [`MemoryError::LengthMismatch`] if the payload length differs from
    ///   the allocation length.
    pub fn store(&mut self, ptr: DevicePtr, payload: Payload) -> Result<(), MemoryError> {
        let slot = self
            .buffers
            .get_mut(&ptr.0)
            .ok_or(MemoryError::UnknownDevicePtr(ptr))?;
        if payload.len() != slot.len() {
            return Err(MemoryError::LengthMismatch {
                expected: slot.len(),
                got: payload.len(),
            });
        }
        *slot = payload;
        Ok(())
    }

    /// Number of live allocations.
    pub fn allocations(&self) -> usize {
        self.buffers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_alloc_read_write_roundtrip() {
        let mut mem = HostMemory::new();
        let region = mem.alloc_real(vec![1, 2, 3, 4]);
        assert_eq!(region.len, 4);
        assert_eq!(
            mem.get(region.addr).unwrap().payload(),
            &Payload::Real(vec![1, 2, 3, 4])
        );
        mem.write(region.addr, Payload::Real(vec![9, 9, 9, 9]))
            .unwrap();
        assert_eq!(mem.get(region.addr).unwrap().writes(), 1);
        mem.free(region.addr).unwrap();
        assert!(mem.get(region.addr).is_err());
    }

    #[test]
    fn host_allocations_never_overlap() {
        let mut mem = HostMemory::new();
        let regions: Vec<HostRegion> = (1..50u64).map(|i| mem.alloc_virtual(i * 1000)).collect();
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn write_length_must_match() {
        let mut mem = HostMemory::new();
        let region = mem.alloc_virtual(100);
        let err = mem.write(region.addr, Payload::virtual_of(99)).unwrap_err();
        assert_eq!(
            err,
            MemoryError::LengthMismatch {
                expected: 100,
                got: 99
            }
        );
    }

    #[test]
    fn touch_changes_fingerprint() {
        let mut mem = HostMemory::new();
        let real = mem.alloc_real(vec![5u8; 64]);
        let virt = mem.alloc_virtual(1 << 20);
        let fp_real = mem.get(real.addr).unwrap().payload().fingerprint();
        let fp_virt = mem.get(virt.addr).unwrap().payload().fingerprint();
        mem.touch(real.addr).unwrap();
        mem.touch(virt.addr).unwrap();
        assert_ne!(mem.get(real.addr).unwrap().payload().fingerprint(), fp_real);
        assert_ne!(mem.get(virt.addr).unwrap().payload().fingerprint(), fp_virt);
    }

    #[test]
    fn device_capacity_is_enforced() {
        let mut dev = DeviceMemory::new(1000);
        let a = dev.alloc(600).unwrap();
        assert_eq!(dev.free_bytes(), 400);
        let err = dev.alloc(500).unwrap_err();
        assert!(matches!(
            err,
            MemoryError::DeviceOutOfMemory {
                requested: 500,
                free: 400
            }
        ));
        dev.dealloc(a).unwrap();
        assert_eq!(dev.free_bytes(), 1000);
        assert!(dev.alloc(1000).is_ok());
    }

    #[test]
    fn device_store_and_get() {
        let mut dev = DeviceMemory::new(1 << 20);
        let ptr = dev.alloc(4).unwrap();
        dev.store(ptr, Payload::Real(vec![7, 7, 7, 7])).unwrap();
        assert_eq!(dev.get(ptr).unwrap(), &Payload::Real(vec![7, 7, 7, 7]));
        let err = dev.store(ptr, Payload::Real(vec![1])).unwrap_err();
        assert!(matches!(
            err,
            MemoryError::LengthMismatch {
                expected: 4,
                got: 1
            }
        ));
    }

    #[test]
    fn dangling_device_ptr_is_an_error() {
        let mut dev = DeviceMemory::new(100);
        let ptr = dev.alloc(10).unwrap();
        dev.dealloc(ptr).unwrap();
        assert!(dev.dealloc(ptr).is_err());
        assert!(dev.get(ptr).is_err());
    }

    #[test]
    fn plaintext_roundtrips_and_reuses_buffers() {
        let real = Payload::Real(vec![9u8; 32]);
        let virt = Payload::Virtual {
            len: 1 << 30,
            version: 3,
        };
        let mut buf = Vec::with_capacity(64);
        let ptr = buf.as_ptr();
        let kind = real.write_plaintext(&mut buf);
        assert_eq!(kind, Payload::KIND_REAL);
        assert_eq!(buf.as_ptr(), ptr, "staging capacity must be reused");
        assert_eq!(Payload::from_plaintext(kind, buf.clone()), real);
        let kind = virt.write_plaintext(&mut buf);
        assert_eq!(kind, Payload::KIND_VIRTUAL);
        assert_eq!(buf.len(), virt.plaintext_len());
        assert_eq!(buf.as_ptr(), ptr, "virtual stand-in fits the same buffer");
        assert_eq!(Payload::from_plaintext(kind, buf.clone()), virt);
        // A real payload adopts the decrypted buffer without copying.
        let plain = vec![1u8; 16];
        let plain_ptr = plain.as_ptr();
        let Payload::Real(bytes) = Payload::from_plaintext(Payload::KIND_REAL, plain) else {
            panic!("real payload expected");
        };
        assert_eq!(bytes.as_ptr(), plain_ptr);
    }

    #[test]
    fn payload_lengths_and_fingerprints() {
        assert_eq!(Payload::Real(vec![0; 10]).len(), 10);
        assert_eq!(Payload::virtual_of(99).len(), 99);
        assert!(Payload::virtual_of(0).is_empty());
        // Distinct virtual versions produce distinct fingerprints.
        let v0 = Payload::Virtual { len: 8, version: 0 };
        let v1 = Payload::Virtual { len: 8, version: 1 };
        assert_ne!(v0.fingerprint(), v1.fingerprint());
    }
}
