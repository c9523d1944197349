//! Mobile pointers: the global name space.
//!
//! A [`MobilePtr`] is a location-independent name for a mobile object
//! (Chrisochoides et al., *Advances in Engineering Software* 31(8-9), 2000 —
//! reference \[6\] of the SC'03 paper). It encodes the *home* rank that
//! allocated the name plus a per-home index; the pair is unique machine-wide
//! without any coordination. A mobile pointer stays valid as the object
//! migrates — the Mobile Object Layer routes messages to wherever the object
//! currently lives.

use std::fmt;

/// A globally unique, location-independent handle to a mobile object.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MobilePtr {
    /// Rank that allocated this name (not necessarily the current owner).
    pub home: usize,
    /// Allocation index within the home rank. Index 0 is reserved for NULL.
    pub index: u64,
}

impl MobilePtr {
    /// The null mobile pointer (`mol_mobile_ptr_is_null` in the paper's API).
    pub const NULL: MobilePtr = MobilePtr { home: 0, index: 0 };

    /// Whether this is the null pointer.
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }

    /// Encode into 16 little-endian bytes (stable wire format).
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&(self.home as u64).to_le_bytes());
        out[8..].copy_from_slice(&self.index.to_le_bytes());
        out
    }

    /// Decode from the wire format.
    pub fn from_bytes(b: [u8; 16]) -> Self {
        let (home, index) = b.split_at(8);
        MobilePtr {
            home: u64::from_le_bytes(home.try_into().expect("split_at(8) of a 16-byte array"))
                as usize,
            index: u64::from_le_bytes(index.try_into().expect("split_at(8) of a 16-byte array")),
        }
    }
}

impl fmt::Debug for MobilePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for MobilePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "mp(NULL)")
        } else {
            write!(f, "mp({}:{})", self.home, self.index)
        }
    }
}

/// Allocates fresh mobile pointers for one rank.
#[derive(Debug)]
pub struct PtrAllocator {
    home: usize,
    next: u64,
}

impl PtrAllocator {
    /// Allocator for `home`'s name space.
    pub fn new(home: usize) -> Self {
        // Index 0 of rank 0 is NULL; skip index 0 everywhere for uniformity.
        PtrAllocator { home, next: 1 }
    }

    /// Allocate a fresh, never-before-seen mobile pointer.
    pub fn alloc(&mut self) -> MobilePtr {
        let p = MobilePtr {
            home: self.home,
            index: self.next,
        };
        self.next += 1;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn null_detection() {
        assert!(MobilePtr::NULL.is_null());
        assert!(!MobilePtr { home: 0, index: 1 }.is_null());
        assert!(!MobilePtr { home: 1, index: 0 }.is_null());
    }

    #[test]
    fn wire_roundtrip() {
        let p = MobilePtr {
            home: 77,
            index: u64::MAX - 3,
        };
        assert_eq!(MobilePtr::from_bytes(p.to_bytes()), p);
        assert_eq!(
            MobilePtr::from_bytes(MobilePtr::NULL.to_bytes()),
            MobilePtr::NULL
        );
    }

    #[test]
    fn allocators_never_collide_across_ranks() {
        let mut seen = HashSet::new();
        for home in 0..8 {
            let mut a = PtrAllocator::new(home);
            for _ in 0..100 {
                let p = a.alloc();
                assert!(!p.is_null());
                assert!(seen.insert(p), "duplicate {p}");
            }
        }
        assert_eq!(seen.len(), 800);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", MobilePtr::NULL), "mp(NULL)");
        assert_eq!(format!("{}", MobilePtr { home: 2, index: 9 }), "mp(2:9)");
    }
}
