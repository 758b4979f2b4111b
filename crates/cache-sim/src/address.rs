//! A virtual address space for traced kernel runs.
//!
//! A kernel run under a [`crate::SimProbe`] replays its array references
//! through the [`crate::MemorySystem`] without the simulator owning real
//! memory for the operand arrays.  [`AddressSpace`] hands out non-overlapping
//! [`Region`]s, each standing for one array (a DSM column, a cluster, a hash
//! table, …), and a `Region` converts element indices to byte addresses.
//! Regions that one run charges together come from one `AddressSpace`, so
//! they never alias.

/// A contiguous range of the simulated address space representing one array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: u64,
    elem_width: usize,
    elems: usize,
}

impl Region {
    /// Base address of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of elements.
    pub fn elems(&self) -> usize {
        self.elems
    }

    /// Width of one element in bytes.
    pub fn elem_width(&self) -> usize {
        self.elem_width
    }

    /// Total size in bytes.
    pub fn byte_size(&self) -> usize {
        self.elems * self.elem_width
    }

    /// Address of element `index`.
    ///
    /// # Panics
    /// Panics if `index >= elems` — a kernel addressing outside its own array
    /// is a bug in the kernel or its layout, not a recoverable condition.
    #[inline]
    pub fn addr(&self, index: usize) -> u64 {
        assert!(
            index < self.elems,
            "index {index} out of region ({})",
            self.elems
        );
        self.base + (index * self.elem_width) as u64
    }

    /// A sub-region covering elements `[start, start + len)`, sharing this
    /// region's element width.  Used to model clusters laid out back-to-back
    /// inside one operand array.
    pub fn slice(&self, start: usize, len: usize) -> Region {
        assert!(start + len <= self.elems, "sub-region out of bounds");
        Region {
            base: self.base + (start * self.elem_width) as u64,
            elem_width: self.elem_width,
            elems: len,
        }
    }
}

/// Allocator of non-overlapping [`Region`]s.
///
/// Regions are aligned to `alignment` bytes (default 4 KB, one page) so that
/// distinct arrays never share a page or a cache line, matching how the real
/// operands are allocated by the memory allocator for multi-megabyte arrays.
#[derive(Debug)]
pub struct AddressSpace {
    next: u64,
    alignment: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// A fresh address space with page (4 KB) alignment.
    pub fn new() -> Self {
        AddressSpace {
            // Start away from address 0 so that "null-ish" addresses stand out
            // in debugging output.
            next: 1 << 20,
            alignment: 4096,
        }
    }

    /// A fresh address space with a custom allocation alignment.
    pub fn with_alignment(alignment: u64) -> Self {
        assert!(
            alignment.is_power_of_two(),
            "alignment must be a power of two"
        );
        AddressSpace {
            next: alignment.max(1 << 20),
            alignment,
        }
    }

    /// Allocates a region of `elems` elements of `elem_width` bytes each.
    pub fn alloc(&mut self, elems: usize, elem_width: usize) -> Region {
        let region = Region {
            base: self.next,
            elem_width,
            elems,
        };
        let bytes = (elems * elem_width) as u64;
        self.next = (self.next + bytes).div_ceil(self.alignment) * self.alignment;
        region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let mut space = AddressSpace::new();
        let a = space.alloc(1000, 4);
        let b = space.alloc(10, 8);
        assert!(a.base() + a.byte_size() as u64 <= b.base());
    }

    #[test]
    fn regions_are_page_aligned() {
        let mut space = AddressSpace::new();
        let a = space.alloc(3, 4);
        let b = space.alloc(3, 4);
        assert_eq!(a.base() % 4096, 0);
        assert_eq!(b.base() % 4096, 0);
    }

    #[test]
    fn addr_scales_by_element_width() {
        let mut space = AddressSpace::new();
        let r = space.alloc(10, 8);
        assert_eq!(r.addr(0), r.base());
        assert_eq!(r.addr(3), r.base() + 24);
    }

    #[test]
    #[should_panic]
    fn addr_out_of_bounds_panics() {
        let mut space = AddressSpace::new();
        let r = space.alloc(2, 4);
        let _ = r.addr(2);
    }

    #[test]
    fn slice_addresses_match_parent() {
        let mut space = AddressSpace::new();
        let r = space.alloc(100, 4);
        let s = r.slice(10, 5);
        assert_eq!(s.addr(0), r.addr(10));
        assert_eq!(s.addr(4), r.addr(14));
        assert_eq!(s.elems(), 5);
    }

    #[test]
    fn custom_alignment() {
        let mut space = AddressSpace::with_alignment(64);
        let a = space.alloc(1, 4);
        let b = space.alloc(1, 4);
        assert_eq!((b.base() - a.base()) % 64, 0);
    }
}
