//! Memory probes: how a shipped kernel reports its array references.
//!
//! Each kernel that the simulator observes takes a [`Probe`] type parameter
//! and calls [`Probe::read`] / [`Probe::write`] beside every array reference
//! it makes, naming the array by a small kernel-defined id and the element by
//! its index.  Production passes [`NoProbe`], whose empty bodies compile the
//! calls away; a traced run passes a [`SimProbe`], which turns each reference
//! into a simulated access at the element's address in that array's
//! [`Region`].  The counts are therefore those of the loop that ships, not of
//! a copy of it.

use crate::{EventCounts, MemorySystem, Region};

/// A sink for a kernel's array references.
pub trait Probe {
    /// `true` when the probe observes anything.  A kernel that parallelises
    /// runs on one worker when it is, so the reference order is sequential
    /// and the counts repeat.
    const ACTIVE: bool;

    /// Element `index` of array `array` is read.
    fn read(&mut self, array: usize, index: usize);

    /// Element `index` of array `array` is written (a read-modify-write is
    /// one write).
    fn write(&mut self, array: usize, index: usize);

    /// Element `index` of each of `arrays` is read, in order.
    #[inline(always)]
    fn read_all<const N: usize>(&mut self, arrays: [usize; N], index: usize) {
        arrays.into_iter().for_each(|array| self.read(array, index));
    }

    /// Element `index` of each of `arrays` is written, in order.
    #[inline(always)]
    fn write_all<const N: usize>(&mut self, arrays: [usize; N], index: usize) {
        arrays
            .into_iter()
            .for_each(|array| self.write(array, index));
    }
}

/// The production probe: observes nothing and costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn read(&mut self, _array: usize, _index: usize) {}

    #[inline(always)]
    fn write(&mut self, _array: usize, _index: usize) {}
}

/// A probe that replays every reference through a [`MemorySystem`]: array
/// id `a` is `regions[a]`, laid out once from one [`crate::AddressSpace`].
#[derive(Debug)]
pub struct SimProbe<'a> {
    mem: &'a mut MemorySystem,
    regions: &'a [Region],
    start: EventCounts,
}

impl<'a> SimProbe<'a> {
    /// A probe charging `mem`, with one region per array id.
    pub fn new(mem: &'a mut MemorySystem, regions: &'a [Region]) -> Self {
        let start = mem.counts();
        SimProbe {
            mem,
            regions,
            start,
        }
    }

    /// The events charged through this probe so far.
    pub fn counts(&self) -> EventCounts {
        self.mem.counts() - self.start
    }
}

impl Probe for SimProbe<'_> {
    const ACTIVE: bool = true;

    fn read(&mut self, array: usize, index: usize) {
        let region = self.regions[array];
        self.mem.read(region.addr(index), region.elem_width());
    }

    fn write(&mut self, array: usize, index: usize) {
        let region = self.regions[array];
        self.mem.write(region.addr(index), region.elem_width());
    }
}

/// A probe that forwards a kernel's references to `inner` in the caller's
/// numbering: element `index` of the kernel's array `a` is element
/// `index + map[a].1` of `inner`'s array `map[a].0`.  How one probe over a
/// caller's whole layout observes a kernel that runs over a stretch of an
/// array, or numbers its arrays its own way.  Over an inactive probe it
/// does nothing, so it compiles away like [`NoProbe`].
#[derive(Debug)]
pub struct Remap<'p, P, const N: usize> {
    inner: &'p mut P,
    map: [(usize, usize); N],
}

impl<'p, P: Probe, const N: usize> Remap<'p, P, N> {
    /// Forwards kernel array `a` to `map[a]` = (array of `inner`, index
    /// shift).
    #[inline(always)]
    pub fn new(inner: &'p mut P, map: [(usize, usize); N]) -> Self {
        Remap { inner, map }
    }
}

impl<P: Probe, const N: usize> Probe for Remap<'_, P, N> {
    const ACTIVE: bool = P::ACTIVE;

    #[inline(always)]
    fn read(&mut self, array: usize, index: usize) {
        if P::ACTIVE {
            let (array, shift) = self.map[array];
            self.inner.read(array, index + shift);
        }
    }

    #[inline(always)]
    fn write(&mut self, array: usize, index: usize) {
        if P::ACTIVE {
            let (array, shift) = self.map[array];
            self.inner.write(array, index + shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddressSpace, CacheParams};

    #[test]
    fn sim_probe_charges_the_named_region_and_counts_only_its_own_events() {
        let mut mem = MemorySystem::new(&CacheParams::tiny_for_tests());
        mem.read(0, 4);
        let mut space = AddressSpace::new();
        let regions = [space.alloc(16, 4), space.alloc(16, 8)];
        let mut probe = SimProbe::new(&mut mem, &regions);
        probe.read(0, 3);
        probe.write(1, 15);
        let counts = probe.counts();
        assert_eq!(counts.accesses, 2);
        assert_eq!(counts.tlb_misses, 2, "two distinct pages");
        assert_eq!(mem.counts().accesses, 3);
    }

    #[test]
    fn remap_charges_the_caller_array_at_the_shifted_index() {
        let params = CacheParams::tiny_for_tests();
        let mut space = AddressSpace::new();
        let regions = [space.alloc(64, 4), space.alloc(64, 4)];
        let mut direct = MemorySystem::new(&params);
        direct.read(regions[1].addr(40), 4);
        direct.read(regions[1].addr(41), 4);
        direct.write(regions[0].addr(9), 4);
        direct.read(regions[1].addr(43), 4);
        let mut mem = MemorySystem::new(&params);
        let mut probe = SimProbe::new(&mut mem, &regions);
        let mut remapped = Remap::new(&mut probe, [(1, 40), (0, 0)]);
        remapped.read(0, 0);
        remapped.read(0, 1);
        remapped.write(1, 9);
        // Remaps nest: element 1 of the outer kernel's array 0 is element
        // 3 of the inner one's, 43 of array 1.
        Remap::new(&mut remapped, [(0, 2)]).read(0, 1);
        assert_eq!(mem.counts(), direct.counts());
    }
}
