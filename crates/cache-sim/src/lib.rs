//! # rdx-cache — cache hierarchy simulator and calibrator
//!
//! The paper's evaluation relies on two pieces of infrastructure that are not
//! portable:
//!
//! 1. **Hardware performance counters** on a 2.2 GHz Pentium 4, used to count
//!    L1, L2 and TLB misses (Fig. 7a, Fig. 9).
//! 2. The **Calibrator** utility, which measures cache capacities, line sizes
//!    and miss latencies at run time and feeds them into the cost models.
//!
//! This crate substitutes both:
//!
//! * [`CacheParams`] describes a memory hierarchy; `CacheParams::paper_pentium4()`
//!   is the exact machine of §4 (16 KB L1 / 32 B lines / 28-cycle miss,
//!   512 KB L2 / 128 B lines / 350-cycle miss ≙ 178 ns, 64-entry TLB /
//!   50-cycle miss, 4 KB pages).
//! * [`MemorySystem`] is a set-associative, LRU, inclusive two-level cache +
//!   TLB simulator.  The shipped kernels in `rdx-core` and `rdx-dsm` take a
//!   [`Probe`] type parameter; run under a [`SimProbe`], their own loops
//!   replay every array reference through it, reproducing the miss-count
//!   curves of Fig. 7a and validating the Appendix-A cost models.
//! * [`Calibrator`] measures approximate access latencies on the host for a
//!   range of working-set sizes, so the cost models can also be fed host
//!   parameters instead of the paper's.
//! * [`AddressSpace`] / [`Region`] lay out simulated arrays in a virtual
//!   address space so a probe can name addresses without owning real
//!   memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod calibrator;
pub mod counters;
pub mod hierarchy;
pub mod params;
pub mod probe;

pub use address::{AddressSpace, Region};
pub use calibrator::{CalibrationPoint, Calibrator};
pub use counters::EventCounts;
pub use hierarchy::{CacheLevelSim, MemorySystem, TlbSim};
pub use params::{CacheLevel, CacheParams, Tlb};
pub use probe::{NoProbe, Probe, Remap, SimProbe};
