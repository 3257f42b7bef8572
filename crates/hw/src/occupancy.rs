//! Occupancy calculator: how many blocks and warps fit on one SM.
//!
//! Reproduces paper Table 2. A kernel's per-thread register demand, per-block
//! shared-memory demand, and block size each impose a ceiling on the number
//! of resident blocks; the binding ceiling is the [`Limiter`].

use crate::machine::Machine;
use std::fmt;

/// Static resource demands of a kernel launch, as reported by the compiler
/// (paper Figure 1: "Register, shared memory usage" flows from NVCC into the
/// occupancy computation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelResources {
    /// 32-bit registers per thread.
    pub regs_per_thread: u32,
    /// Shared-memory bytes per block (including the parameter/bookkeeping
    /// area the driver reserves in shared memory on GT200).
    pub smem_per_block: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl KernelResources {
    /// Convenience constructor.
    pub fn new(regs_per_thread: u32, smem_per_block: u32, threads_per_block: u32) -> Self {
        KernelResources {
            regs_per_thread,
            smem_per_block,
            threads_per_block,
        }
    }
}

/// Which hardware ceiling binds the number of resident blocks (paper §4.1
/// lists the five ceilings: registers, shared memory, threads, blocks, warps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Limiter {
    /// The 16384-register file.
    Registers,
    /// The 16 KB shared memory.
    SharedMemory,
    /// The resident-thread ceiling (1024 threads / 32 warps per SM).
    Threads,
    /// The 8-resident-block ceiling.
    Blocks,
}

impl fmt::Display for Limiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Limiter::Registers => "registers",
            Limiter::SharedMemory => "shared memory",
            Limiter::Threads => "threads/warps",
            Limiter::Blocks => "resident-block limit",
        };
        f.write_str(s)
    }
}

/// Result of the occupancy computation for one SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Occupancy {
    /// Ceiling imposed by the register file alone.
    pub blocks_by_regs: u32,
    /// Ceiling imposed by shared memory alone.
    pub blocks_by_smem: u32,
    /// Ceiling imposed by resident threads/warps alone.
    pub blocks_by_threads: u32,
    /// Hardware resident-block ceiling.
    pub blocks_by_limit: u32,
    /// Resident blocks: the minimum of the four ceilings.
    pub blocks: u32,
    /// Warps per block (threads rounded up to whole warps).
    pub warps_per_block: u32,
    /// Active warps per SM = `blocks · warps_per_block`.
    pub active_warps: u32,
    /// The binding ceiling.
    pub limiter: Limiter,
}

impl Occupancy {
    /// Fraction of the SM's warp capacity in use, `0.0..=1.0`.
    pub fn fraction(&self, machine: &Machine) -> f64 {
        f64::from(self.active_warps) / f64::from(machine.max_warps_per_sm)
    }
}

impl fmt::Display for Occupancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} block(s)/SM ({} warps), limited by {}",
            self.blocks, self.active_warps, self.limiter
        )
    }
}

/// Compute how many blocks of a kernel fit on one SM (paper Table 2).
///
/// Register footprints are allocated per block in units of
/// [`Machine::reg_alloc_unit`] registers, as on real GT200 hardware.
///
/// # Panics
///
/// Panics if `res.threads_per_block` is zero or exceeds
/// `machine.max_threads_per_block`.
///
/// # Example
///
/// ```
/// use gpa_hw::{occupancy, KernelResources, Machine};
///
/// // Paper Table 2, 16×16 sub-matrix row: 30 regs, 1088 B smem, 64 threads.
/// let occ = occupancy(&Machine::gtx285(), KernelResources::new(30, 1088, 64));
/// assert_eq!(occ.blocks, 8);
/// assert_eq!(occ.active_warps, 16);
/// ```
pub fn occupancy(machine: &Machine, res: KernelResources) -> Occupancy {
    assert!(res.threads_per_block > 0, "block size must be positive");
    assert!(
        res.threads_per_block <= machine.max_threads_per_block,
        "block size {} exceeds the hardware maximum {}",
        res.threads_per_block,
        machine.max_threads_per_block
    );

    let warps_per_block = machine.warps_for_threads(res.threads_per_block);

    let blocks_by_regs = if res.regs_per_thread == 0 {
        machine.max_blocks_per_sm
    } else {
        let raw = res.regs_per_thread * warps_per_block * machine.warp_size;
        let unit = machine.reg_alloc_unit.max(1);
        let per_block = raw.div_ceil(unit) * unit;
        machine.regs_per_sm / per_block
    };

    let blocks_by_smem = machine
        .smem_per_sm
        .checked_div(res.smem_per_block)
        .unwrap_or(machine.max_blocks_per_sm);

    let blocks_by_threads = (machine.max_threads_per_sm / res.threads_per_block)
        .min(machine.max_warps_per_sm / warps_per_block);

    let blocks_by_limit = machine.max_blocks_per_sm;

    let blocks = blocks_by_regs
        .min(blocks_by_smem)
        .min(blocks_by_threads)
        .min(blocks_by_limit);

    // Report the first binding limiter in the paper's order of discussion.
    let limiter = if blocks == blocks_by_regs && blocks < blocks_by_limit {
        Limiter::Registers
    } else if blocks == blocks_by_smem && blocks < blocks_by_limit {
        Limiter::SharedMemory
    } else if blocks == blocks_by_threads && blocks < blocks_by_limit {
        Limiter::Threads
    } else {
        Limiter::Blocks
    };

    Occupancy {
        blocks_by_regs,
        blocks_by_smem,
        blocks_by_threads,
        blocks_by_limit,
        blocks,
        warps_per_block,
        active_warps: blocks * warps_per_block,
        limiter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m() -> Machine {
        Machine::gtx285()
    }

    // ---- Paper Table 2 rows (dense matrix multiply, 64-thread blocks) ----

    #[test]
    fn table2_8x8_submatrix() {
        // 16 regs, 348 B smem: min(16, 47, 8) = 8 blocks, 16 warps.
        let occ = occupancy(&m(), KernelResources::new(16, 348, 64));
        assert_eq!(occ.blocks_by_regs, 16);
        assert_eq!(occ.blocks_by_smem, 47);
        assert_eq!(occ.blocks, 8);
        assert_eq!(occ.active_warps, 16);
        assert_eq!(occ.limiter, Limiter::Blocks);
    }

    #[test]
    fn table2_16x16_submatrix() {
        // 30 regs, 1088 B smem: min(8, 15, 8) = 8 blocks, 16 warps.
        let occ = occupancy(&m(), KernelResources::new(30, 1088, 64));
        assert_eq!(occ.blocks_by_regs, 8);
        assert_eq!(occ.blocks_by_smem, 15);
        assert_eq!(occ.blocks, 8);
        assert_eq!(occ.active_warps, 16);
    }

    #[test]
    fn table2_32x32_submatrix() {
        // 58 regs, 4284 B smem. The paper's register column says 3; the
        // standard GT200 allocation rule (512-register units) gives 4, but
        // shared memory also gives 3, so the resulting occupancy — 3 blocks,
        // 6 warps — matches the paper exactly. The `table2` exhibit
        // (README, "Regenerating the paper's exhibits") prints both columns.
        let occ = occupancy(&m(), KernelResources::new(58, 4284, 64));
        assert_eq!(occ.blocks_by_smem, 3);
        assert_eq!(occ.blocks, 3);
        assert_eq!(occ.active_warps, 6);
        assert_eq!(occ.limiter, Limiter::SharedMemory);
    }

    // ---- Tridiagonal solver: one 8 KB block per SM (paper §5.2) ----

    #[test]
    fn cyclic_reduction_fits_one_block() {
        // 512-equation system: 4 arrays × 512 × 4 B = 8 KB, plus the
        // parameter area; only one block fits.
        let occ = occupancy(&m(), KernelResources::new(12, 8192 + 256, 256));
        assert_eq!(occ.blocks, 1);
        assert_eq!(occ.limiter, Limiter::SharedMemory);
    }

    // ---- Unit behaviours ----

    #[test]
    fn zero_resource_kernel_is_block_limited() {
        let occ = occupancy(&m(), KernelResources::new(0, 0, 64));
        assert_eq!(occ.blocks, 8);
        assert_eq!(occ.limiter, Limiter::Blocks);
    }

    #[test]
    fn warp_limit_binds_large_blocks() {
        // 512-thread blocks = 16 warps; 1024 threads/SM → 2 blocks.
        let occ = occupancy(&m(), KernelResources::new(8, 16, 512));
        assert_eq!(occ.blocks_by_threads, 2);
        assert_eq!(occ.blocks, 2);
        assert_eq!(occ.active_warps, 32);
        assert_eq!(occ.limiter, Limiter::Threads);
    }

    #[test]
    fn register_rounding_uses_alloc_unit() {
        // 58 regs × 64 threads = 3712, rounded to 4096 → 4 blocks.
        let occ = occupancy(&m(), KernelResources::new(58, 0, 64));
        assert_eq!(occ.blocks_by_regs, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds the hardware maximum")]
    fn oversized_block_panics() {
        occupancy(&m(), KernelResources::new(8, 0, 1024));
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn empty_block_panics() {
        occupancy(&m(), KernelResources::new(8, 0, 0));
    }

    #[test]
    fn display_is_informative() {
        let occ = occupancy(&m(), KernelResources::new(30, 1088, 64));
        let s = format!("{occ}");
        assert!(s.contains("8 block"));
        assert!(s.contains("16 warps"));
    }

    // ---- Properties ----

    proptest! {
        /// More registers per thread never increases occupancy.
        #[test]
        fn monotone_in_registers(r1 in 1u32..128, r2 in 1u32..128,
                                 smem in 0u32..16384, threads in 1u32..=512) {
            let (lo, hi) = (r1.min(r2), r1.max(r2));
            let a = occupancy(&m(), KernelResources::new(lo, smem, threads));
            let b = occupancy(&m(), KernelResources::new(hi, smem, threads));
            prop_assert!(b.blocks <= a.blocks);
        }

        /// More shared memory per block never increases occupancy.
        #[test]
        fn monotone_in_smem(regs in 1u32..64, s1 in 0u32..16384, s2 in 0u32..16384,
                            threads in 1u32..=512) {
            let (lo, hi) = (s1.min(s2), s1.max(s2));
            let a = occupancy(&m(), KernelResources::new(regs, lo, threads));
            let b = occupancy(&m(), KernelResources::new(regs, hi, threads));
            prop_assert!(b.blocks <= a.blocks);
        }

        /// The result never exceeds any individual ceiling, and active warps
        /// never exceed the hardware warp limit.
        #[test]
        fn respects_all_ceilings(regs in 0u32..256, smem in 0u32..32768,
                                 threads in 1u32..=512) {
            let occ = occupancy(&m(), KernelResources::new(regs, smem, threads));
            prop_assert!(occ.blocks <= occ.blocks_by_regs);
            prop_assert!(occ.blocks <= occ.blocks_by_smem);
            prop_assert!(occ.blocks <= occ.blocks_by_threads);
            prop_assert!(occ.blocks <= m().max_blocks_per_sm);
            prop_assert!(occ.active_warps <= m().max_warps_per_sm);
            prop_assert!(occ.fraction(&m()) <= 1.0);
        }
    }
}

#[cfg(test)]
mod sku_tests {
    //! Occupancy sanity per paper-Table-3 SKU: the G92 parts differ from
    //! the GTX 285 in register file (8192, 256-unit allocation) and
    //! residency ceilings (768 threads / 24 warps), so the same kernel
    //! footprint occupies them differently.

    use super::*;

    #[test]
    fn matmul_16x16_footprint_across_skus() {
        // Paper Table 2's 16×16 row: 30 regs, 1088 B, 64 threads.
        let res = KernelResources::new(30, 1088, 64);
        let on_gt200 = occupancy(&Machine::gtx285(), res);
        assert_eq!(on_gt200.blocks, 8);
        assert_eq!(on_gt200.active_warps, 16);
        // G92: 30 regs × 2 warps × 32 lanes = 1920 → 2048 in 256-register
        // units → 8192 / 2048 = 4 blocks; registers bind.
        for g92 in [Machine::geforce_8800gt(), Machine::geforce_9800gtx()] {
            let occ = occupancy(&g92, res);
            assert_eq!(occ.blocks_by_regs, 4, "{}", g92.name);
            assert_eq!(occ.blocks, 4, "{}", g92.name);
            assert_eq!(occ.active_warps, 8, "{}", g92.name);
            assert_eq!(occ.limiter, Limiter::Registers, "{}", g92.name);
        }
    }

    #[test]
    fn g92_warp_ceiling_binds_at_24_warps() {
        // 256-thread blocks, tiny footprint: GTX 285 fits 4 blocks
        // (32 warps); G92 only 3 (768-thread / 24-warp ceiling).
        let res = KernelResources::new(4, 0, 256);
        assert_eq!(occupancy(&Machine::gtx285(), res).active_warps, 32);
        for g92 in [Machine::geforce_8800gt(), Machine::geforce_9800gtx()] {
            let occ = occupancy(&g92, res);
            assert_eq!(occ.blocks, 3, "{}", g92.name);
            assert_eq!(occ.active_warps, 24, "{}", g92.name);
            assert_eq!(occ.limiter, Limiter::Threads, "{}", g92.name);
            assert!((occ.fraction(&g92) - 1.0).abs() < 1e-12, "{}", g92.name);
        }
    }

    #[test]
    fn every_sku_respects_its_own_ceilings() {
        for m in Machine::paper_table3() {
            for (regs, smem, threads) in
                [(0, 0, 64), (16, 2048, 128), (32, 8448, 256), (60, 4284, 64)]
            {
                let occ = occupancy(&m, KernelResources::new(regs, smem, threads));
                assert!(occ.blocks <= m.max_blocks_per_sm, "{}", m.name);
                assert!(occ.active_warps <= m.max_warps_per_sm, "{}", m.name);
                assert!(
                    occ.blocks * threads <= m.max_threads_per_sm || occ.blocks == 0,
                    "{}",
                    m.name
                );
                assert!(occ.fraction(&m) <= 1.0, "{}", m.name);
            }
        }
    }

    #[test]
    fn g92_register_file_cliff() {
        // 8192 registers: a 512-thread block at 16 regs/thread consumes
        // exactly the G92 file (16 × 16 warps × 32 = 8192) → one block.
        let res = KernelResources::new(16, 0, 512);
        let occ = occupancy(&Machine::geforce_8800gt(), res);
        assert_eq!(occ.blocks_by_regs, 1);
        assert_eq!(occ.blocks, 1);
        // One more register per thread and nothing fits.
        let over = occupancy(&Machine::geforce_8800gt(), KernelResources::new(17, 0, 512));
        assert_eq!(over.blocks, 0);
        // The same footprint fits two blocks on GT200's 16384-register file.
        assert_eq!(occupancy(&Machine::gtx285(), res).blocks_by_regs, 2);
    }
}

#[cfg(test)]
mod boundary_tests {
    //! Exact-boundary behaviour of each ceiling: the register allocation
    //! cliff at the 512-register unit, shared memory at and just past an
    //! exact divisor of the 16 KB SM budget, the thread/warp ceiling, and
    //! the 8-resident-block hardware limit.

    use super::*;

    fn m() -> Machine {
        Machine::gtx285()
    }

    #[test]
    fn register_alloc_unit_cliff() {
        // 64-thread blocks = 2 warps: the per-block footprint is
        // regs × 2 × 32, rounded up to a 512-register unit.
        // 8 regs → exactly 512 → 32 blocks by registers.
        let at_unit = occupancy(&m(), KernelResources::new(8, 0, 64));
        assert_eq!(at_unit.blocks_by_regs, 32);
        // One more register crosses into the next unit: 576 → 1024 → 16.
        let past_unit = occupancy(&m(), KernelResources::new(9, 0, 64));
        assert_eq!(past_unit.blocks_by_regs, 16);
    }

    #[test]
    fn register_file_exactly_consumed_by_one_block() {
        // 512-thread block, 32 regs/thread: 32 × 16 warps × 32 lanes =
        // 16384 = the whole file → exactly one block.
        let fits = occupancy(&m(), KernelResources::new(32, 0, 512));
        assert_eq!(fits.blocks_by_regs, 1);
        assert_eq!(fits.blocks, 1);
        assert_eq!(fits.limiter, Limiter::Registers);
        // One more register and no block fits at all.
        let too_big = occupancy(&m(), KernelResources::new(33, 0, 512));
        assert_eq!(too_big.blocks_by_regs, 0);
        assert_eq!(too_big.blocks, 0);
        assert_eq!(too_big.active_warps, 0);
    }

    #[test]
    fn smem_boundary_at_exact_divisor() {
        // 2048 B divides 16 KB exactly 8 ways — the block limit binds, not
        // shared memory.
        let exact = occupancy(&m(), KernelResources::new(4, 2048, 64));
        assert_eq!(exact.blocks_by_smem, 8);
        assert_eq!(exact.blocks, 8);
        assert_eq!(exact.limiter, Limiter::Blocks);
        // One byte more drops the smem ceiling to 7 and makes it binding.
        let over = occupancy(&m(), KernelResources::new(4, 2049, 64));
        assert_eq!(over.blocks_by_smem, 7);
        assert_eq!(over.blocks, 7);
        assert_eq!(over.limiter, Limiter::SharedMemory);
    }

    #[test]
    fn smem_larger_than_sm_fits_no_block() {
        let occ = occupancy(&m(), KernelResources::new(4, 16_385, 64));
        assert_eq!(occ.blocks, 0);
        assert_eq!(occ.limiter, Limiter::SharedMemory);
    }

    #[test]
    fn thread_ceiling_binds_exactly_at_sm_capacity() {
        // 128-thread blocks: 8 × 128 = 1024 threads — the thread ceiling
        // equals the block limit, which is reported as the limiter.
        let exact = occupancy(&m(), KernelResources::new(4, 0, 128));
        assert_eq!(exact.blocks_by_threads, 8);
        assert_eq!(exact.blocks, 8);
        assert_eq!(exact.active_warps, 32);
        assert_eq!(exact.limiter, Limiter::Blocks);
        // 256-thread blocks: only 4 fit → threads become the limiter.
        let bound = occupancy(&m(), KernelResources::new(4, 0, 256));
        assert_eq!(bound.blocks_by_threads, 4);
        assert_eq!(bound.blocks, 4);
        assert_eq!(bound.limiter, Limiter::Threads);
    }

    #[test]
    fn partial_warps_round_up() {
        // 33 threads occupy two warps; 8 resident blocks → 16 warps.
        let occ = occupancy(&m(), KernelResources::new(4, 0, 33));
        assert_eq!(occ.warps_per_block, 2);
        assert_eq!(occ.blocks, 8);
        assert_eq!(occ.active_warps, 16);
    }

    #[test]
    fn fraction_matches_table2_rows() {
        // Paper Table 2 occupancy column: 16, 16, and 6 warps of 32.
        let m = m();
        let rows = [
            (KernelResources::new(16, 348, 64), 0.5),
            (KernelResources::new(30, 1088, 64), 0.5),
            (KernelResources::new(58, 4284, 64), 0.1875),
        ];
        for (res, expected) in rows {
            let occ = occupancy(&m, res);
            assert!(
                (occ.fraction(&m) - expected).abs() < 1e-12,
                "{res:?}: {}",
                occ.fraction(&m)
            );
        }
    }
}
