//! Property-based tests for the FPGA simulator's models.

use proptest::prelude::*;
use seqge_fpga::bram::TileManager;
use seqge_fpga::timing::transfer_cycles;
use seqge_fpga::{estimate_resources, AcceleratorDesign, FpgaDevice, TimingModel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Walk latency is monotone in contexts and in samples per context.
    #[test]
    fn latency_monotone(
        dim in 8usize..128,
        ctxs in 1usize..100,
        samples in 1usize..100,
    ) {
        let t = TimingModel::default();
        let base = t.walk_cycles(dim, ctxs, samples);
        let more_ctx = t.walk_cycles(dim, ctxs + 1, samples);
        let more_samples = t.walk_cycles(dim, ctxs, samples + 1);
        prop_assert!(more_ctx > base);
        prop_assert!(more_samples >= base);
    }

    /// DMA cycles are monotone in payload and never zero for nonzero bytes.
    #[test]
    fn dma_monotone(a in 1u64..1_000_000, b in 0u64..1_000_000) {
        prop_assert!(transfer_cycles(a) > 0);
        prop_assert!(transfer_cycles(a + b) >= transfer_cycles(a));
    }

    /// Resource estimates always fit the device for dimensions up to the
    /// paper's maximum build, and every breakdown sums to its total.
    #[test]
    fn estimates_fit_device(dim in 8usize..=96) {
        let dev = FpgaDevice::XCZU7EV;
        let est = estimate_resources(&AcceleratorDesign::for_dim(dim));
        prop_assert!(dev.fits(est.bram36, est.dsp, est.ff, est.lut), "d={dim}: {est:?}");
        let (p, b, c, f) = est.bram_parts;
        prop_assert_eq!(p + b + c + f, est.bram36);
        let (m, dv, ct) = est.dsp_parts;
        prop_assert_eq!(m + dv + ct, est.dsp);
    }

    /// Utilization percentages are consistent with the raw counts.
    #[test]
    fn utilization_consistent(dim in 8usize..=96) {
        let dev = FpgaDevice::XCZU7EV;
        let est = estimate_resources(&AcceleratorDesign::for_dim(dim));
        let u = est.utilization(&dev);
        prop_assert!((u.dsp_pct - 100.0 * est.dsp as f64 / dev.dsp as f64).abs() < 1e-9);
        prop_assert!(u.bram_pct <= 100.0 && u.lut_pct <= 100.0 && u.ff_pct <= 100.0);
    }

    /// The flag vector + queue behind `TileManager` is a FIFO cache: on any
    /// touch sequence each hit and its counters equal those of a
    /// map-of-ticks model.
    #[test]
    fn tile_manager_matches_map_model(
        capacity in 1usize..=8,
        touches in proptest::collection::vec(0u32..12, 0usize..200),
    ) {
        let mut tile = TileManager::new(capacity);
        let mut resident: std::collections::HashMap<u32, u64> = Default::default();
        let (mut hits, mut misses, mut tick) = (0u64, 0u64, 0u64);
        for col in touches {
            let hit = resident.contains_key(&col);
            if hit {
                hits += 1;
            } else {
                misses += 1;
                if resident.len() == capacity {
                    let oldest = *resident.iter().min_by_key(|(_, &t)| t).expect("non-empty").0;
                    resident.remove(&oldest);
                }
                tick += 1;
                resident.insert(col, tick);
            }
            prop_assert_eq!(tile.touch(col), hit);
            prop_assert_eq!((tile.hits, tile.misses), (hits, misses));
        }
    }
}
