//! Pins the accelerator build model: the price of a walk, the resource
//! estimate, the weight tile's capacity and the design-space sweep, each over
//! a grid of builds. A literal that moves here means a modeled build moved —
//! Table 3's FPGA row, Table 6, `ablate_negshare`'s tile or the `explore`
//! report.

use seqge_fpga::bram::TileManager;
use seqge_fpga::explore::{explore, XCZU15EG, XCZU9EG};
use seqge_fpga::{estimate_resources, Build, FpgaDevice};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
fn fnv(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes = words.into_iter().flat_map(u64::to_le_bytes);
    bytes.fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The builds the resource and tile pins cover: d = 8, 16, …, 128.
fn dims() -> impl Iterator<Item = usize> {
    (8..=128).step_by(8)
}

#[test]
fn walk_price_is_pinned() {
    let mut h = FNV_OFFSET;
    for dim in 1..=128 {
        for port_bytes in [36, 72, 144] {
            let build = Build { port_bytes, ..Build::for_dim(dim).unwrap() };
            for contexts in [1, 7, 73] {
                for samples in [0, 14, 77] {
                    h = fnv(h, [build.walk_cycles(contexts, samples)]);
                }
            }
        }
    }
    assert_eq!(h, 0xa2f6_0bba_7b52_83d9);
}

#[test]
fn resource_estimates_are_pinned() {
    let got: Vec<(usize, u64)> = dims()
        .map(|dim| {
            let e = estimate_resources(&Build::for_dim(dim).unwrap());
            let (p, b, c, f) = e.bram_parts;
            let (m, dv, ct) = e.dsp_parts;
            let words = [e.bram36, e.dsp, e.ff, e.lut, p, b, c, f, m, dv, ct, e.calibrated as u32];
            (dim, fnv(FNV_OFFSET, words.map(u64::from)))
        })
        .collect();
    assert_eq!(
        got,
        [
            (8, 0xf3b8_cfcc_b04b_e9af),
            (16, 0x52fe_d3fa_60b4_74a4),
            (24, 0x72c5_1010_36d6_e1b4),
            (32, 0xb1dc_fb87_0e18_a0a8),
            (40, 0x6d60_c285_bb80_e025),
            (48, 0x9572_39b4_c093_6a32),
            (56, 0x90b2_3a7f_7354_10c7),
            (64, 0x3ea9_1839_cf5d_3c1a),
            (72, 0x19fb_d5bf_3b38_3b9c),
            (80, 0x5db5_a0a6_fcc6_20b0),
            (88, 0xf742_6573_30a4_9c55),
            (96, 0xec5a_10cb_6403_9b55),
            (104, 0xa987_e5ec_ab26_adca),
            (112, 0x3c6d_17e7_1b4b_618a),
            (120, 0x7486_e47e_a774_c50d),
            (128, 0xbc08_d451_ee9e_0e39),
        ]
    );
}

/// A tile's capacity, read through `touch` alone: fill it past capacity,
/// then walk back from the newest column until the first miss.
fn capacity(mut tile: TileManager) -> usize {
    const FILL: u32 = 1 << 16;
    for col in 0..FILL {
        tile.touch(col);
    }
    (0..FILL).rev().take_while(|&col| tile.touch(col)).count()
}

#[test]
fn tile_capacities_are_pinned() {
    let got: Vec<(usize, usize)> = dims()
        .map(|dim| (dim, capacity(TileManager::for_build(&Build::for_dim(dim).unwrap()))))
        .collect();
    assert_eq!(
        got,
        [
            (8, 10112),
            (16, 6080),
            (24, 4736),
            (32, 4064),
            (40, 3660),
            (48, 3392),
            (56, 3200),
            (64, 3056),
            (72, 2688),
            (80, 2406),
            (88, 2164),
            (96, 1962),
            (104, 1792),
            (112, 1654),
            (120, 1527),
            (128, 1416),
        ]
    );
}

#[test]
fn explore_points_are_pinned() {
    let mut got = Vec::new();
    for dim in [32, 64, 96] {
        for dev in [FpgaDevice::XCZU7EV, XCZU9EG, XCZU15EG] {
            let words = explore(&Build::for_dim(dim).unwrap(), &dev).into_iter().flat_map(|p| {
                let design =
                    [p.build.dim as u64, p.build.mac_lanes.into(), p.build.cache_banks.into()];
                let priced = [
                    p.build.port_bytes.into(),
                    p.walk_ms.to_bits(),
                    p.fits.into(),
                    p.est.dsp.into(),
                    p.est.bram36.into(),
                ];
                design.into_iter().chain(priced)
            });
            got.push((dim, dev.name, fnv(FNV_OFFSET, words)));
        }
    }
    assert_eq!(
        got,
        [
            (32, "XCZU7EV-2FFVC1156", 0x12e1_6983_63de_0de6),
            (32, "XCZU9EG", 0x5093_8236_5b9a_b197),
            (32, "XCZU15EG", 0xf328_af87_6466_1862),
            (64, "XCZU7EV-2FFVC1156", 0xdc4b_fe2f_f868_5cec),
            (64, "XCZU9EG", 0xcd10_832e_942a_9131),
            (64, "XCZU15EG", 0xfee5_b1ed_01b8_b035),
            (96, "XCZU7EV-2FFVC1156", 0x3c83_17f9_929c_75be),
            (96, "XCZU9EG", 0x9282_92ad_95dc_e583),
            (96, "XCZU15EG", 0x1f3b_3626_c4f5_ce93),
        ]
    );
}
