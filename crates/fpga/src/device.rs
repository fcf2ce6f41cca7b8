//! Target-device resource inventory.

/// Programmable-logic resources of an FPGA device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FpgaDevice {
    /// Device name.
    pub name: &'static str,
    /// BRAM36 blocks (36 Kb each).
    pub bram36: u32,
    /// DSP48E2 slices.
    pub dsp: u32,
    /// Flip-flops.
    pub ff: u32,
    /// Look-up tables.
    pub lut: u32,
}

impl FpgaDevice {
    /// The paper's target: Zynq UltraScale+ XCZU7EV (ZCU104 board).
    /// Totals back-solved from Table 6's percentages (183 BRAM = 58.65 %,
    /// 1379 DSP = 79.80 %, 48609 FF = 10.55 %, 53330 LUT = 23.15 %) and
    /// consistent with the public datasheet (312 BRAM36, 1728 DSP,
    /// 460 800 FF, 230 400 LUT; §4.5 quotes the 11 Mb BRAM figure).
    pub const XCZU7EV: FpgaDevice =
        FpgaDevice { name: "XCZU7EV-2FFVC1156", bram36: 312, dsp: 1728, ff: 460_800, lut: 230_400 };

    /// Utilization percentages for an absolute usage vector.
    pub fn utilization(&self, bram36: u32, dsp: u32, ff: u32, lut: u32) -> Utilization {
        let pct = |used: u32, total: u32| 100.0 * used as f64 / total as f64;
        Utilization {
            bram_pct: pct(bram36, self.bram36),
            dsp_pct: pct(dsp, self.dsp),
            ff_pct: pct(ff, self.ff),
            lut_pct: pct(lut, self.lut),
        }
    }

    /// Whether a usage vector fits on the device.
    pub fn fits(&self, bram36: u32, dsp: u32, ff: u32, lut: u32) -> bool {
        bram36 <= self.bram36 && dsp <= self.dsp && ff <= self.ff && lut <= self.lut
    }
}

/// Resource utilization as percentages of the device.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Utilization {
    /// BRAM36 %.
    pub bram_pct: f64,
    /// DSP %.
    pub dsp_pct: f64,
    /// FF %.
    pub ff_pct: f64,
    /// LUT %.
    pub lut_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zcu7ev_matches_table6_backsolve() {
        let d = FpgaDevice::XCZU7EV;
        // Table 6 row d=32: 183 BRAM (58.65%), 1379 DSP (79.80%),
        // 48609 FF (10.55%), 53330 LUT (23.15%).
        let u = d.utilization(183, 1379, 48_609, 53_330);
        assert!((u.bram_pct - 58.65).abs() < 0.05, "bram {}", u.bram_pct);
        assert!((u.dsp_pct - 79.80).abs() < 0.05, "dsp {}", u.dsp_pct);
        assert!((u.ff_pct - 10.55).abs() < 0.05, "ff {}", u.ff_pct);
        assert!((u.lut_pct - 23.15).abs() < 0.05, "lut {}", u.lut_pct);
    }

    #[test]
    fn fits_checks_every_resource() {
        let d = FpgaDevice::XCZU7EV;
        assert!(d.fits(312, 1728, 460_800, 230_400));
        assert!(!d.fits(313, 0, 0, 0));
        assert!(!d.fits(0, 1729, 0, 0));
        assert!(!d.fits(0, 0, 460_801, 0));
        assert!(!d.fits(0, 0, 0, 230_401));
    }
}
