//! DRAM↔PL transfer model (the ZCU104's AXI HP port).
//!
//! §3.2: samples are pre-computed on the CPU and moved to the programmable
//! logic by a DMA controller; weight tiles move DRAM→BRAM before training
//! and back after. This module turns byte counts into cycle counts.

/// AXI burst-transfer model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DmaModel {
    /// Payload bytes moved per clock cycle once a burst is streaming
    /// (128-bit AXI4 @ the PL clock ⇒ 16 B; the HP ports run wider bursts
    /// with outstanding transactions ⇒ effective 32 B default).
    pub bytes_per_cycle: u32,
    /// Fixed cycles to open one burst (address phase + DRAM latency).
    pub burst_latency: u32,
    /// Maximum burst payload in bytes (AXI4 256-beat burst).
    pub max_burst_bytes: u32,
}

impl Default for DmaModel {
    fn default() -> Self {
        DmaModel { bytes_per_cycle: 32, burst_latency: 40, max_burst_bytes: 4096 }
    }
}

impl DmaModel {
    /// Cycles to move `bytes` as a contiguous transfer (split into bursts).
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let bursts = bytes.div_ceil(self.max_burst_bytes as u64);
        bursts * self.burst_latency as u64 + bytes.div_ceil(self.bytes_per_cycle as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(DmaModel::default().transfer_cycles(0), 0);
    }

    #[test]
    fn transfer_scales_linearly_in_payload() {
        let dma = DmaModel::default();
        let one = dma.transfer_cycles(4096);
        let four = dma.transfer_cycles(4 * 4096);
        assert_eq!(four, 4 * one);
    }
}
