//! Fixed-point model persistence: SGE1 payload kind 3.
//!
//! The fpga-sim backend's deterministic-replay state is the accelerator's
//! *raw Q8.24 words*. The container — header, config blob, shape, sections —
//! is `seqge_core::persist`'s; this module says what a kind-3 word is, hands
//! what a file held to [`Accelerator`]'s checked constructor, and reads the
//! kind byte alone so a boot path can refuse a snapshot written by the other
//! backend before parsing anything.

use seqge_core::model::EmbeddingModel;
use seqge_core::persist::{self, KIND_FIXED};
use seqge_fixed::Q8_24;
use seqge_fpga::Accelerator;
use std::fs::File;
use std::io;
use std::path::Path;

fn words(xs: &[Q8_24]) -> impl Iterator<Item = [u8; 4]> + '_ {
    xs.iter().map(|x| x.to_bits().to_le_bytes())
}

/// The payload kind of the SGE1 file at `path`.
pub fn sniff_kind(path: &Path) -> io::Result<u8> {
    persist::read_kind(&mut File::open(path)?)
}

/// Persists the accelerator's replay state (config + raw β + raw P).
pub fn save_fixed(acc: &Accelerator, path: &Path) -> io::Result<()> {
    persist::write_model(
        File::create(path)?,
        KIND_FIXED,
        acc.config(),
        acc.num_nodes(),
        words(acc.beta_bits()),
        words(acc.p_bits()),
    )
}

/// Restores an accelerator written by [`save_fixed`]; bit-identical
/// continuation (same raw words, same PerWalk-forced RNG schedule).
pub fn load_fixed(path: &Path) -> io::Result<Accelerator> {
    let s = persist::read_model(File::open(path)?, KIND_FIXED, |b| {
        Q8_24::from_bits(i32::from_le_bytes(b))
    })?;
    Accelerator::try_from_raw_parts(s.num_nodes, s.config, s.beta, s.p)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}
