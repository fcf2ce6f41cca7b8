//! Model and embedding persistence.
//!
//! The deployment story of the paper is an edge device that trains in the
//! field; checkpointing the model (β, P, and the hyper-parameters) is what
//! makes that survivable. The format is a small explicitly-versioned binary
//! layout (little-endian), independent of serde so the on-disk layout is a
//! documented contract:
//!
//! ```text
//! magic  "SGE1"            4 bytes
//! kind   u8                1 = embedding, 2 = OS-ELM model,
//!                          3 = fixed-point OS-ELM model
//! ---- embedding ----      rows u64, cols u64, f32[rows*cols]
//! ---- model --------      config JSON (u32 len + bytes), N u64, d u64,
//!                          beta word[N*d], p word[d*d]
//! ```
//!
//! Every section is a run of 4-byte little-endian words: `f32` for kinds 1
//! and 2, and for kind 3 the accelerator's *raw Q8.24 bits* — an f32
//! round-trip would perturb the low bits and break replay bit-identity. This
//! module owns the container for all three and moves words as `[u8; 4]`; what
//! a kind-3 word means is `seqge-backend`'s business.

use crate::oselm::{OsElmConfig, OsElmSkipGram};
use seqge_linalg::Mat;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"SGE1";
const KIND_EMBEDDING: u8 = 1;
/// Payload kind of a float OS-ELM model ([`write_oselm`]).
pub const KIND_OSELM: u8 = 2;
/// Payload kind of a fixed-point OS-ELM model: [`write_model`] over raw
/// Q8.24 bits.
pub const KIND_FIXED: u8 = 3;

fn invalid(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_words<W: Write>(w: &mut W, words: impl IntoIterator<Item = [u8; 4]>) -> io::Result<()> {
    for x in words {
        w.write_all(&x)?;
    }
    Ok(())
}

fn f32_words(xs: &[f32]) -> impl Iterator<Item = [u8; 4]> + '_ {
    xs.iter().map(|x| x.to_le_bytes())
}

/// Largest number of words any payload section may declare (embedding or β:
/// 2³¹ words = 8 GiB). Declared sizes above this are treated as corruption
/// rather than honored with a giant allocation.
const MAX_ELEMS: usize = 1 << 31;

/// Largest serialized-config blob [`read_model`] will accept; real configs
/// are well under a kilobyte, so anything bigger is a corrupt length field.
const MAX_CONFIG_BYTES: usize = 1 << 20;

fn read_words<T, R: Read>(r: &mut R, n: usize, word: fn([u8; 4]) -> T) -> io::Result<Vec<T>> {
    let byte_len = n.checked_mul(4).ok_or_else(|| invalid("element count overflows"))?;
    // Grow incrementally instead of trusting the declared length with one
    // up-front allocation: a corrupt header then fails with UnexpectedEof
    // after reading the (short) real payload, not by exhausting memory.
    let mut bytes = Vec::new();
    r.take(byte_len as u64).read_to_end(&mut bytes)?;
    if bytes.len() != byte_len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("payload truncated: expected {byte_len} bytes, found {}", bytes.len()),
        ));
    }
    Ok(bytes.chunks_exact(4).map(|c| word([c[0], c[1], c[2], c[3]])).collect())
}

/// Validates a declared `rows × cols` shape: no overflow, bounded total.
fn checked_shape(rows: usize, cols: usize, what: &str) -> io::Result<usize> {
    match rows.checked_mul(cols) {
        Some(n) if n <= MAX_ELEMS => Ok(n),
        _ => Err(invalid(format!("unreasonable {what} shape {rows}x{cols}"))),
    }
}

fn write_header<W: Write>(w: &mut W, kind: u8) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[kind])
}

/// Reads the SGE1 header (magic + kind byte) and returns the payload kind, so
/// a boot path can refuse a snapshot written by the wrong backend before
/// parsing it.
pub fn read_kind<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a seqge file"));
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    Ok(kind[0])
}

fn check_header<R: Read>(r: &mut R, kind: u8) -> io::Result<()> {
    match read_kind(r)? {
        k if k == kind => Ok(()),
        k => Err(invalid(format!("wrong payload kind {k} (expected {kind})"))),
    }
}

/// Writes an embedding matrix in the binary format.
pub fn write_embedding<W: Write>(emb: &Mat<f32>, mut w: W) -> io::Result<()> {
    write_header(&mut w, KIND_EMBEDDING)?;
    write_u64(&mut w, emb.rows() as u64)?;
    write_u64(&mut w, emb.cols() as u64)?;
    write_words(&mut w, f32_words(emb.as_slice()))
}

/// Reads an embedding matrix written by [`write_embedding`].
pub fn read_embedding<R: Read>(mut r: R) -> io::Result<Mat<f32>> {
    check_header(&mut r, KIND_EMBEDDING)?;
    let rows = read_u64(&mut r)? as usize;
    let cols = read_u64(&mut r)? as usize;
    let n = checked_shape(rows, cols, "embedding")?;
    Ok(Mat::from_vec(rows, cols, read_words(&mut r, n, f32::from_le_bytes)?))
}

/// Writes an embedding as TSV (`node<TAB>v0<TAB>v1…`), the interchange
/// format most downstream tools read.
pub fn write_embedding_tsv<W: Write>(emb: &Mat<f32>, mut w: W) -> io::Result<()> {
    for r in 0..emb.rows() {
        write!(w, "{r}")?;
        for &v in emb.row(r) {
            write!(w, "\t{v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// A model payload as [`read_model`] found it: well-formed as a container
/// (`beta` holds `num_nodes × d` words and `p` holds `d × d`, with `d` the
/// config's dimension), not yet validated as a model — that is the
/// constructor's job ([`OsElmSkipGram::from_parts`] for kind 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState<T> {
    /// The hyper-parameters the model was trained under.
    pub config: OsElmConfig,
    /// `N`, the rows of βᵀ.
    pub num_nodes: usize,
    /// βᵀ, row per node.
    pub beta: Vec<T>,
    /// `P`, row-major `d × d`.
    pub p: Vec<T>,
}

/// Serializes a model payload of `kind`: config, shape (`num_nodes` ×
/// `config.model.dim`), then `beta` and `p` word by word.
pub fn write_model<W: Write>(
    mut w: W,
    kind: u8,
    config: &OsElmConfig,
    num_nodes: usize,
    beta: impl IntoIterator<Item = [u8; 4]>,
    p: impl IntoIterator<Item = [u8; 4]>,
) -> io::Result<()> {
    write_header(&mut w, kind)?;
    let cfg = serde_json::to_vec(config).expect("config serializes");
    w.write_all(&(cfg.len() as u32).to_le_bytes())?;
    w.write_all(&cfg)?;
    write_u64(&mut w, num_nodes as u64)?;
    write_u64(&mut w, config.model.dim as u64)?;
    write_words(&mut w, beta)?;
    write_words(&mut w, p)
}

/// Reads a model payload of `kind` written by [`write_model`], decoding each
/// word with `word`. Any truncation, wrong magic or kind, oversized length
/// field, unparseable config or shape that disagrees with it is an error.
pub fn read_model<T, R: Read>(
    mut r: R,
    kind: u8,
    word: fn([u8; 4]) -> T,
) -> io::Result<ModelState<T>> {
    check_header(&mut r, kind)?;
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let cfg_len = u32::from_le_bytes(len) as usize;
    if cfg_len > MAX_CONFIG_BYTES {
        return Err(invalid(format!("unreasonable config length {cfg_len}")));
    }
    let mut cfg_bytes = vec![0u8; cfg_len];
    r.read_exact(&mut cfg_bytes)?;
    let config: OsElmConfig = serde_json::from_slice(&cfg_bytes).map_err(invalid)?;
    let num_nodes = read_u64(&mut r)? as usize;
    let cols = read_u64(&mut r)? as usize;
    if cols != config.model.dim {
        return Err(invalid("dim/config mismatch"));
    }
    let beta_n = checked_shape(num_nodes, cols, "beta")?;
    let p_n = checked_shape(cols, cols, "P")?;
    let beta = read_words(&mut r, beta_n, word)?;
    let p = read_words(&mut r, p_n, word)?;
    Ok(ModelState { config, num_nodes, beta, p })
}

/// Serializes a trained OS-ELM model (config + β + P).
pub fn write_oselm<W: Write>(model: &OsElmSkipGram, w: W) -> io::Result<()> {
    let (beta, p) = (model.beta_t(), model.p());
    write_model(
        w,
        KIND_OSELM,
        model.config(),
        beta.rows(),
        f32_words(beta.as_slice()),
        f32_words(p.as_slice()),
    )
}

/// Restores an OS-ELM model written by [`write_oselm`]. Training can resume
/// exactly where it stopped (β and P are the model's whole state).
pub fn read_oselm<R: Read>(r: R) -> io::Result<OsElmSkipGram> {
    let s = read_model(r, KIND_OSELM, f32::from_le_bytes)?;
    let d = s.config.model.dim;
    let (beta, p) = (Mat::from_vec(s.num_nodes, d, s.beta), Mat::from_vec(d, d, s.p));
    OsElmSkipGram::from_parts(beta, p, s.config).map_err(invalid)
}

/// File-path convenience wrappers.
pub fn save_oselm<P: AsRef<Path>>(model: &OsElmSkipGram, path: P) -> io::Result<()> {
    write_oselm(model, std::fs::File::create(path)?)
}

/// Loads an OS-ELM model from `path`.
pub fn load_oselm<P: AsRef<Path>>(path: P) -> io::Result<OsElmSkipGram> {
    read_oselm(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EmbeddingModel;
    use crate::sequential::train_all_scenario;
    use crate::TrainConfig;
    use seqge_graph::generators::classic::erdos_renyi;

    fn trained_model() -> OsElmSkipGram {
        let g = erdos_renyi(30, 0.2, 1);
        let mut cfg = TrainConfig::paper_defaults(8);
        cfg.walk.walk_length = 10;
        cfg.walk.walks_per_node = 2;
        let mut m = OsElmSkipGram::new(
            30,
            OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(8) },
        );
        train_all_scenario(&g, &mut m, &cfg, 1);
        m
    }

    #[test]
    fn embedding_binary_roundtrip() {
        let m = trained_model();
        let emb = m.embedding();
        let mut buf = Vec::new();
        write_embedding(&emb, &mut buf).unwrap();
        let back = read_embedding(&buf[..]).unwrap();
        assert_eq!(emb, back);
    }

    #[test]
    fn model_roundtrip_resumes_identically() {
        let m = trained_model();
        let mut buf = Vec::new();
        write_oselm(&m, &mut buf).unwrap();
        let back = read_oselm(&buf[..]).unwrap();
        assert_eq!(m.beta_t(), back.beta_t());
        assert_eq!(m.p(), back.p());
        assert_eq!(m.config(), back.config());
    }

    #[test]
    fn tsv_has_one_line_per_node() {
        let m = trained_model();
        let mut buf = Vec::new();
        write_embedding_tsv(&m.embedding(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 30);
        let first: Vec<&str> = text.lines().next().unwrap().split('\t').collect();
        assert_eq!(first.len(), 9); // id + 8 dims
        assert_eq!(first[0], "0");
    }

    #[test]
    fn rejects_wrong_magic_and_kind() {
        assert!(read_embedding(&b"NOPE"[..]).is_err());
        let m = trained_model();
        let mut buf = Vec::new();
        write_oselm(&m, &mut buf).unwrap();
        assert!(read_embedding(&buf[..]).is_err(), "kind mismatch must fail");
    }

    #[test]
    fn truncated_file_fails_cleanly() {
        let m = trained_model();
        let mut buf = Vec::new();
        write_oselm(&m, &mut buf).unwrap();
        assert!(read_oselm(&buf[..buf.len() / 2]).is_err());
    }

    #[test]
    fn rejects_unreasonable_config_length() {
        // Header + a 4 GiB config-length field: must error out immediately
        // instead of attempting the allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(KIND_OSELM);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_oselm(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("config length"));
    }

    #[test]
    fn rejects_unreasonable_shapes_without_allocating() {
        // Valid header + config, then a corrupt β shape claiming u64::MAX
        // rows: the reader must reject the shape, not allocate for it.
        let m = trained_model();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(KIND_OSELM);
        let cfg = serde_json::to_vec(m.config()).unwrap();
        buf.extend_from_slice(&(cfg.len() as u32).to_le_bytes());
        buf.extend_from_slice(&cfg);
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // rows
        buf.extend_from_slice(&(m.config().model.dim as u64).to_le_bytes()); // cols
        let err = read_oselm(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shape"));

        // Same for embeddings.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(KIND_EMBEDDING);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_embedding(&buf[..]).is_err());
    }

    #[test]
    fn corrupt_config_json_is_invalid_data() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(KIND_OSELM);
        let garbage = b"{not json";
        buf.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        buf.extend_from_slice(garbage);
        let err = read_oselm(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn declared_payload_longer_than_file_is_unexpected_eof() {
        // A plausible shape whose payload is missing: clean UnexpectedEof,
        // not a panic from a short buffer.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(KIND_EMBEDDING);
        buf.extend_from_slice(&100u64.to_le_bytes());
        buf.extend_from_slice(&100u64.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]); // far fewer than 100*100*4 bytes
        let err = read_embedding(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
