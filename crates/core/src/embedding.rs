//! Embedding extraction.
//!
//! §3.1 lists three candidate weight sets for the embedding: the input-side
//! weights, the output-side weights, and their average. The proposed model
//! collapses the choice (input = μ·βᵀ), but the baselines keep it, and the
//! `fig6` harness ablates it via [`EmbeddingSource`].

use crate::oselm::AlphaOsElm;
use seqge_linalg::Mat;

/// Which weights to read the embedding from (§3.1's three options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum EmbeddingSource {
    /// Input-side weights (the usual skip-gram choice).
    Input,
    /// Output-side weights.
    Output,
    /// Elementwise average of both.
    Average,
}

/// Extracts the chosen embedding from the fixed-α OS-ELM baseline.
pub fn alpha_embedding(model: &AlphaOsElm, source: EmbeddingSource) -> Mat<f32> {
    match source {
        EmbeddingSource::Input => model.alpha().clone(),
        EmbeddingSource::Output => model.beta_t().clone(),
        EmbeddingSource::Average => {
            let mut avg = model.alpha().clone();
            for (a, &b) in avg.as_mut_slice().iter_mut().zip(model.beta_t().as_slice()) {
                *a = (*a + b) * 0.5;
            }
            avg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oselm::OsElmConfig;

    #[test]
    fn alpha_sources() {
        let cfg = OsElmConfig::paper_defaults(4);
        let m = AlphaOsElm::new(8, cfg);
        let input = alpha_embedding(&m, EmbeddingSource::Input);
        let output = alpha_embedding(&m, EmbeddingSource::Output);
        assert_eq!(input, *m.alpha());
        assert!(output.as_slice().iter().all(|&x| x == 0.0), "β starts at zero");
    }
}
