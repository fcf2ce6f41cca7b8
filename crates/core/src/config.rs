//! Hyper-parameter configuration (paper Table 2).

use seqge_sampling::Node2VecParams;

/// How negative samples are drawn during a walk's training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NegativeMode {
    /// Fresh `ns` negatives for every positive sample — the software
    /// convention (word2vec / the paper's CPU models).
    PerPosition,
    /// One set of `ns` negatives drawn at the start of each walk and reused
    /// for every window — the accelerator's DRAM↔BRAM traffic optimization
    /// (§3.2, following Ji et al. \[10\]).
    PerWalk,
}

/// Per-model hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelConfig {
    /// Embedding dimension `d` (hidden-layer width). Paper: 32 / 64 / 96.
    pub dim: usize,
    /// Context window size `w`. Paper: 8.
    pub window: usize,
    /// Negative samples per positive, `ns`. Paper: 10.
    pub negative_samples: usize,
    /// Negative-draw mode.
    pub negative_mode: NegativeMode,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl ModelConfig {
    /// Table 2 defaults at embedding dimension `dim`.
    pub fn paper_defaults(dim: usize) -> Self {
        ModelConfig {
            dim,
            window: 8,
            negative_samples: 10,
            negative_mode: NegativeMode::PerPosition,
            seed: DEFAULT_SEED,
        }
    }

    /// Validates ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("embedding dimension must be positive".into());
        }
        if self.window < 2 {
            return Err("window must be at least 2".into());
        }
        if self.negative_samples == 0 {
            return Err("need at least one negative sample".into());
        }
        Ok(())
    }
}

/// Default weight-initialization seed used by [`ModelConfig::paper_defaults`].
pub const DEFAULT_SEED: u64 = 0x5e9_9e01;

/// Full training configuration: walk generation + model hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainConfig {
    /// node2vec walk parameters (`p`, `q`, `l`, `r`).
    pub walk: Node2VecParams,
    /// Model hyper-parameters.
    pub model: ModelConfig,
}

impl TrainConfig {
    /// The paper's full Table 2 configuration at dimension `dim`.
    pub fn paper_defaults(dim: usize) -> Self {
        TrainConfig { walk: Node2VecParams::default(), model: ModelConfig::paper_defaults(dim) }
    }

    /// Validates both halves.
    pub fn validate(&self) -> Result<(), String> {
        self.walk.validate()?;
        self.model.validate()?;
        if self.model.window > self.walk.walk_length {
            return Err("window cannot exceed walk length".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let c = TrainConfig::paper_defaults(32);
        assert_eq!(c.walk.p, 0.5);
        assert_eq!(c.walk.q, 1.0);
        assert_eq!(c.walk.walks_per_node, 10);
        assert_eq!(c.walk.walk_length, 80);
        assert_eq!(c.model.window, 8);
        assert_eq!(c.model.negative_samples, 10);
        assert_eq!(c.model.dim, 32);
    }

    #[test]
    fn validation() {
        assert!(TrainConfig::paper_defaults(64).validate().is_ok());
        let mut c = TrainConfig::paper_defaults(0);
        assert!(c.validate().is_err());
        c.model.dim = 8;
        c.model.window = 1;
        assert!(c.validate().is_err());
        c.model.window = 100;
        assert!(c.validate().is_err(), "window larger than walk length");
        c.model.window = 8;
        c.model.negative_samples = 0;
        assert!(c.validate().is_err());
    }
}
