//! LLM model specifications.
//!
//! A [`ModelSpec`] carries everything the performance and memory models need:
//! parameter count, transformer shape (layers, KV heads, head size) for
//! KV-cache sizing, context limit, and numeric precision. Presets cover the
//! models used in the paper's evaluation (§IX-A, §IX-I1, §X).

use serde::{Deserialize, Serialize};

/// Numeric precision of the served weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 16-bit floating point (2 bytes/parameter) — the paper's default.
    Fp16,
    /// 4-bit AWQ-style quantization (0.5 bytes/parameter), §X.
    Int4,
}

impl Precision {
    /// Bytes of storage per parameter.
    pub fn bytes_per_param(self) -> f64 {
        match self {
            Precision::Fp16 => 2.0,
            Precision::Int4 => 0.5,
        }
    }
}

/// Architecture and size of an LLM.
///
/// ```
/// use hwmodel::ModelSpec;
/// let m = ModelSpec::llama2_7b();
/// // 6.7 B parameters at FP16 ≈ 13.5 GB of weights (paper §IV-B: "at least 14 GB").
/// assert!((m.weights_bytes() as f64 / 1e9 - 13.5).abs() < 0.5);
/// // Full-attention Llama-2: 0.5 MiB of KV-cache per token.
/// assert_eq!(m.kv_bytes_per_token(), 524_288);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Human-readable name, e.g. `"Llama-2-7B"`.
    pub name: String,
    /// Total parameter count.
    pub params: u64,
    /// Number of transformer layers.
    pub layers: u32,
    /// Number of key/value heads (equal to attention heads for MHA,
    /// smaller for GQA).
    pub kv_heads: u32,
    /// Dimensionality of each attention head.
    pub head_dim: u32,
    /// Model (hidden) dimension.
    pub hidden: u32,
    /// Maximum supported context length in tokens.
    pub max_context: u32,
    /// Weight precision.
    pub precision: Precision,
    /// Tensor-parallel degree this deployment is served at: the number of
    /// node slots (accelerators) one instance claims. 1 (the default)
    /// means a single-device instance; `k > 1` shards the weights across
    /// `k` devices of one node and pays the inter-device all-reduce
    /// overhead modeled by `AnalyticPerf::tp_comm_time`.
    pub tp_degree: u32,
}

impl ModelSpec {
    /// Llama-3.2-3B (GQA: 8 KV heads), the paper's "3B-sized" model.
    pub fn llama3_2_3b() -> Self {
        ModelSpec {
            name: "Llama-3.2-3B".into(),
            params: 3_210_000_000,
            layers: 28,
            kv_heads: 8,
            head_dim: 128,
            hidden: 3072,
            max_context: 8192,
            precision: Precision::Fp16,
            tp_degree: 1,
        }
    }

    /// Llama-2-7B (full MHA), the paper's primary workhorse.
    pub fn llama2_7b() -> Self {
        ModelSpec {
            name: "Llama-2-7B".into(),
            params: 6_740_000_000,
            layers: 32,
            kv_heads: 32,
            head_dim: 128,
            hidden: 4096,
            max_context: 4096,
            precision: Precision::Fp16,
            tp_degree: 1,
        }
    }

    /// Llama-3.1-8B (GQA, 32 K context) used for the dataset sweep (§IX-I1).
    pub fn llama3_1_8b() -> Self {
        ModelSpec {
            name: "Llama-3.1-8B".into(),
            params: 8_030_000_000,
            layers: 32,
            kv_heads: 8,
            head_dim: 128,
            hidden: 4096,
            max_context: 32_768,
            precision: Precision::Fp16,
            tp_degree: 1,
        }
    }

    /// Llama-2-13B (full MHA).
    pub fn llama2_13b() -> Self {
        ModelSpec {
            name: "Llama-2-13B".into(),
            params: 13_020_000_000,
            layers: 40,
            kv_heads: 40,
            head_dim: 128,
            hidden: 5120,
            max_context: 4096,
            precision: Precision::Fp16,
            tp_degree: 1,
        }
    }

    /// Codestral-22B, used in the quantization discussion (§X).
    pub fn codestral_22b() -> Self {
        ModelSpec {
            name: "Codestral-22B".into(),
            params: 22_200_000_000,
            layers: 56,
            kv_heads: 8,
            head_dim: 128,
            hidden: 6144,
            max_context: 8192,
            precision: Precision::Fp16,
            tp_degree: 1,
        }
    }

    /// CodeLlama-34B (GQA), served with tensor parallelism in §IX-E.
    pub fn codellama_34b() -> Self {
        ModelSpec {
            name: "CodeLlama-34B".into(),
            params: 33_700_000_000,
            layers: 48,
            kv_heads: 8,
            head_dim: 128,
            hidden: 8192,
            max_context: 4096,
            precision: Precision::Fp16,
            tp_degree: 1,
        }
    }

    /// Returns this spec converted to the given precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Returns this spec deployed at tensor-parallel degree `tp`: one
    /// instance claims `tp` slots (accelerators) of a node and pays the
    /// per-iteration all-reduce overhead. Degree 1 is the plain
    /// single-device deployment.
    ///
    /// # Panics
    /// Panics if `tp` is zero.
    pub fn with_tp(mut self, tp: u32) -> Self {
        assert!(tp > 0, "tensor-parallel degree must be at least 1");
        self.tp_degree = tp;
        self
    }

    /// Returns a renamed clone — used to stamp out the paper's replica
    /// model zoos ("32 replica models generated from Llama-3.2-3B").
    pub fn replica(&self, index: usize) -> Self {
        let mut m = self.clone();
        m.name = format!("{}#{index}", self.name);
        m
    }

    /// Bytes occupied by the model weights at the configured precision.
    pub fn weights_bytes(&self) -> u64 {
        (self.params as f64 * self.precision.bytes_per_param()) as u64
    }

    /// Bytes of KV-cache per token: `2 (K,V) · layers · kv_heads · head_dim ·
    /// 2 bytes` (the cache stays FP16 even for INT4 weights).
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * self.layers as u64 * self.kv_heads as u64 * self.head_dim as u64 * 2
    }

    /// Parameter count in billions (for display).
    pub fn params_b(&self) -> f64 {
        self.params as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_match_known_sizes() {
        // Paper §IV-B: 7B and 13B need "at least 14 GB and 26 GB".
        let w7 = ModelSpec::llama2_7b().weights_bytes() as f64 / 1e9;
        let w13 = ModelSpec::llama2_13b().weights_bytes() as f64 / 1e9;
        assert!((13.0..15.0).contains(&w7), "7B weights {w7} GB");
        assert!((25.0..27.0).contains(&w13), "13B weights {w13} GB");
        // §X: 22B weights alone consume 44 GB at FP16.
        let w22 = ModelSpec::codestral_22b().weights_bytes() as f64 / 1e9;
        assert!((43.0..46.0).contains(&w22), "22B weights {w22} GB");
    }

    #[test]
    fn int4_quarters_weights() {
        let fp16 = ModelSpec::codestral_22b();
        let int4 = fp16.clone().with_precision(Precision::Int4);
        assert_eq!(int4.weights_bytes(), fp16.weights_bytes() / 4);
        // KV stays FP16-sized.
        assert_eq!(int4.kv_bytes_per_token(), fp16.kv_bytes_per_token());
    }

    #[test]
    fn kv_bytes_per_token_shapes() {
        // Llama-2-7B MHA: 2*32*32*128*2 = 512 KiB/token.
        assert_eq!(ModelSpec::llama2_7b().kv_bytes_per_token(), 524_288);
        // Llama-2-13B MHA: 2*40*40*128*2 = 800 KiB/token.
        assert_eq!(ModelSpec::llama2_13b().kv_bytes_per_token(), 819_200);
        // GQA models are far cheaper per token.
        assert_eq!(ModelSpec::llama3_1_8b().kv_bytes_per_token(), 131_072);
        assert!(
            ModelSpec::llama3_2_3b().kv_bytes_per_token()
                < ModelSpec::llama2_7b().kv_bytes_per_token() / 4
        );
    }

    #[test]
    fn replicas_share_shape_but_not_name() {
        let base = ModelSpec::llama2_7b();
        let r = base.replica(5);
        assert_ne!(r.name, base.name);
        assert_eq!(r.weights_bytes(), base.weights_bytes());
    }

    #[test]
    fn tp_degree_defaults_to_one_and_survives_replication() {
        let base = ModelSpec::llama2_13b();
        assert_eq!(base.tp_degree, 1);
        let tp2 = base.with_tp(2);
        assert_eq!(tp2.tp_degree, 2);
        assert_eq!(tp2.replica(3).tp_degree, 2);
        // TP shards compute; the total weight/KV footprint is unchanged.
        assert_eq!(tp2.weights_bytes(), ModelSpec::llama2_13b().weights_bytes());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_tp_rejected() {
        let _ = ModelSpec::llama2_7b().with_tp(0);
    }
}
