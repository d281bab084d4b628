//! Clustered synthetic prompt datasets.

use fmoe_model::{HistoryRequest, RequestRouting};
use fmoe_stats::rng::{hash_to_unit, normal_noise};
use serde::{Deserialize, Serialize};

/// One request prompt: routing identity plus token lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prompt {
    /// Dataset-unique prompt id.
    pub id: u64,
    /// Routing identity consumed by the gate simulator.
    pub routing: RequestRouting,
    /// Prompt (input) length in tokens.
    pub prompt_tokens: u64,
    /// Answer (output) length in tokens; the number of decode iterations.
    pub output_tokens: u64,
}

impl Prompt {
    /// Total iterations this prompt needs: one prefill + `output_tokens`
    /// decodes (the prefill iteration emits the first answer token, so a
    /// 1-token answer is prefill-only — matching §2.1).
    #[must_use]
    pub fn iterations(&self) -> u64 {
        1 + self.output_tokens.saturating_sub(1)
    }

    /// This prompt as a history request for a predictor's offline fill,
    /// every iteration included; the fill caps them.
    #[must_use]
    pub fn history_request(&self) -> HistoryRequest {
        HistoryRequest {
            routing: self.routing,
            prompt_tokens: self.prompt_tokens,
            iterations: self.iterations(),
        }
    }
}

/// Statistical description of a prompt dataset.
///
/// ```
/// use fmoe_workload::{split, DatasetSpec};
///
/// let dataset = DatasetSpec::lmsys_chat();
/// let prompts = dataset.prompts(100);
/// let (history, test) = split::paper_split(&prompts);
/// assert_eq!(history.len() + test.len(), 100);
/// // Deterministic: prompt 7 is always the same request.
/// assert_eq!(dataset.prompt(7), prompts[7]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name for reports.
    pub name: String,
    /// Number of semantic clusters (topics).
    pub num_clusters: u64,
    /// Zipf exponent of cluster popularity (`0.0` = uniform; larger =
    /// more skew toward popular topics).
    pub cluster_zipf: f64,
    /// Log-normal `μ` of the prompt length (natural-log tokens).
    pub prompt_len_mu: f64,
    /// Log-normal `σ` of the prompt length.
    pub prompt_len_sigma: f64,
    /// Minimum / maximum prompt tokens (clamp).
    pub prompt_len_range: (u64, u64),
    /// Log-normal `μ` of the output length.
    pub output_len_mu: f64,
    /// Log-normal `σ` of the output length.
    pub output_len_sigma: f64,
    /// Minimum / maximum output tokens (clamp).
    pub output_len_range: (u64, u64),
    /// Master seed; also namespaces the cluster ids so two datasets never
    /// share clusters.
    pub seed: u64,
}

impl DatasetSpec {
    /// LMSYS-Chat-1M-like: broad topical coverage (48 clusters, mildly
    /// skewed), conversational prompt lengths (median ≈ 90 tokens), short
    /// answers (median ≈ 120 tokens).
    #[must_use]
    pub fn lmsys_chat() -> Self {
        Self {
            name: "LMSYS-Chat-1M".into(),
            num_clusters: 48,
            cluster_zipf: 0.9,
            prompt_len_mu: 4.5,
            prompt_len_sigma: 0.9,
            prompt_len_range: (8, 2048),
            output_len_mu: 4.8,
            output_len_sigma: 0.7,
            output_len_range: (8, 512),
            seed: 0x11A5_0001,
        }
    }

    /// ShareGPT-like: curated longer conversations — fewer clusters (24),
    /// longer prompts (median ≈ 220 tokens) and longer answers.
    #[must_use]
    pub fn sharegpt() -> Self {
        Self {
            name: "ShareGPT".into(),
            num_clusters: 24,
            cluster_zipf: 0.7,
            prompt_len_mu: 5.4,
            prompt_len_sigma: 1.0,
            prompt_len_range: (16, 4096),
            output_len_mu: 5.2,
            output_len_sigma: 0.8,
            output_len_range: (16, 768),
            seed: 0x5117_0002,
        }
    }

    /// Both evaluation datasets, in the paper's order.
    #[must_use]
    pub fn evaluation_datasets() -> Vec<Self> {
        vec![Self::lmsys_chat(), Self::sharegpt()]
    }

    /// A tiny fast dataset for unit tests.
    #[must_use]
    pub fn tiny_test() -> Self {
        Self {
            name: "Tiny-Test".into(),
            num_clusters: 4,
            cluster_zipf: 0.5,
            prompt_len_mu: 3.0,
            prompt_len_sigma: 0.4,
            prompt_len_range: (4, 64),
            output_len_mu: 2.5,
            output_len_sigma: 0.4,
            output_len_range: (4, 32),
            seed: 0x7E57,
        }
    }

    /// Samples the cluster for prompt `id` from the Zipf popularity
    /// profile.
    fn sample_cluster(&self, id: u64) -> u64 {
        // Zipf via inverse-CDF over the finite cluster set.
        let u = hash_to_unit(&[self.seed, id, 0xC1]);
        let s = self.cluster_zipf;
        let weights: Vec<f64> = (1..=self.num_clusters)
            .map(|k| 1.0 / (k as f64).powf(s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for (i, w) in weights.iter().enumerate() {
            acc += w / total;
            if u <= acc {
                return i as u64;
            }
        }
        self.num_clusters - 1
    }

    fn sample_lognormal(&self, id: u64, tag: u64, mu: f64, sigma: f64, range: (u64, u64)) -> u64 {
        let z = normal_noise(&[self.seed, id, tag]);
        let v = (mu + sigma * z).exp();
        (v.round() as u64).clamp(range.0, range.1)
    }

    /// Generates prompt `id` of this dataset. Deterministic: the same
    /// `(spec, id)` always yields the same prompt.
    #[must_use]
    pub fn prompt(&self, id: u64) -> Prompt {
        let cluster = self.sample_cluster(id);
        Prompt {
            id,
            routing: RequestRouting {
                // Namespace clusters by dataset so LMSYS cluster 3 routes
                // differently from ShareGPT cluster 3.
                cluster: self.seed.wrapping_mul(0x1_0000).wrapping_add(cluster),
                request_seed: fmoe_stats::SplitMix64::mix(self.seed ^ id.wrapping_mul(0x9E37)),
            },
            prompt_tokens: self.sample_lognormal(
                id,
                TAG_PROMPT_LEN,
                self.prompt_len_mu,
                self.prompt_len_sigma,
                self.prompt_len_range,
            ),
            output_tokens: self.sample_lognormal(
                id,
                TAG_OUTPUT_LEN,
                self.output_len_mu,
                self.output_len_sigma,
                self.output_len_range,
            ),
        }
    }

    /// Generates the first `n` prompts.
    #[must_use]
    pub fn prompts(&self, n: u64) -> Vec<Prompt> {
        (0..n).map(|id| self.prompt(id)).collect()
    }
}

const TAG_PROMPT_LEN: u64 = 0x50;
const TAG_OUTPUT_LEN: u64 = 0x51;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn prompts_are_deterministic() {
        let d = DatasetSpec::lmsys_chat();
        assert_eq!(d.prompt(42), d.prompt(42));
        assert_ne!(d.prompt(42), d.prompt(43));
    }

    #[test]
    fn lengths_respect_ranges() {
        let d = DatasetSpec::sharegpt();
        for p in d.prompts(500) {
            assert!(p.prompt_tokens >= d.prompt_len_range.0);
            assert!(p.prompt_tokens <= d.prompt_len_range.1);
            assert!(p.output_tokens >= d.output_len_range.0);
            assert!(p.output_tokens <= d.output_len_range.1);
        }
    }

    #[test]
    fn cluster_popularity_is_skewed() {
        let d = DatasetSpec::lmsys_chat();
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for p in d.prompts(3000) {
            *counts.entry(p.routing.cluster).or_default() += 1;
        }
        assert!(counts.len() > 20, "should touch many clusters");
        let max = *counts.values().max().unwrap();
        let min_nonzero = *counts.values().min().unwrap();
        assert!(
            max > 3 * min_nonzero,
            "Zipf skew expected: {max} vs {min_nonzero}"
        );
    }

    #[test]
    fn datasets_use_disjoint_cluster_namespaces() {
        let a = DatasetSpec::lmsys_chat();
        let b = DatasetSpec::sharegpt();
        let ca: std::collections::HashSet<u64> =
            a.prompts(200).iter().map(|p| p.routing.cluster).collect();
        let cb: std::collections::HashSet<u64> =
            b.prompts(200).iter().map(|p| p.routing.cluster).collect();
        assert!(ca.is_disjoint(&cb));
    }

    #[test]
    fn sharegpt_prompts_are_longer_on_average() {
        let a = DatasetSpec::lmsys_chat();
        let b = DatasetSpec::sharegpt();
        let mean = |ps: &[Prompt]| {
            ps.iter().map(|p| p.prompt_tokens as f64).sum::<f64>() / ps.len() as f64
        };
        assert!(mean(&b.prompts(1000)) > mean(&a.prompts(1000)));
    }

    #[test]
    fn iterations_count_prefill_plus_decodes() {
        let p = Prompt {
            id: 0,
            routing: RequestRouting {
                cluster: 0,
                request_seed: 0,
            },
            prompt_tokens: 10,
            output_tokens: 5,
        };
        assert_eq!(p.iterations(), 5);
        let single = Prompt {
            output_tokens: 1,
            ..p
        };
        assert_eq!(single.iterations(), 1);
    }

    #[test]
    fn request_seeds_are_unique() {
        let d = DatasetSpec::tiny_test();
        let seeds: std::collections::HashSet<u64> = d
            .prompts(1000)
            .iter()
            .map(|p| p.routing.request_seed)
            .collect();
        assert_eq!(seeds.len(), 1000);
    }
}
