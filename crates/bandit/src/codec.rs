//! The LinUCB sufficient-statistics codec: one leaf layout, one encode and
//! one decode shared by every trust model that publishes a central model
//! from summed per-arm statistics.
//!
//! A contribution of `n` observations sharing context `x` with reward sum
//! `s` becomes the leaf `[n·vec(x xᵀ) | s·x | n]` (dimension `d² + d + 1`).
//! Leaves are additive: the sum of an arm's leaves is exactly that arm's
//! Gram block, reward vector and pull count. The central-DP curator sums
//! them through a noisy tree aggregator (Azize & Basu's tree-aggregated
//! private LinUCB), the secure-aggregation service through additive secret
//! shares (Hannun et al.); both hand the per-arm sums back to
//! [`StatisticsCodec::decode`] to publish a servable [`LinUcb`].

use crate::{BanditError, LinUcb, LinUcbConfig};
use p2b_linalg::{Matrix, RankOneInverse, Vector};

/// Largest ridge boost the SPD repair tries before giving up: doubling from
/// 1 reaches it after ~40 probes, long after the shift dominates any
/// eigenvalue a bounded leaf sum can produce.
const MAX_RIDGE_BOOST: f64 = 1e12;

/// Encodes contributions into additive per-arm statistics leaves and decodes
/// summed leaves into a servable [`LinUcb`].
///
/// # Example
///
/// ```
/// use p2b_bandit::{ContextualPolicy, LinUcbConfig, StatisticsCodec};
/// use p2b_linalg::Vector;
///
/// # fn main() -> Result<(), p2b_bandit::BanditError> {
/// let codec = StatisticsCodec::new(LinUcbConfig::new(2, 2))?;
/// // Arm 0 saw three observations at x = (0.6, 0.8) with reward sum 2.
/// let mut sums = codec.encode(&Vector::from(vec![0.6, 0.8]), 3, 2.0)?;
/// // Arm 1 saw nothing.
/// sums.extend(vec![0.0; codec.leaf_dimension()]);
/// let model = codec.decode(&sums)?;
/// assert_eq!(model.observations(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatisticsCodec {
    config: LinUcbConfig,
}

impl StatisticsCodec {
    /// Creates the codec for models of the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidConfig`] for an invalid configuration.
    pub fn new(config: LinUcbConfig) -> Result<Self, BanditError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration of the decoded models.
    #[must_use]
    pub fn config(&self) -> &LinUcbConfig {
        &self.config
    }

    /// The per-arm leaf dimension, `d² + d + 1`.
    #[must_use]
    pub fn leaf_dimension(&self) -> usize {
        let d = self.config.context_dimension;
        d * d + d + 1
    }

    /// Encodes `count` observations at `context` with total reward
    /// `reward_sum` as one leaf `[n·vec(x xᵀ) | s·x | n]`.
    ///
    /// The context is clipped to the unit L2 ball and the reward sum clamped
    /// to `[0, n]`, so every Gram and reward coordinate is bounded by the
    /// count `n`: a single observation's leaf has L2 norm at most `√3`.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::ContextDimensionMismatch`] when the context has
    /// the wrong dimension.
    pub fn encode(
        &self,
        context: &Vector,
        count: u64,
        reward_sum: f64,
    ) -> Result<Vec<f64>, BanditError> {
        let d = self.config.context_dimension;
        if context.len() != d {
            return Err(BanditError::ContextDimensionMismatch {
                expected: d,
                found: context.len(),
            });
        }
        let norm = context.norm2();
        let scale = if norm > 1.0 { 1.0 / norm } else { 1.0 };
        let count = count as f64;
        let reward_sum = reward_sum.clamp(0.0, count);
        let mut leaf = vec![0.0f64; self.leaf_dimension()];
        for i in 0..d {
            let xi = context[i] * scale;
            for j in 0..d {
                leaf[i * d + j] = count * (xi * (context[j] * scale));
            }
            leaf[d * d + i] = reward_sum * xi;
        }
        leaf[d * d + d] = count;
        Ok(leaf)
    }

    /// Decodes per-arm leaf sums (`num_actions` leaves back to back, in
    /// action order) into a servable model.
    ///
    /// Each arm's Gram block is symmetrized (noise need not be symmetric
    /// even though `x xᵀ` is), shifted by the ridge `λI`, and — while it is
    /// not positive definite — by an escalating extra ridge (Shariff &
    /// Sheffet 2018's shifted-regularizer repair). The inverse of the
    /// accepted probe becomes the arm's inverse, so every arm is factorized
    /// exactly once. The pull count is the rounded, non-negative count
    /// coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidConfig`] when `sums` does not hold
    /// exactly one leaf per arm, [`BanditError::NonFiniteStatistics`] when a
    /// coordinate is NaN or infinite, and [`BanditError::Linalg`] when a
    /// design stays indefinite up to the largest ridge boost.
    pub fn decode(&self, sums: &[f64]) -> Result<LinUcb, BanditError> {
        let d = self.config.context_dimension;
        let leaf_dimension = self.leaf_dimension();
        if sums.len() != self.config.num_actions * leaf_dimension {
            return Err(BanditError::InvalidConfig {
                parameter: "statistics",
                message: format!(
                    "expected {} arms x {leaf_dimension} leaf coordinates, got {}",
                    self.config.num_actions,
                    sums.len()
                ),
            });
        }
        let mut arms = Vec::with_capacity(self.config.num_actions);
        for (arm, leaf) in sums.chunks_exact(leaf_dimension).enumerate() {
            if leaf.iter().any(|value| !value.is_finite()) {
                return Err(BanditError::NonFiniteStatistics { arm });
            }
            let mut gram = Matrix::zeros(d, d);
            for i in 0..d {
                for j in 0..d {
                    gram.set(i, j, (leaf[i * d + j] + leaf[j * d + i]) / 2.0);
                }
            }
            let reward_vector = Vector::from(leaf[d * d..d * d + d].to_vec());
            let pulls = leaf[d * d + d].round().max(0.0) as u64;
            let mut boost = 0.0f64;
            let inverse = loop {
                let mut design = gram.clone();
                for i in 0..d {
                    design.set(i, i, design.get(i, i) + self.config.regularizer + boost);
                }
                match RankOneInverse::from_matrix(&design) {
                    Ok(inverse) => break inverse,
                    Err(_) if boost < MAX_RIDGE_BOOST => {
                        boost = if boost == 0.0 { 1.0 } else { boost * 2.0 };
                    }
                    Err(error) => return Err(error.into()),
                }
            };
            arms.push((inverse, reward_vector, pulls));
        }
        LinUcb::from_factored_arms(self.config, arms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, ArmStatistics, ContextualPolicy};

    fn codec(d: usize, arms: usize) -> StatisticsCodec {
        StatisticsCodec::new(LinUcbConfig::new(d, arms)).unwrap()
    }

    fn assert_bit_identical(a: &LinUcb, b: &LinUcb) {
        assert_eq!(a.observations(), b.observations());
        for arm in 0..a.config().num_actions {
            let action = Action::new(arm);
            assert_eq!(a.design(action).unwrap(), b.design(action).unwrap());
            assert_eq!(
                a.reward_vector(action).unwrap(),
                b.reward_vector(action).unwrap()
            );
            assert_eq!(a.pulls(action).unwrap(), b.pulls(action).unwrap());
        }
        let probe = Vector::from(vec![0.3; a.context_dimension()]);
        let sa = a.scores(&probe).unwrap();
        let sb = b.scores(&probe).unwrap();
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn count_weighted_round_trip_matches_from_sufficient_statistics() {
        let d = 3;
        let codec = codec(d, 2);
        let contributions = [
            (0usize, vec![0.6, 0.8, 0.0], 3u64, 2.0f64),
            (1, vec![0.0, 1.0, 0.0], 5, 4.5),
            (0, vec![0.3, 0.3, 0.9], 2, 0.5),
            (1, vec![2.0, 0.0, 0.0], 7, 6.0), // clipped to the unit ball
        ];
        let leaf_dimension = codec.leaf_dimension();
        let mut sums = vec![0.0f64; 2 * leaf_dimension];
        for (arm, context, count, reward_sum) in &contributions {
            let leaf = codec
                .encode(&Vector::from(context.clone()), *count, *reward_sum)
                .unwrap();
            for (total, value) in sums[arm * leaf_dimension..].iter_mut().zip(&leaf) {
                *total += value;
            }
        }
        let decoded = codec.decode(&sums).unwrap();

        // The same sums folded by hand into explicit statistics: the leaf
        // sums are exactly symmetric, so no repair is needed and decode must
        // reproduce `from_sufficient_statistics` bit for bit.
        let config = LinUcbConfig::new(d, 2);
        let statistics: Vec<ArmStatistics> = sums
            .chunks_exact(leaf_dimension)
            .map(|leaf| {
                let mut design = Matrix::zeros(d, d);
                for i in 0..d {
                    for j in 0..d {
                        design.set(i, j, leaf[i * d + j]);
                    }
                    design.set(i, i, design.get(i, i) + config.regularizer);
                }
                ArmStatistics {
                    design,
                    reward_vector: Vector::from(leaf[d * d..d * d + d].to_vec()),
                    pulls: leaf[d * d + d] as u64,
                }
            })
            .collect();
        let reference = LinUcb::from_sufficient_statistics(config, &statistics).unwrap();
        assert_bit_identical(&decoded, &reference);
        assert_eq!(decoded.observations(), 17);
    }

    #[test]
    fn single_observation_leaves_are_bounded_by_the_unit_ball() {
        let codec = codec(2, 1);
        let leaf = codec.encode(&Vector::from(vec![3.0, 4.0]), 1, 7.0).unwrap();
        let norm = leaf.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm <= 3f64.sqrt() + 1e-12, "leaf norm {norm}");
        assert_eq!(leaf[6], 1.0);
        // The reward sum is clamped to [0, n] = [0, 1].
        assert!((leaf[4] - 0.6).abs() < 1e-15 && (leaf[5] - 0.8).abs() < 1e-15);
    }

    #[test]
    fn encode_rejects_a_mis_dimensioned_context() {
        assert!(matches!(
            codec(3, 1).encode(&Vector::zeros(2), 1, 0.0),
            Err(BanditError::ContextDimensionMismatch {
                expected: 3,
                found: 2
            })
        ));
    }

    #[test]
    fn indefinite_gram_is_repaired_by_the_ridge_escalation() {
        let codec = codec(2, 1);
        // Gram with eigenvalues 3 and -5: λI alone (λ = 1) leaves it
        // indefinite; the repair must escalate until it is SPD.
        let sums = vec![-1.0, 4.0, 4.0, -1.0, 0.5, 0.5, 2.0];
        let model = codec.decode(&sums).unwrap();
        let design = model.design(Action::new(0)).unwrap();
        // The accepted boost is a power of two strictly above 4.
        let boost = design.get(0, 0) - (-1.0 + 1.0);
        assert!(boost > 4.0 && boost.log2().fract() == 0.0, "boost {boost}");
        assert_eq!(design.get(0, 1), 4.0);
        assert_eq!(model.pulls(Action::new(0)).unwrap(), 2);
        // A symmetric-part repair: noisy asymmetric off-diagonals average.
        let asymmetric = vec![2.0, 1.0, 3.0, 2.0, 0.0, 0.0, 1.0];
        let model = codec.decode(&asymmetric).unwrap();
        let design = model.design(Action::new(0)).unwrap();
        assert_eq!(design.get(0, 1), 2.0);
        assert_eq!(design.get(1, 0), 2.0);
    }

    #[test]
    fn non_finite_leaves_end_in_a_typed_error() {
        let codec = codec(2, 2);
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut sums = vec![0.0; 2 * codec.leaf_dimension()];
            sums[codec.leaf_dimension() + 1] = poison;
            assert_eq!(
                codec.decode(&sums).unwrap_err(),
                BanditError::NonFiniteStatistics { arm: 1 }
            );
        }
    }

    #[test]
    fn unrepairable_grams_error_after_a_bounded_escalation() {
        // An eigenvalue far below -MAX_RIDGE_BOOST cannot be shifted away.
        let sums = vec![-1e15, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0];
        assert!(matches!(
            codec(2, 1).decode(&sums),
            Err(BanditError::Linalg(_))
        ));
    }

    #[test]
    fn decode_rejects_mis_sized_sums() {
        assert!(matches!(
            codec(2, 2).decode(&[0.0; 7]),
            Err(BanditError::InvalidConfig { .. })
        ));
    }
}
