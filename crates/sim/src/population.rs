//! The pooled, non-stationary population wave: bounded agent residency,
//! user churn, preference drift and delayed rewards.
//!
//! Where the stationary streaming wave materializes one agent per user,
//! this driver runs the serving-layer shape end to end:
//!
//! 1. Every round, each *active* user (the set evolves under a
//!    [`p2b_datasets::ChurnProcess`]) observes a context, which is encoded
//!    and routed to the per-code agent held by a bounded
//!    [`p2b_core::AgentPool`] — evicting and rehydrating under the
//!    residency budget.
//! 2. The selected action becomes a pending decision in a
//!    [`p2b_core::RewardJoinBuffer`]; its reward is delivered up to
//!    `max_reward_delay` rounds later (or never — conversions get lost),
//!    and only *finalized* joins feed the agents' local updates and the
//!    randomized reporter path.
//! 3. Reports funneled through the pool stream into the sharded shuffler
//!    engine; delivered batches fold into the central model with (ε, δ)
//!    accounting, exactly like the stationary wave.
//!
//! The driver is deterministic: rounds are sequential, users are visited in
//! id order, the churn schedule owns its seeded RNG, reward-delivery delays
//! are a hash of the decision ticket, and join finalization is ticket-
//! ordered by construction.

use crate::{SimError, StreamingConfig, StreamingOutcome};
use p2b_bandit::Action;
use p2b_core::{AgentPool, AgentPoolConfig, P2bSystem, RewardJoinBuffer};
use p2b_datasets::{
    ChurnConfig, ChurnProcess, ContextualEnvironment, DriftConfig, DriftingPreferenceEnvironment,
    SyntheticConfig,
};
use p2b_linalg::Vector;
use p2b_shuffler::splitmix64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One recorded round of a pooled population wave.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationRoundPoint {
    /// One-based round index.
    pub round: u64,
    /// Users active (and interacting) this round.
    pub active_users: usize,
    /// Agents resident in the pool after the round.
    pub resident_agents: usize,
    /// Cumulative realized reward up to this round.
    pub cumulative_reward: f64,
    /// Cumulative pseudo-regret (vs. the per-round expected optimum).
    pub cumulative_regret: f64,
    /// Decisions finalized with a joined reward so far.
    pub joined: u64,
    /// Decisions expired without a reward so far.
    pub expired: u64,
}

/// The reward-side payload of a pending decision.
struct PendingFeedback {
    code: u64,
    context: Vector,
    action: Action,
}

fn user_rng(seed: u64, user: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ user.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
}

/// The delivery delay of a decision's reward: deterministic in the ticket.
/// With a zero join window every reward arrives in-round; otherwise delays
/// are uniform over `[0, max_delay + 1]`, where the `max_delay + 1` case
/// models feedback that never arrives (a lost conversion) and exercises the
/// buffer's expiry path.
fn delivery_delay(seed: u64, ticket: u64, max_delay: u64) -> Option<u64> {
    if max_delay == 0 {
        return Some(0);
    }
    let delay = splitmix64(seed ^ ticket.wrapping_mul(0xA24B_AED4_963E_E407)) % (max_delay + 2);
    (delay <= max_delay).then_some(delay)
}

/// Runs the pooled non-stationary wave; called by
/// [`crate::run_streaming_population`] when any non-stationary knob is set.
pub(crate) fn run_pooled_population(
    system: &mut P2bSystem,
    env_config: SyntheticConfig,
    config: StreamingConfig,
) -> Result<StreamingOutcome, SimError> {
    let rounds = config.interactions_per_user;
    let seed = config.seed;

    // The environment is always the drifting wrapper; a `None` drift knob
    // pins the shift at zero by using a period past the wave horizon.
    let period = config
        .drift
        .map_or(u64::MAX, |d: DriftConfig| d.period_rounds);
    let mut env = DriftingPreferenceEnvironment::new(
        env_config,
        DriftConfig::new(period),
        &mut StdRng::seed_from_u64(seed),
    )?;

    let mut churn = match config.churn {
        Some(knobs) => Some(ChurnProcess::new(
            ChurnConfig {
                initial_users: config.num_users,
                ..knobs
            },
            splitmix64(seed ^ 0xC0FF_EE00_5EED),
        )?),
        None => None,
    };
    let mut active: Vec<u64> = (0..config.num_users as u64).collect();

    let mut pool = AgentPool::new(AgentPoolConfig {
        max_resident_agents: config.max_resident_agents,
        shards: config.pool_shards,
    })?;
    let mut joiner: RewardJoinBuffer<PendingFeedback> =
        RewardJoinBuffer::new(config.max_reward_delay);
    // Reporter coin flips run on their own stream so reward-delivery timing
    // can never skew the selection-side randomness.
    let mut feedback_rng = StdRng::seed_from_u64(splitmix64(seed ^ 0xFEED_BACC));
    let mut user_rngs: BTreeMap<u64, StdRng> = BTreeMap::new();
    let mut deliveries: BTreeMap<u64, Vec<(p2b_core::DecisionTicket, f64)>> = BTreeMap::new();

    let handle = system.spawn_engine(seed)?;
    let mut series = Vec::with_capacity(rounds as usize);
    let mut cumulative_reward = 0.0f64;
    let mut cumulative_regret = 0.0f64;
    let mut interactions = 0u64;
    let mut submitted = 0u64;

    let apply_joined = |finalized: p2b_core::FinalizedRound<PendingFeedback>,
                        pool: &mut AgentPool,
                        system: &mut P2bSystem,
                        feedback_rng: &mut StdRng|
     -> Result<(), SimError> {
        for joined in finalized.joined {
            let PendingFeedback {
                code,
                context,
                action,
            } = joined.payload;
            pool.with_agent(system, code, |agent| {
                agent.observe_reward(&context, action, joined.reward, feedback_rng)
            })?;
        }
        Ok(())
    };

    for round in 0..rounds {
        if let Some(process) = churn.as_mut() {
            let events = process.next_round();
            // Departed ids are never reused, so their RNG streams are dead
            // weight — drop them to keep the driver's memory bounded too.
            for departed in &events.departures {
                user_rngs.remove(departed);
            }
            active = process.active_users().iter().copied().collect();
        }
        for &user in &active {
            let rng = user_rngs
                .entry(user)
                .or_insert_with(|| user_rng(seed, user));
            let context = env.sample_context(rng);
            let code = system.encoder().encode(&context)?.value() as u64;
            let action =
                pool.with_agent(system, code, |agent| agent.select_action(&context, rng))?;
            let reward = env.sample_reward(&context, action.index(), rng)?;
            let expected = env.expected_reward(&context, action.index())?;
            let optimal = env.optimal_reward(&context)?;
            cumulative_reward += reward;
            cumulative_regret += optimal - expected;
            interactions += 1;
            let ticket = joiner.record(PendingFeedback {
                code,
                context,
                action,
            });
            if let Some(delay) = delivery_delay(seed, ticket.value(), config.max_reward_delay) {
                deliveries
                    .entry(round + delay)
                    .or_default()
                    .push((ticket, reward));
            }
        }
        for (ticket, reward) in deliveries.remove(&round).unwrap_or_default() {
            joiner.join(ticket, reward).map_err(SimError::Core)?;
        }
        let finalized = joiner.advance_round();
        apply_joined(finalized, &mut pool, system, &mut feedback_rng)?;
        for report in pool.drain_reports() {
            submitted += 1;
            handle.submit(report)?;
        }
        env.advance_round();
        series.push(PopulationRoundPoint {
            round: round + 1,
            active_users: active.len(),
            resident_agents: pool.resident_agents(),
            cumulative_reward,
            cumulative_regret,
            joined: joiner.stats().joined,
            expired: joiner.stats().expired,
        });
    }

    // Trailing windows: rewards for late decisions still arrive and join.
    for round in rounds..rounds + config.max_reward_delay + 1 {
        for (ticket, reward) in deliveries.remove(&round).unwrap_or_default() {
            joiner.join(ticket, reward).map_err(SimError::Core)?;
        }
        let finalized = joiner.advance_round();
        apply_joined(finalized, &mut pool, system, &mut feedback_rng)?;
    }
    let finalized = joiner.finish();
    apply_joined(finalized, &mut pool, system, &mut feedback_rng)?;

    // Drain the pool so trailing reports reach the engine before it closes.
    pool.park_all();
    for report in pool.drain_reports() {
        submitted += 1;
        handle.submit(report)?;
    }

    let output = handle.finish();
    let mut round_stats = Vec::with_capacity(output.batches.len());
    for batch in &output.batches {
        round_stats.push(system.ingest_engine_batch(batch)?);
    }
    let ledger = output
        .ledger
        .expect("P2bSystem::spawn_engine always enables accounting");

    Ok(StreamingOutcome {
        round_stats,
        ledger,
        average_reward: if interactions == 0 {
            0.0
        } else {
            cumulative_reward / interactions as f64
        },
        interactions,
        submitted,
        series,
        pool: Some(*pool.stats()),
        joins: Some(*joiner.stats()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_streaming_population;
    use p2b_core::P2bConfig;
    use p2b_encoding::{KMeansConfig, KMeansEncoder};
    use std::sync::Arc;

    fn system(shards: usize) -> P2bSystem {
        let mut rng = StdRng::seed_from_u64(0);
        let env_config = SyntheticConfig::new(4, 3);
        let mut env =
            p2b_datasets::SyntheticPreferenceEnvironment::new(env_config, &mut rng).unwrap();
        let corpus: Vec<Vector> = (0..256).map(|_| env.sample_context(&mut rng)).collect();
        let encoder =
            Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(8), &mut rng).unwrap());
        let config = P2bConfig::new(4, 3)
            .with_local_interactions(2)
            .with_shuffler_threshold(1)
            .with_shuffler_shards(shards)
            .with_shuffler_batch_size(32);
        P2bSystem::new(config, encoder).unwrap()
    }

    fn non_stationary_config() -> StreamingConfig {
        StreamingConfig::new(24)
            .with_interactions_per_user(30) // 30 rounds
            .with_seed(11)
            .with_max_resident_agents(3)
            .with_pool_shards(2)
            .with_max_reward_delay(2)
            .with_churn(
                ChurnConfig::new(24)
                    .with_arrivals_per_mille(1500)
                    .with_departure_per_mille(60),
            )
            .with_drift(DriftConfig::new(10))
    }

    #[test]
    fn pooled_wave_conserves_reports_and_respects_the_budget() {
        let mut sys = system(1);
        let outcome = run_streaming_population(
            &mut sys,
            SyntheticConfig::new(4, 3),
            non_stationary_config(),
        )
        .unwrap();
        assert!(outcome.interactions > 0);
        let received: u64 = outcome.round_stats.iter().map(|s| s.received as u64).sum();
        assert_eq!(received, outcome.submitted, "engine must conserve reports");
        // Threshold 1: everything released and accepted.
        let accepted: u64 = outcome.round_stats.iter().map(|s| s.accepted).sum();
        assert_eq!(accepted, outcome.submitted);
        assert_eq!(sys.server().ingested_reports(), accepted);

        let pool = outcome.pool.expect("pooled shape reports pool stats");
        assert!(pool.evictions > 0, "a 3-agent budget must evict");
        assert!(pool.rehydrations > 0, "returning codes must rehydrate");
        let joins = outcome.joins.expect("pooled shape reports join stats");
        assert_eq!(
            joins.joined + joins.expired,
            joins.decisions,
            "every decision is accounted for"
        );
        assert!(joins.expired > 0, "the lost-conversion tail must appear");
        assert_eq!(outcome.series.len(), 30);
        for point in &outcome.series {
            assert!(
                point.resident_agents <= 3,
                "budget violated in round {}",
                point.round
            );
            assert!(point.active_users > 0);
        }
        // Churn happened: the active population moved off its initial size.
        assert!(
            outcome.series.iter().any(|p| p.active_users != 24),
            "population never changed under churn"
        );
    }

    #[test]
    fn pooled_wave_is_deterministic() {
        let run = || {
            let mut sys = system(2);
            run_streaming_population(
                &mut sys,
                SyntheticConfig::new(4, 3),
                non_stationary_config(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.series, b.series);
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.joins, b.joins);
        assert_eq!(
            a.average_reward.to_bits(),
            b.average_reward.to_bits(),
            "reward accounting must be bit-reproducible"
        );
    }

    #[test]
    fn stationary_knobs_off_keeps_the_legacy_shape() {
        let config = StreamingConfig::new(10).with_interactions_per_user(4);
        assert!(!config.is_non_stationary());
        let mut sys = system(1);
        let outcome =
            run_streaming_population(&mut sys, SyntheticConfig::new(4, 3), config).unwrap();
        assert!(outcome.series.is_empty(), "legacy shape records no series");
        assert!(outcome.pool.is_none());
        assert!(outcome.joins.is_none());
        assert_eq!(outcome.interactions, 40);
    }

    #[test]
    fn unbounded_pool_with_zero_delay_still_runs_the_pooled_shape() {
        // Drift alone selects the pooled driver; with no budget and no
        // delay the pool never evicts and every reward joins in-round.
        let config = StreamingConfig::new(12)
            .with_interactions_per_user(10)
            .with_seed(5)
            .with_drift(DriftConfig::new(4));
        let mut sys = system(1);
        let outcome =
            run_streaming_population(&mut sys, SyntheticConfig::new(4, 3), config).unwrap();
        let pool = outcome.pool.unwrap();
        assert_eq!(pool.evictions, 0);
        let joins = outcome.joins.unwrap();
        assert_eq!(joins.expired, 0, "zero delay loses nothing");
        assert_eq!(joins.joined, joins.decisions);
        assert_eq!(outcome.interactions, 120);
    }

    #[test]
    fn drift_degrades_a_frozen_policy_less_than_it_degrades_nothing() {
        // Sanity on the drift wiring: the same wave with faster drift ends
        // with at least as much cumulative regret (harder tracking problem).
        let regret = |period: u64| {
            let mut sys = system(1);
            let config = StreamingConfig::new(16)
                .with_interactions_per_user(40)
                .with_seed(9)
                .with_drift(DriftConfig::new(period));
            let outcome =
                run_streaming_population(&mut sys, SyntheticConfig::new(4, 3), config).unwrap();
            outcome.series.last().unwrap().cumulative_regret
        };
        let slow = regret(1000); // effectively stationary over 40 rounds
        let fast = regret(5);
        assert!(
            fast >= slow * 0.8,
            "fast drift ({fast:.3}) should not be dramatically easier than slow ({slow:.3})"
        );
    }
}
