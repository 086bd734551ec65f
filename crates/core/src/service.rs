//! The central model service: in-thread ingestion of coalesced sufficient
//! statistics and epoch-versioned model snapshots.
//!
//! The paper's analyzer folds a stream of anonymized `(y, a, r)` tuples into
//! one central LinUCB model. At serving scale that fold is the hot path:
//! each report costs an `O(d²)` Sherman–Morrison update, and every agent
//! warm start used to rebuild a full copy of the model. The service fixes
//! both ends:
//!
//! ```text
//!   ShuffledBatch ──▶ coalesce by (code, action) ──▶ K ≤ N updates
//!                                                        │ fold in the
//!                                                        │ caller's thread
//!                                                        ▼
//!                         working LinUcb + dirty-arm bitmap
//!                                │ assemble (re-merge dirty arms)
//!                                ▼
//!                  Arc<ModelSnapshot { epoch, model }> ──▶ warm starts
//! ```
//!
//! * **Coalescing** — every report sharing a code shares the same context
//!   vector, so a batch of `N` reports over `K` distinct `(code, action)`
//!   pairs becomes `K` weighted rank-1 updates
//!   ([`p2b_bandit::LinUcb::update_batch_with`]) instead of `N` plain ones.
//! * **Incremental assembly** — the service remembers which arms each fold
//!   touched and re-merges only those into the persistent published model.
//! * **Epoch snapshots** — the server wraps each assembly in one
//!   [`ModelSnapshot`] per *epoch* (a counter bumped on every mutating
//!   ingest) and hands it out behind an `Arc`. All agents created within an
//!   epoch share one assembly.
//!
//! Determinism: updates fold in submission order in the caller's thread, so
//! the assembled model is a pure function of the ingested sequence.

use crate::CoreError;
use p2b_bandit::{
    Action, BanditError, CoalescedUpdate, F32Scorer, IngestScratch, LinUcb, LinUcbConfig,
};
use std::fmt;
use std::sync::OnceLock;

/// An immutable, epoch-versioned snapshot of the central model.
///
/// Snapshots are distributed behind an [`Arc`](std::sync::Arc): every agent
/// warm-started
/// within the same epoch holds a pointer to the *same* allocation, which is
/// what replaces the per-agent model clone of the pre-service design.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    epoch: u64,
    model: LinUcb,
    /// Lazily derived single-precision scoring tier, built at most once per
    /// snapshot the first time a caller asks for it. Agents' default select
    /// path stays on the f64 model — the determinism goldens pin that path —
    /// so the derivation cost is only paid by callers that opt in.
    f32_scorer: OnceLock<F32Scorer>,
}

impl ModelSnapshot {
    /// Wraps an assembled model with its epoch. Snapshots are published by
    /// [`crate::CentralServer::snapshot`].
    pub(crate) fn new(epoch: u64, model: LinUcb) -> Self {
        Self {
            epoch,
            model,
            f32_scorer: OnceLock::new(),
        }
    }

    /// The ingestion epoch this snapshot was assembled at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The assembled central model.
    #[must_use]
    pub fn model(&self) -> &LinUcb {
        &self.model
    }

    /// The snapshot's single-precision scoring tier, derived from the f64
    /// model on first use and shared by every subsequent caller.
    ///
    /// The snapshot is immutable, so the derived scorer can never go stale;
    /// the f64 [`ModelSnapshot::model`] remains the source of truth and the
    /// path the reproduction's determinism goldens exercise.
    #[must_use]
    pub fn f32_scorer(&self) -> &F32Scorer {
        self.f32_scorer.get_or_init(|| F32Scorer::new(&self.model))
    }
}

/// The central model service.
///
/// Owns one working [`LinUcb`] that [`ModelService::ingest`] folds into in
/// the caller's thread, and a persistent assembled model that
/// [`ModelService::assemble`] re-derives from it arm by arm. A fold error is
/// latched: the failing ingest returns it, and every later ingest or
/// assembly returns it again instead of publishing a half-folded model.
///
/// The service is deliberately model-only: validation against the encoder
/// and the code representation happens in [`crate::CentralServer`], which
/// also owns epoch bookkeeping and snapshot caching.
pub struct ModelService {
    /// The model every ingest folds into.
    working: LinUcb,
    scratch: IngestScratch,
    /// Arms folded into since the last assembly.
    dirty: Vec<bool>,
    /// The first fold error, if any.
    failure: Option<BanditError>,
    /// The persistent assembled model, re-merged incrementally: after the
    /// first full rebuild, each assembly resets and re-merges only the dirty
    /// arms. `None` until the first assembly, and reset to `None` if a
    /// re-merge fails partway (the next assembly then rebuilds in full).
    assembled: Option<LinUcb>,
}

impl ModelService {
    /// Creates an empty service for models of the given configuration.
    ///
    /// # Errors
    ///
    /// Propagates LinUCB configuration errors.
    pub fn new(config: LinUcbConfig) -> Result<Self, CoreError> {
        Ok(Self {
            working: LinUcb::new(config)?,
            scratch: IngestScratch::new(),
            dirty: vec![false; config.num_actions],
            failure: None,
            assembled: None,
        })
    }

    /// The latched fold error, if an ingest ever failed.
    fn healthy(&self) -> Result<(), CoreError> {
        match &self.failure {
            Some(error) => Err(CoreError::Bandit(error.clone())),
            None => Ok(()),
        }
    }

    /// Folds a batch of pre-validated coalesced updates into the working
    /// model, in order, through the scratch-threaded batch path (arena
    /// synced once per touched arm per batch), and marks the touched arms
    /// dirty.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Bandit`] for the first update that fails to
    /// fold, and latches it: the service refuses every later ingest and
    /// assembly with the same error. Both indicate a bug rather than bad
    /// input, since every update is validated before it reaches the service.
    pub fn ingest(&mut self, updates: &[CoalescedUpdate]) -> Result<(), CoreError> {
        self.healthy()?;
        // Arms folded before a mid-batch failure are still mutated (and
        // re-synced), so their dirty marks are kept either way.
        let result = self.working.update_batch_with(updates, &mut self.scratch);
        for &idx in self.scratch.touched() {
            if let Some(flag) = self.dirty.get_mut(idx) {
                *flag = true;
            }
        }
        if let Err(error) = result {
            self.failure = Some(error.clone());
            return Err(CoreError::Bandit(error));
        }
        Ok(())
    }

    /// Assembles the current central model, re-merging only the arms folded
    /// into since the previous assembly (see
    /// [`ModelService::assemble_with_dirty`]).
    ///
    /// # Errors
    ///
    /// Returns the latched fold error, if any.
    pub fn assemble(&mut self) -> Result<LinUcb, CoreError> {
        self.assemble_with_dirty().map(|(model, _)| model)
    }

    /// Incremental epoch assembly: re-merges only the dirty arms into the
    /// persistent assembled model and returns the model together with the
    /// sorted dirty arms.
    ///
    /// The first call performs a full from-scratch rebuild (`LinUcb::new` +
    /// [`LinUcb::merge`] of the working model) — exactly the historical
    /// assembly arithmetic, which also fixes never-updated arms' bit
    /// patterns to the post-merge Cholesky refresh. Every subsequent call
    /// resets each dirty arm to cold and re-merges it from the working model
    /// ([`LinUcb::reset_arm`] + [`LinUcb::merge_arm`]), which runs the
    /// identical per-arm arithmetic the full rebuild would — so the
    /// assembled model is bit-identical to a from-scratch rebuild
    /// ([`ModelService::assemble_reference`]) at every epoch, while the
    /// assembly cost scales with the number of *dirty* arms. Publication
    /// piggybacks on this: `LinUcb` stores its arms behind per-arm `Arc`s,
    /// so the returned clone shares every clean arm's storage with the
    /// previous epoch's snapshot.
    ///
    /// An arm is dirty iff an ingest folded an update into it since the
    /// previous successful assembly (the conservation property pinned by
    /// the `assembly_equivalence` suite).
    ///
    /// # Errors
    ///
    /// Returns the latched fold error, if any. If a re-merge fails partway,
    /// the persistent model is discarded so the next assembly falls back to
    /// a full rebuild instead of serving a half-merged state.
    pub fn assemble_with_dirty(&mut self) -> Result<(LinUcb, Vec<usize>), CoreError> {
        self.healthy()?;
        let dirty: Vec<usize> = self
            .dirty
            .iter()
            .enumerate()
            .filter_map(|(idx, &is_dirty)| is_dirty.then_some(idx))
            .collect();
        let assembled = match self.assembled.take() {
            None => self.assemble_reference()?,
            Some(mut assembled) => {
                for &arm in &dirty {
                    let action = Action::new(arm);
                    assembled.reset_arm(action)?;
                    assembled.merge_arm(action, &self.working)?;
                }
                assembled
            }
        };
        self.dirty.fill(false);
        let model = assembled.clone();
        self.assembled = Some(assembled);
        Ok((model, dirty))
    }

    /// From-scratch reference assembly: merges the working model into a
    /// cold model, without touching the persistent incremental state or the
    /// dirty tracking.
    ///
    /// This is the historical assembly path, preserved as the bit-exact
    /// reference the incremental path is pinned against (and the baseline
    /// the ingest benchmark measures assembly speedups from).
    ///
    /// # Errors
    ///
    /// Returns the latched fold error, if any.
    pub fn assemble_reference(&self) -> Result<LinUcb, CoreError> {
        self.healthy()?;
        let mut assembled = LinUcb::new(*self.working.config())?;
        assembled.merge(&self.working)?;
        Ok(assembled)
    }
}

impl fmt::Debug for ModelService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelService")
            .field("config", self.working.config())
            .field("failure", &self.failure)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2b_bandit::ContextualPolicy;
    use p2b_linalg::Vector;

    fn update(action: usize, count: u64, reward_sum: f64) -> CoalescedUpdate {
        CoalescedUpdate::new(
            Vector::from(vec![0.25, 0.75]),
            Action::new(action),
            count,
            reward_sum,
        )
        .unwrap()
    }

    #[test]
    fn empty_service_assembles_a_cold_model() {
        let mut service = ModelService::new(LinUcbConfig::new(2, 3)).unwrap();
        let model = service.assemble().unwrap();
        assert_eq!(model.observations(), 0);
        assert_eq!(model.context_dimension(), 2);
    }

    #[test]
    fn per_action_update_order_is_preserved_across_ingests() {
        // Two ingests hitting the same arm: the folded design is the ordered
        // sum either way, but pulls/observations must accumulate exactly.
        let mut service = ModelService::new(LinUcbConfig::new(2, 2)).unwrap();
        service.ingest(&[update(0, 4, 2.0)]).unwrap();
        service
            .ingest(&[update(0, 6, 3.0), update(1, 2, 2.0)])
            .unwrap();
        let model = service.assemble().unwrap();
        assert_eq!(model.pulls(Action::new(0)).unwrap(), 10);
        assert_eq!(model.pulls(Action::new(1)).unwrap(), 2);
        assert_eq!(model.observations(), 12);
    }

    #[test]
    fn snapshot_f32_scorer_is_built_once_and_agrees_with_the_model() {
        use p2b_bandit::{SelectScratch, SelectScratchF32};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut service = ModelService::new(LinUcbConfig::new(2, 4)).unwrap();
        service
            .ingest(&[update(0, 5, 4.0), update(2, 7, 7.0), update(3, 1, 1.0)])
            .unwrap();
        let snapshot = ModelSnapshot::new(1, service.assemble().unwrap());

        // Lazy + memoized: both calls hand back the same derived scorer.
        let first = snapshot.f32_scorer() as *const _;
        let second = snapshot.f32_scorer() as *const _;
        assert_eq!(first, second, "scorer must be derived at most once");

        // The derived tier serves the same actions as the f64 model here.
        let mut rng64 = StdRng::seed_from_u64(11);
        let mut rng32 = rng64.clone();
        let mut scratch64 = SelectScratch::new();
        let mut scratch32 = SelectScratchF32::new();
        for step in 0..64u64 {
            let ctx = Vector::from(vec![
                0.25 + (step % 5) as f64 * 0.1,
                0.75 - (step % 5) as f64 * 0.1,
            ]);
            let a64 = snapshot
                .model()
                .select_action_with(&ctx, &mut rng64, &mut scratch64)
                .unwrap();
            let a32 = snapshot
                .f32_scorer()
                .select_action_with(&ctx, &mut rng32, &mut scratch32)
                .unwrap();
            assert_eq!(a64, a32, "f32 tier diverged at step {step}");
        }

        // Cloned snapshots re-derive their own scorer lazily and still agree.
        let clone = snapshot.clone();
        assert_eq!(clone.epoch(), snapshot.epoch());
        let mut rng = StdRng::seed_from_u64(3);
        let mut rng_clone = rng.clone();
        let ctx = Vector::from(vec![0.5, 0.5]);
        assert_eq!(
            snapshot
                .f32_scorer()
                .select_action_with(&ctx, &mut rng, &mut scratch32)
                .unwrap(),
            clone
                .f32_scorer()
                .select_action_with(&ctx, &mut rng_clone, &mut scratch32)
                .unwrap()
        );
    }

    #[test]
    fn internal_shard_failures_surface_on_assemble() {
        let mut service = ModelService::new(LinUcbConfig::new(2, 2)).unwrap();
        service.ingest(&[update(1, 3, 1.0)]).unwrap();
        let published = service.assemble().unwrap();
        // A mis-dimensioned context slips past the (bypassed) validation,
        // after a well-formed update for arm 0 in the same batch.
        let bad = CoalescedUpdate::new(Vector::zeros(5), Action::new(0), 1, 0.0).unwrap();
        assert!(matches!(
            service.ingest(&[update(0, 2, 1.0), bad]),
            Err(CoreError::Bandit(_))
        ));
        // The half-folded working model is never published: every later
        // assembly and ingest reports the latched error.
        assert!(matches!(service.assemble(), Err(CoreError::Bandit(_))));
        assert!(matches!(
            service.assemble_reference(),
            Err(CoreError::Bandit(_))
        ));
        assert!(matches!(
            service.ingest(&[update(1, 1, 1.0)]),
            Err(CoreError::Bandit(_))
        ));
        assert_eq!(published.observations(), 3);
    }
}
