//! Storage accounting with parameter sharing (Eq. 7).
//!
//! The bytes a server must provision for a set of cached models is the size
//! of the *union* of their parameter blocks:
//!
//! ```text
//! g_m(X_m) = Σ_{j ∈ J} D'_j · [ 1 − Π_{i ∈ I_j} (1 − x_{m,i}) ]
//! ```
//!
//! [`StorageTracker`] maintains that quantity incrementally for one server
//! as models are added or removed, exposing the *marginal* cost of adding a
//! model — the primitive both TrimCaching algorithms and the Independent
//! Caching baseline are built from. The Independent baseline uses
//! [`StorageTracker::naive_used_bytes`], which charges every model its full
//! size regardless of sharing.

use trimcaching_modellib::{BlockId, ModelId, ModelLibrary};

use crate::error::ScenarioError;

/// Incremental storage accounting for a single edge server.
#[derive(Debug, Clone)]
pub struct StorageTracker<'a> {
    library: &'a ModelLibrary,
    capacity_bytes: u64,
    /// Reference count per block (how many cached models contain it).
    block_refcount: Vec<u32>,
    /// Deduplicated bytes currently used (Eq. 7).
    used_bytes: u64,
    /// Sum of full model sizes currently cached (sharing-oblivious bytes).
    naive_used_bytes: u64,
    /// Models currently cached.
    cached: Vec<bool>,
}

impl<'a> StorageTracker<'a> {
    /// Creates an empty tracker for a server with the given capacity.
    pub fn new(library: &'a ModelLibrary, capacity_bytes: u64) -> Self {
        Self {
            library,
            capacity_bytes,
            block_refcount: vec![0; library.num_blocks()],
            used_bytes: 0,
            naive_used_bytes: 0,
            cached: vec![false; library.num_models()],
        }
    }

    /// The server capacity `Q_m` in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Deduplicated bytes currently used (`g_m` of the cached set).
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes used if every cached model were stored without sharing.
    pub fn naive_used_bytes(&self) -> u64 {
        self.naive_used_bytes
    }

    /// Remaining capacity in bytes under shared storage.
    pub fn remaining_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.used_bytes)
    }

    /// Whether the model is currently cached.
    pub fn contains(&self, model: ModelId) -> bool {
        self.cached.get(model.index()).copied().unwrap_or(false)
    }

    /// How many cached models reference block `j` (zero for unknown
    /// blocks). Block-granular caches use this to tell which of a
    /// model's blocks are marginal (refcount zero — their bytes must
    /// move over the backhaul) versus already provisioned by another
    /// cached model.
    pub fn block_refcount(&self, block: BlockId) -> u32 {
        self.block_refcount.get(block.index()).copied().unwrap_or(0)
    }

    /// The models currently cached, in ascending order.
    pub fn cached_models(&self) -> Vec<ModelId> {
        self.cached
            .iter()
            .enumerate()
            .filter(|(_, c)| **c)
            .map(|(i, _)| ModelId(i))
            .collect()
    }

    /// Marginal (deduplicated) bytes needed to add `model`: the sizes of its
    /// blocks not already stored. Zero if the model is already cached.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn marginal_bytes(&self, model: ModelId) -> Result<u64, ScenarioError> {
        if self.contains(model) {
            return Ok(0);
        }
        let mut extra = 0u64;
        for &b in self.library.model(model)?.blocks() {
            if self.block_refcount[b.index()] == 0 {
                extra += self.library.block_size_bytes(b)?;
            }
        }
        Ok(extra)
    }

    /// Whether adding `model` keeps the deduplicated usage within capacity.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn fits(&self, model: ModelId) -> Result<bool, ScenarioError> {
        Ok(self.used_bytes + self.marginal_bytes(model)? <= self.capacity_bytes)
    }

    /// Adds `model` to the cache (regardless of capacity — callers that
    /// enforce the constraint should check [`StorageTracker::fits`] first).
    /// Returns the marginal bytes that were actually added.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn add(&mut self, model: ModelId) -> Result<u64, ScenarioError> {
        if self.contains(model) {
            return Ok(0);
        }
        let marginal = self.marginal_bytes(model)?;
        for &b in self.library.model(model)?.blocks() {
            self.block_refcount[b.index()] += 1;
        }
        self.used_bytes += marginal;
        self.naive_used_bytes += self.library.model_size_bytes(model)?;
        self.cached[model.index()] = true;
        Ok(marginal)
    }

    /// Bytes that removing `model` would free — the sizes of its blocks
    /// referenced by no other cached model. Zero if the model is not
    /// cached. This is the read-only counterpart of
    /// [`StorageTracker::remove`], used by online eviction policies to
    /// rank victims without mutating the cache: a model whose blocks are
    /// all shared with other cached models frees nothing and is free to
    /// keep.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn release_bytes(&self, model: ModelId) -> Result<u64, ScenarioError> {
        if !self.contains(model) {
            return Ok(0);
        }
        let mut freed = 0u64;
        for &b in self.library.model(model)?.blocks() {
            if self.block_refcount[b.index()] == 1 {
                freed += self.library.block_size_bytes(b)?;
            }
        }
        Ok(freed)
    }

    /// Removes `model` from the cache, returning the bytes freed (blocks no
    /// longer referenced by any cached model).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown model.
    pub fn remove(&mut self, model: ModelId) -> Result<u64, ScenarioError> {
        if !self.contains(model) {
            return Ok(0);
        }
        let mut freed = 0u64;
        for &b in self.library.model(model)?.blocks() {
            self.block_refcount[b.index()] -= 1;
            if self.block_refcount[b.index()] == 0 {
                freed += self.library.block_size_bytes(b)?;
            }
        }
        self.used_bytes -= freed;
        self.naive_used_bytes -= self.library.model_size_bytes(model)?;
        self.cached[model.index()] = false;
        Ok(freed)
    }
}

/// Computes `g_m` (Eq. 7) for an arbitrary model set without building a
/// tracker — a convenience wrapper over
/// [`ModelLibrary::union_size_bytes`].
pub fn shared_storage_bytes<It>(library: &ModelLibrary, models: It) -> u64
where
    It: IntoIterator<Item = ModelId>,
{
    library.union_size_bytes(models)
}

/// Sum of full model sizes for an arbitrary model set — the
/// sharing-oblivious storage charge used by the Independent Caching
/// baseline.
pub fn independent_storage_bytes<It>(library: &ModelLibrary, models: It) -> u64
where
    It: IntoIterator<Item = ModelId>,
{
    models
        .into_iter()
        .filter_map(|m| library.model_size_bytes(m).ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimcaching_modellib::ModelLibrary;

    fn library() -> ModelLibrary {
        let mut b = ModelLibrary::builder();
        b.add_model_with_blocks("m0", "t", &[("shared".into(), 100), ("m0/own".into(), 10)])
            .unwrap();
        b.add_model_with_blocks("m1", "t", &[("shared".into(), 100), ("m1/own".into(), 20)])
            .unwrap();
        b.add_model_with_blocks("m2", "t", &[("m2/own".into(), 50)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn marginal_cost_accounts_for_already_cached_blocks() {
        let lib = library();
        let mut t = StorageTracker::new(&lib, 1_000);
        assert_eq!(t.marginal_bytes(ModelId(0)).unwrap(), 110);
        t.add(ModelId(0)).unwrap();
        // m1 shares the 100-byte block, so only its own 20 bytes are new.
        assert_eq!(t.marginal_bytes(ModelId(1)).unwrap(), 20);
        assert_eq!(t.marginal_bytes(ModelId(2)).unwrap(), 50);
        // Adding an already-cached model costs nothing.
        assert_eq!(t.marginal_bytes(ModelId(0)).unwrap(), 0);
        assert_eq!(t.add(ModelId(0)).unwrap(), 0);
    }

    #[test]
    fn a_blocked_model_stays_blocked_as_models_are_added() {
        // used + marginal(i) is the union size of the cached blocks and
        // i's blocks, so adds never lower it: the lazy greedy relies on
        // this to drop a pair that does not fit for the rest of a solve.
        let lib = library();
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for capacity in (0..=300).step_by(5) {
            for order in orders {
                let mut t = StorageTracker::new(&lib, capacity);
                let mut blocked = [false; 3];
                for next in order {
                    for (i, was_blocked) in blocked.iter_mut().enumerate() {
                        let fits = t.fits(ModelId(i)).unwrap();
                        assert!(
                            !(*was_blocked && fits),
                            "model {i} fits again at capacity {capacity}, order {order:?}"
                        );
                        *was_blocked = !fits;
                    }
                    t.add(ModelId(next)).unwrap();
                }
            }
        }
    }

    #[test]
    fn used_bytes_tracks_union_size() {
        let lib = library();
        let mut t = StorageTracker::new(&lib, 1_000);
        t.add(ModelId(0)).unwrap();
        t.add(ModelId(1)).unwrap();
        assert_eq!(t.used_bytes(), 130);
        assert_eq!(t.naive_used_bytes(), 110 + 120);
        assert_eq!(
            t.used_bytes(),
            shared_storage_bytes(&lib, [ModelId(0), ModelId(1)])
        );
        assert_eq!(
            t.naive_used_bytes(),
            independent_storage_bytes(&lib, [ModelId(0), ModelId(1)])
        );
        assert_eq!(t.remaining_bytes(), 870);
        assert_eq!(t.cached_models(), vec![ModelId(0), ModelId(1)]);
    }

    #[test]
    fn release_bytes_predicts_removal() {
        let lib = library();
        let mut t = StorageTracker::new(&lib, 1_000);
        t.add(ModelId(0)).unwrap();
        t.add(ModelId(1)).unwrap();
        // m0's shared block is still referenced by m1: only its own 10
        // bytes would come back.
        assert_eq!(t.release_bytes(ModelId(0)).unwrap(), 10);
        assert_eq!(t.release_bytes(ModelId(1)).unwrap(), 20);
        // Not cached -> nothing to free.
        assert_eq!(t.release_bytes(ModelId(2)).unwrap(), 0);
        let predicted = t.release_bytes(ModelId(0)).unwrap();
        assert_eq!(t.remove(ModelId(0)).unwrap(), predicted);
        // With m0 gone, removing m1 frees the shared block too.
        assert_eq!(t.release_bytes(ModelId(1)).unwrap(), 120);
        // Unknown ids short-circuit on the contains() check, like remove().
        assert_eq!(t.release_bytes(ModelId(9)).unwrap(), 0);
    }

    #[test]
    fn removal_frees_only_unreferenced_blocks() {
        let lib = library();
        let mut t = StorageTracker::new(&lib, 1_000);
        t.add(ModelId(0)).unwrap();
        t.add(ModelId(1)).unwrap();
        // Removing m0 keeps the shared block because m1 still needs it.
        let freed = t.remove(ModelId(0)).unwrap();
        assert_eq!(freed, 10);
        assert_eq!(t.used_bytes(), 120);
        // Removing m1 now frees the shared block too.
        let freed = t.remove(ModelId(1)).unwrap();
        assert_eq!(freed, 120);
        assert_eq!(t.used_bytes(), 0);
        assert_eq!(t.naive_used_bytes(), 0);
        // Removing an absent model is a no-op.
        assert_eq!(t.remove(ModelId(2)).unwrap(), 0);
    }

    #[test]
    fn fits_respects_shared_capacity() {
        let lib = library();
        let mut t = StorageTracker::new(&lib, 130);
        assert!(t.fits(ModelId(0)).unwrap());
        t.add(ModelId(0)).unwrap();
        // m1 needs only 20 extra bytes -> still fits in 130.
        assert!(t.fits(ModelId(1)).unwrap());
        t.add(ModelId(1)).unwrap();
        // m2 needs 50 more -> exceeds 130.
        assert!(!t.fits(ModelId(2)).unwrap());
        assert_eq!(t.capacity_bytes(), 130);
    }

    #[test]
    fn block_refcounts_follow_adds_and_removes() {
        let lib = library();
        let mut t = StorageTracker::new(&lib, 1_000);
        assert_eq!(t.block_refcount(BlockId(0)), 0);
        t.add(ModelId(0)).unwrap();
        t.add(ModelId(1)).unwrap();
        // Block 0 is the shared block of m0 and m1.
        assert_eq!(t.block_refcount(BlockId(0)), 2);
        t.remove(ModelId(0)).unwrap();
        assert_eq!(t.block_refcount(BlockId(0)), 1);
        // Unknown blocks report zero instead of erroring.
        assert_eq!(t.block_refcount(BlockId(99)), 0);
    }

    #[test]
    fn unknown_models_error() {
        let lib = library();
        let mut t = StorageTracker::new(&lib, 100);
        assert!(t.marginal_bytes(ModelId(9)).is_err());
        assert!(t.add(ModelId(9)).is_err());
        assert!(t.fits(ModelId(9)).is_err());
        assert!(!t.contains(ModelId(9)));
        // remove() short-circuits on the contains() check for unknown ids.
        assert_eq!(t.remove(ModelId(9)).unwrap(), 0);
    }

    #[test]
    fn helpers_ignore_unknown_ids() {
        let lib = library();
        assert_eq!(independent_storage_bytes(&lib, [ModelId(42)]), 0);
        assert_eq!(shared_storage_bytes(&lib, [ModelId(42)]), 0);
    }
}
