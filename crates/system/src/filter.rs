//! Region-based snoop/prediction filter (§5.3).
//!
//! The paper notes that ~70% of SP-prediction's bandwidth overhead comes
//! from predicting misses that turn out to be non-communicating, and that
//! simple region-tracking snoop filters (RegionScout-style) can detect most
//! of them. [`RegionTracker`] maintains, per aligned region, which cores
//! currently cache any block of it; a miss to a region that no *other* core
//! touches skips the predicted requests entirely.

use spcp_mem::BlockAddr;
use spcp_sim::{CoreId, CoreSet, FlatMap};

/// Blocks per tracked region (64 blocks × 64 B = 4 KB regions).
pub const REGION_BLOCKS: u64 = 64;

// `RegionTracker::count_key` packs `(region, core)` into one `u64`.
const _: () = assert!(REGION_BLOCKS >= CoreSet::MAX_CORES as u64);

/// Tracks, for every region with at least one cached block, the set of
/// cores holding blocks of it (with per-core block counts so departures are
/// exact).
///
/// Both tables are open-addressing [`FlatMap`]s: the tracker is updated on
/// every L2 fill and drop while the filter is on, so each update costs one
/// multiplicative hash and a short probe.
///
/// # Examples
///
/// ```
/// use spcp_system::filter::RegionTracker;
/// use spcp_mem::BlockAddr;
/// use spcp_sim::CoreId;
///
/// let mut t = RegionTracker::new();
/// let b = BlockAddr::from_index(5);
/// t.on_fill(CoreId::new(0), b);
/// assert!(!t.others_share_region(CoreId::new(0), b));
/// assert!(t.others_share_region(CoreId::new(1), b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RegionTracker {
    /// `region × MAX_CORES + core -> cached block count`.
    counts: FlatMap<u32>,
    /// `region -> cores with at least one cached block`.
    sharers: FlatMap<CoreSet>,
}

impl RegionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        RegionTracker::default()
    }

    fn region_of(block: BlockAddr) -> u64 {
        block.index() / REGION_BLOCKS
    }

    /// Key of `core`'s block count in `region`. Cannot overflow: a
    /// region index is below 2⁶⁴ / `REGION_BLOCKS`, which is at most
    /// 2⁶⁴ / `MAX_CORES`.
    fn count_key(region: u64, core: CoreId) -> u64 {
        region * CoreSet::MAX_CORES as u64 + core.index() as u64
    }

    /// Records that `core` now caches `block`.
    pub fn on_fill(&mut self, core: CoreId, block: BlockAddr) {
        let region = Self::region_of(block);
        let count = self
            .counts
            .get_or_insert_with(Self::count_key(region, core), || 0);
        *count += 1;
        if *count == 1 {
            self.sharers
                .get_or_insert_with(region, CoreSet::empty)
                .insert(core);
        }
    }

    /// Records that `core` dropped `block` (eviction or invalidation).
    ///
    /// Unmatched drops are ignored (idempotent with respect to blocks the
    /// tracker never saw filled).
    pub fn on_drop(&mut self, core: CoreId, block: BlockAddr) {
        let region = Self::region_of(block);
        let key = Self::count_key(region, core);
        if let Some(count) = self.counts.get_mut(key) {
            *count -= 1;
            if *count == 0 {
                self.counts.remove(key);
                if let Some(s) = self.sharers.get_mut(region) {
                    s.remove(core);
                    if s.is_empty() {
                        self.sharers.remove(region);
                    }
                }
            }
        }
    }

    /// Whether any core other than `requester` caches a block of the
    /// region containing `block`. When `false`, a miss there cannot be a
    /// communicating miss, so prediction is pure waste.
    pub fn others_share_region(&self, requester: CoreId, block: BlockAddr) -> bool {
        let region = Self::region_of(block);
        match self.sharers.get(region) {
            Some(s) => {
                let mut others = *s;
                others.remove(requester);
                !others.is_empty()
            }
            None => false,
        }
    }

    /// Number of regions currently tracked.
    pub fn tracked_regions(&self) -> usize {
        self.sharers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    fn core(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn empty_region_has_no_sharers() {
        let t = RegionTracker::new();
        assert!(!t.others_share_region(core(0), blk(0)));
        assert_eq!(t.tracked_regions(), 0);
    }

    #[test]
    fn own_blocks_do_not_count_as_others() {
        let mut t = RegionTracker::new();
        t.on_fill(core(2), blk(10));
        t.on_fill(core(2), blk(11));
        assert!(!t.others_share_region(core(2), blk(12)));
        assert!(t.others_share_region(core(3), blk(12)));
    }

    #[test]
    fn blocks_in_same_region_alias() {
        let mut t = RegionTracker::new();
        t.on_fill(core(0), blk(0));
        // Block 63 is in region 0; block 64 is region 1.
        assert!(t.others_share_region(core(1), blk(63)));
        assert!(!t.others_share_region(core(1), blk(64)));
    }

    #[test]
    fn drop_of_last_block_clears_region_membership() {
        let mut t = RegionTracker::new();
        t.on_fill(core(0), blk(5));
        t.on_fill(core(0), blk(6));
        t.on_drop(core(0), blk(5));
        assert!(t.others_share_region(core(1), blk(7)), "one block remains");
        t.on_drop(core(0), blk(6));
        assert!(!t.others_share_region(core(1), blk(7)));
        assert_eq!(t.tracked_regions(), 0);
    }

    #[test]
    fn unmatched_drop_is_ignored() {
        let mut t = RegionTracker::new();
        t.on_drop(core(0), blk(5));
        assert_eq!(t.tracked_regions(), 0);
    }

    #[test]
    fn multiple_cores_tracked_independently() {
        let mut t = RegionTracker::new();
        t.on_fill(core(0), blk(0));
        t.on_fill(core(1), blk(1));
        assert!(t.others_share_region(core(0), blk(2)));
        t.on_drop(core(1), blk(1));
        assert!(!t.others_share_region(core(0), blk(2)));
        assert!(t.others_share_region(core(1), blk(2)));
    }
}
