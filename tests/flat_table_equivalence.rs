//! Property-style equivalence tests for the flat-table hot-path
//! structures, against straightforward `HashMap`-based reference models
//! mirroring the pre-flat-table implementations.
//!
//! * `Directory` (open-addressing `FlatMap` keyed by block index) vs a
//!   `HashMap` directory model — including the `record_drop` owner
//!   fallback to the lowest-numbered remaining sharer and entry removal
//!   when the last sharer drops.
//! * `Fabric` (flat `Vec`-indexed per-link virtual-channel table) vs a
//!   `HashMap<Link, Vec<Cycle>>` reservation model — including VC
//!   exhaustion and head-of-line contention on hot links.
//! * `LruTable` (`FlatMap` of `(value, stamp)`) vs the `HashMap` table it
//!   replaced, ported verbatim below — every result, eviction victim and
//!   length, at several capacities and both key widths.
//! * `RegionTracker` (two `FlatMap`s) vs the `HashMap` tracker it
//!   replaced (`common::RefRegionTracker`) under random fill/drop churn.
//!
//! All randomness is `DetRng`-seeded, so failures replay exactly.

mod common;

use std::collections::HashMap;
use std::hash::Hash;

use common::RefRegionTracker;
use spcp::baselines::LruTable;
use spcp::mem::{BlockAddr, Directory};
use spcp::noc::{Fabric, Link, Mesh, MsgKind, NocConfig};
use spcp::sim::{CoreId, CoreSet, Cycle, DetRng};
use spcp::system::filter::{RegionTracker, REGION_BLOCKS};

// ---------------------------------------------------------------------------
// Directory vs HashMap model
// ---------------------------------------------------------------------------

/// The pre-flat-table directory semantics, written the obvious way.
#[derive(Default)]
struct ModelDirectory {
    entries: HashMap<u64, (Option<CoreId>, CoreSet)>,
}

impl ModelDirectory {
    fn entry(&self, block: u64) -> (Option<CoreId>, CoreSet) {
        self.entries
            .get(&block)
            .copied()
            .unwrap_or((None, CoreSet::empty()))
    }

    fn record_exclusive(&mut self, block: u64, core: CoreId) {
        self.entries
            .insert(block, (Some(core), CoreSet::single(core)));
    }

    fn record_shared(&mut self, block: u64, core: CoreId) {
        let e = self.entries.entry(block).or_default();
        e.1.insert(core);
        e.0 = Some(core);
    }

    fn record_shared_no_forward(&mut self, block: u64, core: CoreId) {
        let e = self.entries.entry(block).or_default();
        e.1.insert(core);
        e.0 = None;
    }

    fn record_drop(&mut self, block: u64, core: CoreId) {
        if let Some(e) = self.entries.get_mut(&block) {
            e.1.remove(core);
            if e.0 == Some(core) {
                // Ownership falls to the lowest-numbered remaining sharer.
                e.0 = e.1.iter().next();
            }
            if e.1.is_empty() {
                self.entries.remove(&block);
            }
        }
    }
}

#[test]
fn directory_matches_hashmap_model_under_random_churn() {
    let mut rng = DetRng::seeded(0xD1_8E_C7);
    let mut dir = Directory::new(16);
    let mut model = ModelDirectory::default();
    // A small block universe forces constant insert/remove churn and
    // repeated reuse of freshly-removed keys (the backward-shift deletion
    // path of the underlying FlatMap).
    let blocks: Vec<u64> = (0..96).map(|i| i * 37 + 5).collect();

    for step in 0..40_000 {
        let block = blocks[rng.index(blocks.len())];
        let core = CoreId::new(rng.index(16));
        match rng.index(4) {
            0 => {
                dir.record_exclusive(BlockAddr::from_index(block), core);
                model.record_exclusive(block, core);
            }
            1 => {
                dir.record_shared(BlockAddr::from_index(block), core);
                model.record_shared(block, core);
            }
            2 => {
                dir.record_shared_no_forward(BlockAddr::from_index(block), core);
                model.record_shared_no_forward(block, core);
            }
            _ => {
                dir.record_drop(BlockAddr::from_index(block), core);
                model.record_drop(block, core);
            }
        }
        let got = dir.entry(BlockAddr::from_index(block));
        let (owner, sharers) = model.entry(block);
        assert_eq!(got.owner, owner, "step {step}, block {block}: owner");
        assert_eq!(got.sharers, sharers, "step {step}, block {block}: sharers");
    }

    // Full-state equivalence at the end, both directions.
    assert_eq!(dir.tracked_blocks(), model.entries.len());
    for (block, e) in dir.iter() {
        let (owner, sharers) = model.entry(block.index());
        assert_eq!(e.owner, owner);
        assert_eq!(e.sharers, sharers);
        assert!(!e.sharers.is_empty(), "tracked entries must have sharers");
    }
}

#[test]
fn directory_drop_owner_fallback_prefers_lowest_sharer() {
    // Deterministic corner: many sharers, owner dropped repeatedly.
    let mut dir = Directory::new(16);
    let b = BlockAddr::from_index(123);
    dir.record_exclusive(b, CoreId::new(9));
    for c in [3usize, 11, 6] {
        dir.record_shared(b, CoreId::new(c));
    }
    // Owner is core 6 (most recent reader). Drop it: fallback must pick
    // the lowest-numbered remaining sharer, core 3.
    dir.record_drop(b, CoreId::new(6));
    assert_eq!(dir.entry(b).owner, Some(CoreId::new(3)));
    dir.record_drop(b, CoreId::new(3));
    assert_eq!(dir.entry(b).owner, Some(CoreId::new(9)));
    dir.record_drop(b, CoreId::new(9));
    assert_eq!(dir.entry(b).owner, Some(CoreId::new(11)));
    dir.record_drop(b, CoreId::new(11));
    assert!(dir.entry(b).is_uncached());
    assert_eq!(dir.tracked_blocks(), 0);
}

// ---------------------------------------------------------------------------
// Fabric vs HashMap-reservation model
// ---------------------------------------------------------------------------

/// The pre-flat-table link-reservation semantics: per-link VC vectors in a
/// `HashMap`, earliest-free VC (first on ties), lazily initialised to
/// all-free.
struct ModelFabric {
    mesh: Mesh,
    cfg: NocConfig,
    link_free: HashMap<Link, Vec<Cycle>>,
    contention_cycles: u64,
}

impl ModelFabric {
    fn new(cfg: NocConfig) -> Self {
        ModelFabric {
            mesh: Mesh::new(cfg.width, cfg.height),
            cfg,
            link_free: HashMap::new(),
            contention_cycles: 0,
        }
    }

    fn send(&mut self, src: CoreId, dst: CoreId, kind: MsgKind, depart: Cycle) -> Cycle {
        if src == dst {
            return depart;
        }
        let vcs = self.cfg.virtual_channels.max(1);
        let flits = kind.bytes().div_ceil(self.cfg.flit_bytes).max(1);
        let mut head = depart;
        for link in self.mesh.route(src, dst) {
            head += self.cfg.router_cycles;
            let slots = self
                .link_free
                .entry(link)
                .or_insert_with(|| vec![Cycle::ZERO; vcs]);
            let slot = slots
                .iter_mut()
                .min_by_key(|c| **c)
                .expect("at least one VC");
            if *slot > head {
                self.contention_cycles += (*slot - head).as_u64();
                head = *slot;
            }
            *slot = head + flits * self.cfg.link_cycles;
            head += self.cfg.link_cycles;
        }
        head
    }
}

/// Random traffic with deliberate hot spots: most messages funnel into one
/// corner so shared links saturate and VC exhaustion decides timings.
fn fabric_traffic_equivalence(cfg: NocConfig, seed: u64, steps: usize) {
    let nodes = cfg.nodes();
    let mut real = Fabric::new(cfg.clone());
    let mut model = ModelFabric::new(cfg);
    let mut rng = DetRng::seeded(seed);
    let kinds = [
        MsgKind::Request,
        MsgKind::DataResponse,
        MsgKind::Invalidate,
        MsgKind::InvalidateAck,
    ];
    let mut now = Cycle::ZERO;
    for step in 0..steps {
        // Bursty clock: several messages share a departure cycle.
        if rng.chance(0.3) {
            now += rng.range(0, 6);
        }
        let src = CoreId::new(rng.index(nodes));
        // 60% of traffic targets node 0's corner: hot links, exhausted VCs.
        let dst = if rng.chance(0.6) {
            CoreId::new(rng.index(2))
        } else {
            CoreId::new(rng.index(nodes))
        };
        let kind = *rng.pick(&kinds);
        let got = real.send(src, dst, kind, now);
        let want = model.send(src, dst, kind, now);
        assert_eq!(got, want, "step {step}: {src}->{dst} {kind:?} at {now}");
    }
    assert_eq!(real.stats().contention_cycles, model.contention_cycles);
    assert!(
        real.stats().contention_cycles > 0,
        "traffic pattern must actually contend to be a meaningful test"
    );
}

#[test]
fn fabric_matches_hashmap_model_default_vcs() {
    fabric_traffic_equivalence(NocConfig::default(), 0xFA_B1, 8_000);
}

#[test]
fn fabric_matches_hashmap_model_single_vc() {
    // One VC per link: every overlapping message queues (exhaustion path).
    fabric_traffic_equivalence(
        NocConfig {
            virtual_channels: 1,
            ..NocConfig::default()
        },
        0xFA_B2,
        8_000,
    );
}

#[test]
fn fabric_matches_hashmap_model_rectangular_mesh() {
    // Non-square mesh: exercises the link indexing math off the 4×4 path.
    fabric_traffic_equivalence(
        NocConfig {
            width: 2,
            height: 3,
            virtual_channels: 2,
            ..NocConfig::default()
        },
        0xFA_B3,
        6_000,
    );
}

// ---------------------------------------------------------------------------
// LruTable vs the HashMap table it replaced
// ---------------------------------------------------------------------------

/// The `HashMap` `LruTable`, ported verbatim.
#[derive(Debug, Clone)]
pub struct RefLruTable<K, V> {
    map: HashMap<K, (V, u64)>,
    capacity: Option<usize>,
    clock: u64,
}

impl<K: Eq + Hash + Copy, V> RefLruTable<K, V> {
    /// Creates a table; `None` capacity means unlimited.
    ///
    /// # Panics
    ///
    /// Panics if a zero capacity is given.
    pub fn new(capacity: Option<usize>) -> Self {
        if let Some(c) = capacity {
            assert!(c > 0, "capacity must be positive");
        }
        RefLruTable {
            map: HashMap::new(),
            capacity,
            clock: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Fetches an entry, refreshing its recency.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|(v, stamp)| {
            *stamp = clock;
            v
        })
    }

    /// Inserts or replaces an entry, evicting the LRU entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        let clock = self.clock;
        if !self.map.contains_key(&key) {
            if let Some(cap) = self.capacity {
                while self.map.len() >= cap {
                    let victim = self
                        .map
                        .iter()
                        .min_by_key(|(_, (_, stamp))| *stamp)
                        .map(|(k, _)| *k)
                        .expect("non-empty map");
                    self.map.remove(&victim);
                }
            }
        }
        self.map.insert(key, (value, clock));
    }

    /// Fetches an entry, inserting `default()` first when absent (with
    /// LRU eviction if needed).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        if !self.map.contains_key(&key) {
            self.insert(key, default());
        } else {
            self.clock += 1;
        }
        let clock = self.clock;
        let (v, stamp) = self.map.get_mut(&key).expect("just ensured present");
        *stamp = clock;
        v
    }
}

/// Random get / insert / get-or-insert traffic over a key space a few
/// times the capacity, so finite tables evict constantly. Values record
/// the step that wrote them, so a lost update shows as a value mismatch
/// on a later hit. Every evicting insert must drop the model's LRU key
/// from both tables, and a periodic sweep of the whole key space checks
/// that both hold the same entries.
fn lru_equivalence<K>(capacity: Option<usize>, seed: u64, key_of: impl Fn(u64) -> K)
where
    K: Into<u64> + Eq + Hash + Copy + std::fmt::Debug,
{
    let mut real: LruTable<K, u64> = LruTable::new(capacity);
    let mut model: RefLruTable<K, u64> = RefLruTable::new(capacity);
    let mut rng = DetRng::seeded(seed);
    let keys = capacity.map_or(600, |c| 3 * c as u64 + 2);
    // Sparse, wide keys: exercise FlatMap's hashing, not just small ints.
    let key = |rng: &mut DetRng| key_of(rng.range(0, keys) * 0x9E37 + 5);
    for step in 0..6_000u64 {
        let k = key(&mut rng);
        let op = rng.index(3);
        // The model's LRU entry, which an insert of an absent key into a
        // full table must evict.
        let victim = match capacity {
            Some(cap) if op != 0 && model.len() == cap && !model.map.contains_key(&k) => model
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(victim, _)| *victim),
            _ => None,
        };
        match op {
            0 => {
                let got = real.get_mut(&k).map(|v| *v);
                let want = model.get_mut(&k).map(|v| *v);
                assert_eq!(got, want, "step {step}: get {k:?}");
            }
            1 => {
                real.insert(k, step);
                model.insert(k, step);
            }
            _ => {
                let got = {
                    let v = real.get_or_insert_with(k, || step);
                    *v += 1;
                    *v
                };
                let want = {
                    let v = model.get_or_insert_with(k, || step);
                    *v += 1;
                    *v
                };
                assert_eq!(got, want, "step {step}: get_or_insert_with {k:?}");
            }
        }
        assert_eq!(real.len(), model.len(), "step {step}: len");
        assert_eq!(real.is_empty(), model.is_empty(), "step {step}");
        if let Some(victim) = victim {
            // A miss on both tables, so they stay in lockstep.
            assert!(
                real.get_mut(&victim).is_none() && model.get_mut(&victim).is_none(),
                "step {step}: inserting {k:?} must evict {victim:?}"
            );
        }
        if step % 97 == 0 {
            // Full residency sweep. `get_mut` refreshes recency, so probe
            // clones of both tables instead of the tables themselves.
            let (mut r, mut m) = (real.clone(), model.clone());
            for i in 0..keys {
                let k = key_of(i * 0x9E37 + 5);
                assert_eq!(
                    r.get_mut(&k).map(|v| *v),
                    m.get_mut(&k).map(|v| *v),
                    "step {step}: resident value of {k:?}"
                );
            }
        }
    }
    if let Some(cap) = capacity {
        assert_eq!(real.len(), cap, "traffic must fill the table to evict");
    }
}

const LRU_CAPACITIES: [Option<usize>; 5] = [Some(1), Some(2), Some(7), Some(512), None];

#[test]
fn lru_table_matches_hashmap_model_u64_keys() {
    for (i, cap) in LRU_CAPACITIES.into_iter().enumerate() {
        lru_equivalence::<u64>(cap, 0x1A0 + i as u64, |k| k);
    }
}

#[test]
fn lru_table_matches_hashmap_model_u32_keys() {
    for (i, cap) in LRU_CAPACITIES.into_iter().enumerate() {
        lru_equivalence::<u32>(cap, 0x2A0 + i as u64, |k| k as u32);
    }
}

// ---------------------------------------------------------------------------
// RegionTracker vs the HashMap tracker it replaced
// ---------------------------------------------------------------------------

#[test]
fn region_tracker_matches_hashmap_model_under_random_churn() {
    let mut real = RegionTracker::new();
    let mut model = RefRegionTracker::new();
    let mut rng = DetRng::seeded(0x5E_61);
    // A few dozen regions, 64 cores; drops hit unfilled blocks too (the
    // unmatched-drop path) since (core, block) pairs are drawn freely.
    let regions = 40;
    let mut live: Vec<(CoreId, BlockAddr)> = Vec::new();
    for step in 0..40_000 {
        let core = CoreId::new(rng.index(CoreSet::MAX_CORES));
        let block = BlockAddr::from_index(rng.range(0, regions * REGION_BLOCKS));
        if rng.chance(0.55) {
            real.on_fill(core, block);
            model.on_fill(core, block);
            live.push((core, block));
        } else if !live.is_empty() && rng.chance(0.8) {
            let (core, block) = live.swap_remove(rng.index(live.len()));
            real.on_drop(core, block);
            model.on_drop(core, block);
        } else {
            real.on_drop(core, block);
            model.on_drop(core, block);
        }
        assert_eq!(
            real.tracked_regions(),
            model.tracked_regions(),
            "step {step}"
        );
        let requester = CoreId::new(rng.index(CoreSet::MAX_CORES));
        let probe = BlockAddr::from_index(rng.range(0, regions * REGION_BLOCKS));
        assert_eq!(
            real.others_share_region(requester, probe),
            model.others_share_region(requester, probe),
            "step {step}: {requester} probes {probe}"
        );
    }
    // Every region under every requester, at the end of the churn.
    for region in 0..regions {
        for c in 0..CoreSet::MAX_CORES {
            let (requester, probe) = (
                CoreId::new(c),
                BlockAddr::from_index(region * REGION_BLOCKS),
            );
            assert_eq!(
                real.others_share_region(requester, probe),
                model.others_share_region(requester, probe)
            );
        }
    }
    // Near the top of the block-index space the packed (region, core)
    // key must not collide.
    for block in [u64::MAX, u64::MAX - REGION_BLOCKS, 0] {
        let block = BlockAddr::from_index(block);
        for c in [0, CoreSet::MAX_CORES - 1] {
            real.on_fill(CoreId::new(c), block);
            model.on_fill(CoreId::new(c), block);
        }
        assert_eq!(real.tracked_regions(), model.tracked_regions());
        for c in [0, 1, CoreSet::MAX_CORES - 1] {
            assert_eq!(
                real.others_share_region(CoreId::new(c), block),
                model.others_share_region(CoreId::new(c), block)
            );
        }
    }
}
