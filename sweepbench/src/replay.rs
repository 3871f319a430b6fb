//! Per-layer replay of one traced cell, from outside the simulator.
//!
//! The real run (`CmpSystem::run_workload`) is not instrumented. To split
//! its host time across layers, a cell is replayed in two passes:
//!
//! 1. **Record pass.** The cell's per-core op streams are walked in the
//!    global order that the real run's miss/sync trace fixes. Every access goes through standalone instances of each
//!    layer's public API (`SetAssocCache`; `Directory` plus the `protocol`
//!    functions; `Fabric`; `PredictorSlot`; `EpochTracker`, `BarrierState`
//!    and `LockRuntime`; `EventQueue`), mirroring the calls the machine
//!    makes. Each call is appended, with its arguments, to its layer's log.
//! 2. **Timed pass.** Every [`CHUNK`] logged calls, each layer's log is
//!    replayed against a second, separate set of instances of that layer
//!    alone, as one timed batch: one span per layer per chunk. Layers are
//!    deterministic, so the batches repeat the recorded work exactly; a
//!    digest of every call's result, computed in both passes, checks that.
//!
//! The trace carries no timestamps, so where a core's cache *hits* fell
//! relative to other cores' transactions is reconstructed, not known: a
//! core's ops are advanced lazily up to its next traced event. When that
//! moves a hit past a remote invalidation the replay diverges slightly
//! from the real run. [`Fidelity`] counts what the replay saw so the
//! caller can compare it with the real run's `RunStats`.

use std::hint::black_box;

use spcp_core::{shared_lock_table, AccessKind, MissInfo, PredictionOutcome, SpStats};
use spcp_mem::{BlockAddr, Directory, LineState, SetAssocCache};
use spcp_noc::{Fabric, MsgKind};
use spcp_sim::{CoreId, CoreSet, Cycle, EventQueue};
use spcp_sync::{EpochTracker, LockId, SyncKind, SyncPoint};
use spcp_system::protocol::{self, DirUpdate};
use spcp_system::runtime::{Acquire, BarrierState, LockRuntime};
use spcp_system::{
    CoherenceVariant, MachineConfig, PredictorKind, PredictorSlot, ProtocolKind, RunConfig,
};
use spcp_trace::TraceEvent;
use spcp_workloads::{Op, Workload};

use crate::spans::Spans;

/// One logged call into the private caches (`spcp-mem`).
#[derive(Debug, Clone, Copy)]
enum CacheCall {
    L1Lookup(u8, BlockAddr),
    L1Insert(u8, BlockAddr),
    L1Invalidate(u8, BlockAddr),
    L2Probe(u8, BlockAddr),
    L2Lookup(u8, BlockAddr),
    /// `probe_mut` plus a state store when the line is resident.
    L2Set(u8, BlockAddr, LineState),
    L2Insert(u8, BlockAddr, LineState),
    L2Invalidate(u8, BlockAddr),
}

/// One logged call into the directory (`spcp-mem`) and the pure protocol
/// functions that read it (`spcp-system::protocol`).
#[derive(Debug, Clone, Copy)]
enum DirCall {
    /// `entry` + `supplier_of` + `transaction_targets` + `commit_plan`.
    Txn {
        kind: AccessKind,
        core: CoreId,
        block: BlockAddr,
        targets: CoreSet,
    },
    Record(DirUpdate, BlockAddr, CoreId),
    Drop(BlockAddr, CoreId),
}

/// One logged call into the NoC (`spcp-noc`).
#[derive(Debug, Clone, Copy)]
enum NocCall {
    Send(CoreId, CoreId, MsgKind, Cycle),
    Untimed(CoreId, CoreId, MsgKind),
}

/// One logged call into a core's predictor (`spcp-core` / `spcp-baselines`
/// behind `PredictorSlot`).
#[derive(Debug, Clone, Copy)]
enum PredCall {
    Predict(u8, MissInfo),
    Train(u8, MissInfo, PredictionOutcome),
    Observe(u8, MissInfo, CoreId),
    Sync(u8, SyncPoint, Option<CoreId>),
}

/// One logged call into the sync runtime (`spcp-sync` epoch tracking plus
/// the machine's barrier and lock runtime).
#[derive(Debug, Clone, Copy)]
enum SyncCall {
    Observe(u8, SyncPoint),
    Arrive(CoreId, Cycle),
    Acquire(LockId, CoreId, Cycle),
    Release(LockId, CoreId, Cycle),
}

/// Result digests of every logged call, per layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Digests {
    cache: u64,
    dir: u64,
    noc: u64,
    pred: u64,
    sync: u64,
}

/// Counts the record pass observed, for comparison with the real run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fidelity {
    /// Ops replayed.
    pub ops: u64,
    /// Accesses the standalone caches served as L1 or L2 hits.
    pub hits: u64,
    /// Accesses the standalone caches could not serve (an L2 miss or an
    /// upgrade), whether or not the trace has a miss there.
    pub l2_misses: u64,
    /// Traced misses whose replayed directory targets differ from the
    /// trace's.
    pub target_mismatches: u64,
    /// Traced misses replayed.
    pub miss_events: u64,
    /// Lock acquires or releases the replayed runtime resolved differently
    /// from the real run.
    pub sync_divergences: u64,
    /// Messages the standalone fabric carried.
    pub noc_messages: u64,
    /// Machine-level predictions made.
    pub predictions: u64,
    /// Machine-level sufficient predictions.
    pub pred_sufficient: u64,
    /// Merged SP statistics of the replayed predictors.
    pub sp: Option<SpStats>,
}

/// Every layer's call log from the record pass, since the last chunk.
#[derive(Debug, Default)]
struct Recording {
    cache: Vec<CacheCall>,
    dir: Vec<DirCall>,
    noc: Vec<NocCall>,
    pred: Vec<PredCall>,
    sync: Vec<SyncCall>,
    eventq: Vec<(Cycle, u8)>,
    digests: Digests,
    fidelity: Fidelity,
}

impl Recording {
    /// Log entries not yet timed.
    fn pending(&self) -> usize {
        self.cache.len()
            + self.dir.len()
            + self.noc.len()
            + self.pred.len()
            + self.sync.len()
            + self.eventq.len()
    }
}

/// Calls one layer received in the timed pass; its host time is in the
/// layer's spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCalls {
    /// Layer name, prefixed by its crate.
    pub name: &'static str,
    /// Calls replayed.
    pub calls: u64,
}

/// The protocol engines the replay mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proto {
    Directory,
    Broadcast,
    Predicted,
}

/// The predictor layer's name for a protocol, by crate.
pub fn predictor_layer(kind: &ProtocolKind) -> Option<&'static str> {
    match kind.predictor()? {
        PredictorKind::Sp(_) => Some("core.sp"),
        PredictorKind::Addr { .. } => Some("baselines.addr"),
        PredictorKind::Inst { .. } => Some("baselines.inst"),
        PredictorKind::Uni => Some("baselines.uni"),
        PredictorKind::Oracle(_) => Some("system.oracle"),
    }
}

fn supported(cfg: &RunConfig) -> Result<Proto, String> {
    if cfg.snoop_filter
        || cfg.logical_tracking
        || cfg.migrate_every > 0
        || cfg.sp_warm_start.is_some()
        || cfg.record_epochs
        || cfg.machine.variant != CoherenceVariant::Mesif
    {
        return Err("the replay mirrors only plain pinned MESIF runs".to_string());
    }
    Ok(match cfg.protocol {
        ProtocolKind::Directory => Proto::Directory,
        ProtocolKind::Broadcast => Proto::Broadcast,
        ProtocolKind::Predicted(_) => Proto::Predicted,
        ProtocolKind::MulticastSnoop(_) => {
            return Err("the replay does not mirror multicast snooping".to_string())
        }
    })
}

fn build_predictors(cfg: &RunConfig, n: usize) -> Vec<PredictorSlot> {
    let depth = match cfg.protocol.predictor() {
        Some(PredictorKind::Sp(sp)) => sp.history_depth,
        _ => 2,
    };
    let locks = shared_lock_table(depth);
    (0..n)
        .map(|i| match cfg.protocol.predictor() {
            Some(kind) => {
                PredictorSlot::build_with_policy(kind, CoreId::new(i), n, &locks, cfg.set_policy)
            }
            None => PredictorSlot::None,
        })
        .collect()
}

/// What a core's ops are advanced up to.
#[derive(Debug, Clone, Copy)]
enum Target {
    Miss { block: BlockAddr, store: bool },
    Sync,
    End,
}

/// The record pass's machine: standalone layer instances plus logs.
struct Recorder<'a> {
    threads: &'a [Vec<Op>],
    m: MachineConfig,
    proto: Proto,
    n: usize,
    l1_lat: u64,
    l2_lat: u64,
    l1: Vec<SetAssocCache<()>>,
    l2: Vec<SetAssocCache<LineState>>,
    dir: Directory,
    fabric: Fabric,
    preds: Vec<PredictorSlot>,
    trackers: Vec<EpochTracker>,
    barrier: BarrierState,
    locks: LockRuntime,
    pc: Vec<usize>,
    clock: Vec<Cycle>,
    at_barrier: Vec<bool>,
    arrival: Vec<Option<Cycle>>,
    rec: Recording,
}

/// Log entries (summed over layers) after which the record pass hands its
/// logs to the timed pass, bounding the logs' memory.
const CHUNK: usize = 1 << 20;

/// What one cell's replay measured.
#[derive(Debug)]
pub struct Replay {
    /// What the record pass observed.
    pub fidelity: Fidelity,
    /// Each layer's calls, summed over chunks.
    pub layers: Vec<LayerCalls>,
}

/// Replays one cell under span `parent`.
///
/// `trace` must be the miss/sync trace of `cfg` on `workload` (a run with
/// `RunConfig::tracing()`). The record pass runs under a `replay.record`
/// span; every [`CHUNK`] logged calls, and at the end, the logs are timed
/// layer by layer under a `replay.timed` child span. Errors when the trace
/// cannot be aligned with the op streams, when a timed batch does not
/// repeat the recorded results, or when the configuration is outside what
/// the replay mirrors.
pub fn replay(
    workload: &Workload,
    cfg: &RunConfig,
    trace: &[TraceEvent],
    spans: &mut Spans,
    parent: usize,
) -> Result<Replay, String> {
    let proto = supported(cfg)?;
    let n = workload.num_cores();
    let m = cfg.machine.clone();
    let mut r = Recorder {
        threads: workload.threads(),
        proto,
        n,
        l1_lat: m.l1.tag_cycles + m.l1.data_cycles,
        l2_lat: m.l2.tag_cycles + m.l2.data_cycles,
        l1: (0..n).map(|_| SetAssocCache::new(m.l1)).collect(),
        l2: (0..n).map(|_| SetAssocCache::new(m.l2)).collect(),
        dir: Directory::new(n),
        fabric: Fabric::new(m.noc.clone()),
        preds: build_predictors(cfg, n),
        trackers: (0..n).map(|_| EpochTracker::new()).collect(),
        barrier: BarrierState::new(n, m.barrier_cost),
        locks: LockRuntime::new(m.lock_transfer_cost),
        pc: vec![0; n],
        clock: vec![Cycle::ZERO; n],
        at_barrier: vec![false; n],
        arrival: vec![None; n],
        m,
        rec: Recording::default(),
    };
    let mut timer = Timer::new(cfg, n);
    let record = spans.open("replay.record", Some(parent));
    let walked = r.walk(trace, &mut timer, spans, record);
    timer.drain(&mut r.rec, spans, record);
    spans.close(record);
    walked?;
    if timer.digests != r.rec.digests {
        return Err(format!(
            "timed pass diverged from the record pass: {:?} != {:?}",
            timer.digests, r.rec.digests
        ));
    }
    let mut fidelity = r.rec.fidelity;
    fidelity.noc_messages = r.fabric.stats().messages;
    for p in &r.preds {
        if let Some(s) = p.sp_stats() {
            fidelity.sp.get_or_insert_with(SpStats::default).merge(&s);
        }
    }
    Ok(Replay {
        fidelity,
        layers: timer.layers,
    })
}

impl Recorder<'_> {
    /// Walks the trace, then every core's remaining ops, handing the logs
    /// to `timer` whenever they reach [`CHUNK`] entries.
    fn walk(
        &mut self,
        trace: &[TraceEvent],
        timer: &mut Timer,
        spans: &mut Spans,
        span: usize,
    ) -> Result<(), String> {
        for event in trace {
            match *event {
                TraceEvent::Miss {
                    core,
                    block,
                    pc,
                    kind,
                    targets,
                } => {
                    let c = core.index();
                    let store = kind.is_exclusive();
                    self.advance(c, Target::Miss { block, store })?;
                    self.miss(c, block, pc, kind, targets);
                }
                TraceEvent::Sync {
                    core,
                    kind,
                    static_id,
                    ..
                } => {
                    let c = core.index();
                    self.advance(c, Target::Sync)?;
                    self.sync(c, kind, static_id)?;
                }
            }
            if self.rec.pending() >= CHUNK {
                timer.drain(&mut self.rec, spans, span);
            }
        }
        for c in 0..self.n {
            self.advance(c, Target::End)?;
        }
        Ok(())
    }

    // ---- logged layer calls -------------------------------------------

    fn l1_lookup(&mut self, c: usize, b: BlockAddr) -> bool {
        self.rec.cache.push(CacheCall::L1Lookup(c as u8, b));
        let hit = self.l1[c].lookup(b).is_some();
        self.rec.digests.cache += hit as u64;
        hit
    }

    fn l1_insert(&mut self, c: usize, b: BlockAddr) {
        self.rec.cache.push(CacheCall::L1Insert(c as u8, b));
        self.rec.digests.cache += self.l1[c].insert(b, ()).is_some() as u64;
    }

    fn l1_invalidate(&mut self, c: usize, b: BlockAddr) {
        self.rec.cache.push(CacheCall::L1Invalidate(c as u8, b));
        self.rec.digests.cache += self.l1[c].invalidate(b).is_some() as u64;
    }

    fn l2_probe(&mut self, c: usize, b: BlockAddr) -> Option<LineState> {
        self.rec.cache.push(CacheCall::L2Probe(c as u8, b));
        let s = self.l2[c].probe(b).copied();
        self.rec.digests.cache += s.is_some() as u64;
        s
    }

    fn l2_lookup(&mut self, c: usize, b: BlockAddr) {
        self.rec.cache.push(CacheCall::L2Lookup(c as u8, b));
        self.rec.digests.cache += self.l2[c].lookup(b).is_some() as u64;
    }

    fn l2_set(&mut self, c: usize, b: BlockAddr, state: LineState) -> bool {
        self.rec.cache.push(CacheCall::L2Set(c as u8, b, state));
        let found = match self.l2[c].probe_mut(b) {
            Some(s) => {
                *s = state;
                true
            }
            None => false,
        };
        self.rec.digests.cache += found as u64;
        found
    }

    fn l2_insert(
        &mut self,
        c: usize,
        b: BlockAddr,
        state: LineState,
    ) -> Option<(BlockAddr, LineState)> {
        self.rec.cache.push(CacheCall::L2Insert(c as u8, b, state));
        let victim = self.l2[c].insert(b, state);
        self.rec.digests.cache += victim.is_some() as u64;
        victim
    }

    fn l2_invalidate(&mut self, c: usize, b: BlockAddr) {
        self.rec.cache.push(CacheCall::L2Invalidate(c as u8, b));
        self.rec.digests.cache += self.l2[c].invalidate(b).is_some() as u64;
    }

    fn send(&mut self, src: CoreId, dst: CoreId, kind: MsgKind, t: Cycle) -> Cycle {
        self.rec.noc.push(NocCall::Send(src, dst, kind, t));
        let arrive = self.fabric.send(src, dst, kind, t);
        self.rec.digests.noc = self.rec.digests.noc.wrapping_add(arrive.as_u64());
        arrive
    }

    fn send_untimed(&mut self, src: CoreId, dst: CoreId, kind: MsgKind) {
        self.rec.noc.push(NocCall::Untimed(src, dst, kind));
        self.fabric.send_untimed(src, dst, kind);
    }

    fn predict(&mut self, c: usize, miss: MissInfo) -> CoreSet {
        self.rec.pred.push(PredCall::Predict(c as u8, miss));
        let set = self.preds[c].predict(&miss);
        self.rec.digests.pred += set.len() as u64;
        set
    }

    fn train(&mut self, c: usize, miss: MissInfo, outcome: PredictionOutcome) {
        self.rec.pred.push(PredCall::Train(c as u8, miss, outcome));
        self.preds[c].train(&miss, outcome);
    }

    /// A remote L2 is probed: the machine lets that core's predictor
    /// observe the request.
    fn probe_remote(&mut self, node: CoreId, block: BlockAddr, requester: CoreId, pc: u32) {
        if self.proto == Proto::Predicted {
            let miss = MissInfo::new(block, pc, AccessKind::Read);
            self.rec
                .pred
                .push(PredCall::Observe(node.index() as u8, miss, requester));
            self.preds[node.index()].observe_remote_request(&miss, requester);
        }
    }

    fn notify_sync(&mut self, c: usize, point: SyncPoint, prev: Option<CoreId>) {
        self.rec.sync.push(SyncCall::Observe(c as u8, point));
        let tr = self.trackers[c].observe(point);
        self.rec.digests.sync = self.rec.digests.sync.wrapping_add(tr.started.instance);
        if self.proto == Proto::Predicted {
            self.rec.pred.push(PredCall::Sync(c as u8, point, prev));
            self.preds[c].on_sync_point(point, prev);
        }
    }

    /// Retires one op of core `c`: its next op becomes ready at `t`.
    fn retire(&mut self, c: usize, t: Cycle) {
        self.clock[c] = t;
        self.rec.eventq.push((t, c as u8));
        self.rec.fidelity.ops += 1;
    }

    // ---- op-stream alignment ------------------------------------------

    /// Whether core `c`'s standalone L2 serves the access without a
    /// coherence transaction (an unlogged check).
    fn would_hit(&self, c: usize, block: BlockAddr, store: bool) -> bool {
        matches!(self.l2[c].probe(block), Some(s) if !store || s.is_writable())
    }

    /// Whether core `c` has another access of the same kind to `block`
    /// after its current op and before its next sync op.
    fn matches_later(&self, c: usize, block: BlockAddr, store: bool) -> bool {
        self.threads[c][self.pc[c] + 1..]
            .iter()
            .take_while(|op| !matches!(op, Op::Sync(_)))
            .any(|op| match *op {
                Op::Load { addr, .. } => !store && addr.block() == block,
                Op::Store { addr, .. } => store && addr.block() == block,
                _ => false,
            })
    }

    /// Replays core `c`'s ops as hits and compute up to the op that
    /// carries `target`, which is left unconsumed.
    fn advance(&mut self, c: usize, target: Target) -> Result<(), String> {
        let threads = self.threads;
        loop {
            let Some(&op) = threads[c].get(self.pc[c]) else {
                return match target {
                    Target::End => Ok(()),
                    _ => Err(format!("core {c}: ops ended before its next traced event")),
                };
            };
            match op {
                Op::Compute(cycles) => {
                    self.pc[c] += 1;
                    let t = self.clock[c] + cycles as u64 + 1;
                    self.retire(c, t);
                }
                Op::Load { addr, .. } | Op::Store { addr, .. } => {
                    let store = matches!(op, Op::Store { .. });
                    let block = addr.block();
                    if let Target::Miss { block: b, store: s } = target {
                        if b == block
                            && s == store
                            && (!self.would_hit(c, block, store)
                                || !self.matches_later(c, block, store))
                        {
                            return Ok(());
                        }
                    }
                    self.pc[c] += 1;
                    self.hit(c, block, store);
                }
                Op::Sync(_) => {
                    return match target {
                        Target::Sync => Ok(()),
                        _ => Err(format!(
                            "core {c}: reached a sync op before its next traced miss"
                        )),
                    };
                }
            }
        }
    }

    /// The machine's hit path. An access the standalone caches cannot
    /// serve (a hit the replay moved past a remote invalidation) is
    /// counted and charged the L2 latency without touching the caches.
    fn hit(&mut self, c: usize, block: BlockAddr, store: bool) {
        let in_l1 = self.l1_lookup(c, block);
        let lat = match self.l2_probe(c, block) {
            Some(state) if !store || state.is_writable() => {
                if store && state == LineState::Exclusive {
                    self.l2_set(c, block, LineState::Modified);
                }
                self.l2_lookup(c, block);
                self.rec.fidelity.hits += 1;
                if in_l1 {
                    self.l1_lat
                } else {
                    self.l1_insert(c, block);
                    self.l1_lat + self.l2_lat
                }
            }
            _ => {
                self.rec.fidelity.l2_misses += 1;
                self.l1_lat + self.l2_lat
            }
        };
        let t = self.clock[c] + lat + 1;
        self.retire(c, t);
    }

    // ---- traced events ------------------------------------------------

    fn miss(&mut self, c: usize, block: BlockAddr, pc: u32, kind: AccessKind, targets: CoreSet) {
        self.pc[c] += 1;
        self.l1_lookup(c, block);
        match self.l2_probe(c, block) {
            Some(s) if !kind.is_exclusive() || s.is_writable() => self.rec.fidelity.hits += 1,
            _ => self.rec.fidelity.l2_misses += 1,
        }
        let t0 = self.clock[c];
        let done = self.transaction(c, t0, block, pc, kind, targets);
        self.retire(c, done + 1);
    }

    fn transaction(
        &mut self,
        c: usize,
        t0: Cycle,
        block: BlockAddr,
        pc: u32,
        kind: AccessKind,
        targets: CoreSet,
    ) -> Cycle {
        let core = CoreId::new(c);
        self.rec.fidelity.miss_events += 1;
        self.rec.dir.push(DirCall::Txn {
            kind,
            core,
            block,
            targets,
        });
        let entry = self.dir.entry(block);
        let supplier = protocol::supplier_of(&entry, true, |_| None);
        let replayed = protocol::transaction_targets(kind, core, &entry, supplier);
        if replayed != targets {
            self.rec.fidelity.target_mismatches += 1;
        }
        // The trace's targets are the real run's; the message pattern and
        // the predictor training follow them so the layer logs carry the
        // real run's work even where the replayed directory drifted.
        let plan = protocol::commit_plan(kind, core, &entry, true, targets);
        self.rec.digests.dir += replayed.len() as u64 + plan.invalidated.len() as u64;
        let owner = match kind {
            AccessKind::Read => targets.iter().next(),
            _ => supplier.filter(|&o| o == core || targets.contains(o)),
        };
        let miss = MissInfo::new(block, pc, kind);
        let completion = match self.proto {
            Proto::Directory => self.directory_path(core, t0, block, kind, owner, targets),
            Proto::Broadcast => self.snoop_resolve(
                core,
                t0,
                block,
                pc,
                kind,
                owner,
                targets,
                CoreSet::all(self.n),
                MsgKind::SnoopProbe,
            ),
            Proto::Predicted => self.predicted_path(core, t0, kind, owner, targets, miss),
        };

        let home = self.dir.home_of(block);
        if let Some(o) = plan.downgraded_owner {
            let dirty = self.l2[o.index()]
                .probe(block)
                .is_some_and(|s| s.needs_writeback());
            if dirty {
                self.send(o, home, MsgKind::WriteBack, completion);
            }
            self.l2_set(o.index(), block, LineState::Shared);
        }
        for s in plan.invalidated.iter() {
            self.l2_invalidate(s.index(), block);
            self.l1_invalidate(s.index(), block);
        }
        if plan.installs_line || !self.l2_set(c, block, plan.requester_state) {
            self.fill_l2(c, block, plan.requester_state, completion);
        }
        self.rec
            .dir
            .push(DirCall::Record(plan.dir_update, block, core));
        record_update(&mut self.dir, plan.dir_update, block, core);
        completion
    }

    fn fill_l2(&mut self, c: usize, block: BlockAddr, state: LineState, t: Cycle) {
        let core = CoreId::new(c);
        match self.l2_insert(c, block, state) {
            Some((victim, vstate)) if victim != block => {
                self.l1_invalidate(c, victim);
                if vstate.needs_writeback() {
                    let home = self.dir.home_of(victim);
                    self.send(core, home, MsgKind::WriteBack, t);
                }
                self.rec.dir.push(DirCall::Drop(victim, core));
                self.dir.record_drop(victim, core);
            }
            _ => {}
        }
        self.l1_insert(c, block);
    }

    fn directory_path(
        &mut self,
        core: CoreId,
        t0: Cycle,
        block: BlockAddr,
        kind: AccessKind,
        owner: Option<CoreId>,
        targets: CoreSet,
    ) -> Cycle {
        let home = self.dir.home_of(block);
        let (l2_lat, l2_tag) = (self.l2_lat, self.m.l2.tag_cycles);
        let t_dir = self.send(core, home, MsgKind::Request, t0) + self.m.dir_latency;
        match kind {
            AccessKind::Read => match owner {
                Some(o) if o != core => {
                    let t_fwd = self.send(home, o, MsgKind::Forward, t_dir);
                    self.probe_remote(o, block, core, 0);
                    self.send(o, core, MsgKind::DataResponse, t_fwd + l2_lat)
                }
                _ => self.send(
                    home,
                    core,
                    MsgKind::DataResponse,
                    t_dir + self.m.mem_latency,
                ),
            },
            AccessKind::Write | AccessKind::Upgrade => {
                let mut done = self.send(home, core, MsgKind::ControlResponse, t_dir);
                match owner {
                    Some(o) if o != core => {
                        let t_fwd = self.send(home, o, MsgKind::Forward, t_dir);
                        self.probe_remote(o, block, core, 0);
                        done = done.max(self.send(o, core, MsgKind::DataResponse, t_fwd + l2_lat));
                    }
                    _ if kind == AccessKind::Write => {
                        let t_mem = t_dir + self.m.mem_latency;
                        done = done.max(self.send(home, core, MsgKind::DataResponse, t_mem));
                    }
                    _ => {}
                }
                for s in targets.iter() {
                    if Some(s) == owner {
                        continue;
                    }
                    let t_inv = self.send(home, s, MsgKind::Invalidate, t_dir);
                    self.probe_remote(s, block, core, 0);
                    done = done.max(self.send(s, core, MsgKind::InvalidateAck, t_inv + l2_tag));
                }
                done
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn snoop_resolve(
        &mut self,
        core: CoreId,
        t0: Cycle,
        block: BlockAddr,
        pc: u32,
        kind: AccessKind,
        owner: Option<CoreId>,
        targets: CoreSet,
        probe_set: CoreSet,
        probe_kind: MsgKind,
    ) -> Cycle {
        let home = self.dir.home_of(block);
        self.arrival.fill(None);
        for dst in probe_set.iter() {
            if dst == core {
                continue;
            }
            let t = self.send(core, dst, probe_kind, t0);
            self.arrival[dst.index()] = Some(t);
            self.probe_remote(dst, block, core, pc);
        }
        let mut done = t0;
        match owner {
            Some(o) if o != core && self.arrival[o.index()].is_some() => {
                let t_probe = self.arrival[o.index()].expect("checked above");
                done = done.max(self.send(o, core, MsgKind::DataResponse, t_probe + self.l2_lat));
            }
            _ => {
                let t_home = match self.arrival[home.index()] {
                    Some(t) => t,
                    None => self.send(core, home, probe_kind, t0),
                };
                let t_mem = t_home + self.m.mem_latency;
                done = done.max(self.send(home, core, MsgKind::DataResponse, t_mem));
            }
        }
        if kind.is_exclusive() {
            for s in targets.iter() {
                let Some(t_probe) = self.arrival[s.index()] else {
                    continue;
                };
                if Some(s) == owner {
                    continue;
                }
                let t_ack = t_probe + self.m.l2.tag_cycles;
                done = done.max(self.send(s, core, MsgKind::InvalidateAck, t_ack));
            }
        }
        for dst in probe_set.iter() {
            if dst == core || Some(dst) == owner || (kind.is_exclusive() && targets.contains(dst)) {
                continue;
            }
            self.send_untimed(dst, core, MsgKind::SnoopResponse);
        }
        done
    }

    fn predicted_path(
        &mut self,
        core: CoreId,
        t0: Cycle,
        kind: AccessKind,
        owner: Option<CoreId>,
        targets: CoreSet,
        miss: MissInfo,
    ) -> Cycle {
        let c = core.index();
        let block = miss.block;
        let mut pset = self.predict(c, miss);
        pset.remove(core);
        let sufficient = !pset.is_empty() && pset.is_superset(targets);
        if pset.is_empty() {
            let done = self.directory_path(core, t0, block, kind, owner, targets);
            let outcome = PredictionOutcome {
                actual: targets,
                predicted: CoreSet::empty(),
                sufficient: false,
            };
            self.train(c, miss, outcome);
            return done;
        }
        self.rec.fidelity.predictions += 1;
        self.rec.fidelity.pred_sufficient += sufficient as u64;

        let home = self.dir.home_of(block);
        let (l2_lat, l2_tag) = (self.l2_lat, self.m.l2.tag_cycles);
        self.arrival.fill(None);
        for p in pset.iter() {
            let t = self.send(core, p, MsgKind::PredictedRequest, t0);
            self.arrival[p.index()] = Some(t);
            self.probe_remote(p, block, core, miss.pc);
        }
        let t_dir = self.send(core, home, MsgKind::Request, t0) + self.m.dir_latency;
        let done = match kind {
            AccessKind::Read => match owner {
                Some(o) if o != core => match self.arrival[o.index()] {
                    Some(t_arr) => {
                        let t_data = self.send(o, core, MsgKind::DataResponse, t_arr + l2_lat);
                        self.send(o, home, MsgKind::DirectoryUpdate, t_data);
                        t_data
                    }
                    None => {
                        let t_fwd = self.send(home, o, MsgKind::Forward, t_dir);
                        self.probe_remote(o, block, core, 0);
                        self.send(o, core, MsgKind::DataResponse, t_fwd + l2_lat)
                    }
                },
                _ => self.send(
                    home,
                    core,
                    MsgKind::DataResponse,
                    t_dir + self.m.mem_latency,
                ),
            },
            AccessKind::Write | AccessKind::Upgrade => {
                let mut done = self.send(home, core, MsgKind::ControlResponse, t_dir);
                match owner {
                    Some(o) if o != core => {
                        let t_data = match self.arrival[o.index()] {
                            Some(t_arr) => {
                                self.send(o, core, MsgKind::DataResponse, t_arr + l2_lat)
                            }
                            None => {
                                let t_fwd = self.send(home, o, MsgKind::Forward, t_dir);
                                self.probe_remote(o, block, core, 0);
                                self.send(o, core, MsgKind::DataResponse, t_fwd + l2_lat)
                            }
                        };
                        done = done.max(t_data);
                    }
                    _ if kind == AccessKind::Write => {
                        let t_mem = t_dir + self.m.mem_latency;
                        done = done.max(self.send(home, core, MsgKind::DataResponse, t_mem));
                    }
                    _ => {}
                }
                for s in targets.iter() {
                    if Some(s) == owner {
                        continue;
                    }
                    let t_ack = match self.arrival[s.index()] {
                        Some(t_arr) => self.send(s, core, MsgKind::InvalidateAck, t_arr + l2_tag),
                        None => {
                            let t_inv = self.send(home, s, MsgKind::Invalidate, t_dir);
                            self.probe_remote(s, block, core, 0);
                            self.send(s, core, MsgKind::InvalidateAck, t_inv + l2_tag)
                        }
                    };
                    done = done.max(t_ack);
                }
                done
            }
        };
        for p in pset.iter() {
            let supplies = match kind {
                AccessKind::Read => owner == Some(p),
                _ => targets.contains(p),
            };
            if !supplies {
                let t_arr = self.arrival[p.index()].expect("predicted node was probed");
                self.send(p, core, MsgKind::Nack, t_arr);
            }
        }
        let outcome = PredictionOutcome {
            actual: targets,
            predicted: pset,
            sufficient,
        };
        self.train(c, miss, outcome);
        done
    }

    fn sync(&mut self, c: usize, kind: SyncKind, static_id: u32) -> Result<(), String> {
        let Some(&Op::Sync(point)) = self.threads[c].get(self.pc[c]) else {
            return Err(format!("core {c}: traced sync has no sync op"));
        };
        if point.kind != kind || point.static_id.raw() != static_id {
            return Err(format!("core {c}: traced sync differs from its op"));
        }
        self.pc[c] += 1;
        let core = CoreId::new(c);
        let t_sync = self.clock[c] + self.m.sync_trap_cost;
        let lock_id = || {
            point
                .lock
                .ok_or_else(|| format!("core {c}: lock op without a lock id"))
        };
        let next = match kind {
            SyncKind::Barrier => {
                self.notify_sync(c, point, None);
                self.rec.sync.push(SyncCall::Arrive(core, t_sync));
                match self.barrier.arrive(core, t_sync) {
                    Some(release) => {
                        self.rec.digests.sync =
                            self.rec.digests.sync.wrapping_add(release.as_u64());
                        for w in 0..self.n {
                            if w == c || self.at_barrier[w] {
                                self.at_barrier[w] = false;
                                self.clock[w] = release + (2 * w) as u64;
                            }
                        }
                        self.clock[c]
                    }
                    None => {
                        self.at_barrier[c] = true;
                        t_sync
                    }
                }
            }
            SyncKind::Lock => {
                let lock = lock_id()?;
                self.rec.sync.push(SyncCall::Acquire(lock, core, t_sync));
                match self.locks.acquire(lock, core, t_sync) {
                    Acquire::Granted { at, prev_holder } => {
                        self.rec.digests.sync = self.rec.digests.sync.wrapping_add(at.as_u64());
                        self.notify_sync(c, point, prev_holder);
                        at + 1
                    }
                    Acquire::Queued => {
                        self.rec.digests.sync = self.rec.digests.sync.wrapping_add(1);
                        self.rec.fidelity.sync_divergences += 1;
                        self.notify_sync(c, point, None);
                        t_sync + 1
                    }
                }
            }
            SyncKind::Unlock => {
                let lock = lock_id()?;
                self.notify_sync(c, point, None);
                self.rec.sync.push(SyncCall::Release(lock, core, t_sync));
                if let Some((_, grant, _)) = self.locks.release(lock, core, t_sync) {
                    self.rec.digests.sync = self.rec.digests.sync.wrapping_add(grant.as_u64());
                    self.rec.fidelity.sync_divergences += 1;
                }
                t_sync + 1
            }
            _ => {
                self.notify_sync(c, point, None);
                t_sync + 1
            }
        };
        self.retire(c, next);
        Ok(())
    }
}

fn record_update(dir: &mut Directory, update: DirUpdate, block: BlockAddr, core: CoreId) {
    match update {
        DirUpdate::Exclusive => dir.record_exclusive(block, core),
        DirUpdate::Shared => dir.record_shared(block, core),
        DirUpdate::SharedNoForward => dir.record_shared_no_forward(block, core),
    }
}

// ---- timed pass -------------------------------------------------------

/// Fresh instances of every layer for the timed pass. They persist across
/// chunks, so each chunk continues from the state the previous one left.
struct Timer {
    l1: Vec<SetAssocCache<()>>,
    l2: Vec<SetAssocCache<LineState>>,
    dir: Directory,
    fabric: Fabric,
    pred_layer: Option<&'static str>,
    preds: Vec<PredictorSlot>,
    trackers: Vec<EpochTracker>,
    barrier: BarrierState,
    locks: LockRuntime,
    queue: EventQueue<u8>,
    digests: Digests,
    layers: Vec<LayerCalls>,
}

/// Runs `f` as one span named `name` under `parent`.
fn batch<R>(spans: &mut Spans, parent: usize, name: &str, f: impl FnOnce() -> R) -> R {
    let id = spans.open(name, Some(parent));
    let out = f();
    spans.close(id);
    out
}

impl Timer {
    fn new(cfg: &RunConfig, n: usize) -> Self {
        let m = &cfg.machine;
        let mut queue = EventQueue::new();
        for c in 0..n {
            queue.push(Cycle::ZERO, c as u8);
        }
        Timer {
            l1: (0..n).map(|_| SetAssocCache::new(m.l1)).collect(),
            l2: (0..n).map(|_| SetAssocCache::new(m.l2)).collect(),
            dir: Directory::new(n),
            fabric: Fabric::new(m.noc.clone()),
            pred_layer: predictor_layer(&cfg.protocol),
            preds: build_predictors(cfg, n),
            trackers: (0..n).map(|_| EpochTracker::new()).collect(),
            barrier: BarrierState::new(n, m.barrier_cost),
            locks: LockRuntime::new(m.lock_transfer_cost),
            queue,
            digests: Digests::default(),
            layers: Vec::new(),
        }
    }

    fn account(&mut self, name: &'static str, calls: usize) {
        match self.layers.iter_mut().find(|l| l.name == name) {
            Some(l) => l.calls += calls as u64,
            None => self.layers.push(LayerCalls {
                name,
                calls: calls as u64,
            }),
        }
    }

    /// Times every layer's pending log as one batch each, under a
    /// `replay.timed` span below `parent`, and empties the logs.
    fn drain(&mut self, rec: &mut Recording, spans: &mut Spans, parent: usize) {
        let chunk = spans.open("replay.timed", Some(parent));

        let (l1, l2) = (&mut self.l1, &mut self.l2);
        let d = batch(spans, chunk, "mem.cache", || {
            let mut d = 0u64;
            for &call in &rec.cache {
                d += match call {
                    CacheCall::L1Lookup(c, b) => l1[c as usize].lookup(b).is_some(),
                    CacheCall::L1Insert(c, b) => l1[c as usize].insert(b, ()).is_some(),
                    CacheCall::L1Invalidate(c, b) => l1[c as usize].invalidate(b).is_some(),
                    CacheCall::L2Probe(c, b) => l2[c as usize].probe(b).is_some(),
                    CacheCall::L2Lookup(c, b) => l2[c as usize].lookup(b).is_some(),
                    CacheCall::L2Set(c, b, state) => match l2[c as usize].probe_mut(b) {
                        Some(s) => {
                            *s = state;
                            true
                        }
                        None => false,
                    },
                    CacheCall::L2Insert(c, b, state) => l2[c as usize].insert(b, state).is_some(),
                    CacheCall::L2Invalidate(c, b) => l2[c as usize].invalidate(b).is_some(),
                } as u64;
            }
            d
        });
        self.digests.cache += d;
        self.account("mem.cache", rec.cache.len());

        let dir = &mut self.dir;
        let d = batch(spans, chunk, "mem.dir", || {
            let mut d = 0u64;
            for &call in &rec.dir {
                match call {
                    DirCall::Txn {
                        kind,
                        core,
                        block,
                        targets,
                    } => {
                        let entry = dir.entry(block);
                        let supplier = protocol::supplier_of(&entry, true, |_| None);
                        let replayed = protocol::transaction_targets(kind, core, &entry, supplier);
                        let plan = protocol::commit_plan(kind, core, &entry, true, targets);
                        d += replayed.len() as u64 + plan.invalidated.len() as u64;
                    }
                    DirCall::Record(update, block, core) => record_update(dir, update, block, core),
                    DirCall::Drop(block, core) => dir.record_drop(block, core),
                }
            }
            d
        });
        self.digests.dir += d;
        self.account("mem.dir", rec.dir.len());

        let fabric = &mut self.fabric;
        let d = batch(spans, chunk, "noc", || {
            let mut d = 0u64;
            for &call in &rec.noc {
                match call {
                    NocCall::Send(src, dst, kind, t) => {
                        d = d.wrapping_add(fabric.send(src, dst, kind, t).as_u64());
                    }
                    NocCall::Untimed(src, dst, kind) => fabric.send_untimed(src, dst, kind),
                }
            }
            d
        });
        self.digests.noc = self.digests.noc.wrapping_add(d);
        self.account("noc", rec.noc.len());

        if let Some(layer) = self.pred_layer {
            let preds = &mut self.preds;
            let d = batch(spans, chunk, layer, || {
                let mut d = 0u64;
                for &call in &rec.pred {
                    match call {
                        PredCall::Predict(c, miss) => {
                            d += preds[c as usize].predict(&miss).len() as u64
                        }
                        PredCall::Train(c, miss, outcome) => {
                            preds[c as usize].train(&miss, outcome)
                        }
                        PredCall::Observe(c, miss, requester) => {
                            preds[c as usize].observe_remote_request(&miss, requester)
                        }
                        PredCall::Sync(c, point, prev) => {
                            preds[c as usize].on_sync_point(point, prev)
                        }
                    }
                }
                d
            });
            self.digests.pred += d;
            self.account(layer, rec.pred.len());
        }

        let (trackers, barrier, locks) = (&mut self.trackers, &mut self.barrier, &mut self.locks);
        let d = batch(spans, chunk, "sync", || {
            let mut d = 0u64;
            for &call in &rec.sync {
                d = d.wrapping_add(match call {
                    SyncCall::Observe(c, point) => {
                        trackers[c as usize].observe(point).started.instance
                    }
                    SyncCall::Arrive(core, t) => barrier.arrive(core, t).map_or(0, Cycle::as_u64),
                    SyncCall::Acquire(lock, core, t) => match locks.acquire(lock, core, t) {
                        Acquire::Granted { at, .. } => at.as_u64(),
                        Acquire::Queued => 1,
                    },
                    SyncCall::Release(lock, core, t) => locks
                        .release(lock, core, t)
                        .map_or(0, |(_, grant, _)| grant.as_u64()),
                });
            }
            d
        });
        self.digests.sync = self.digests.sync.wrapping_add(d);
        self.account("sync", rec.sync.len());

        let queue = &mut self.queue;
        let d = batch(spans, chunk, "sim.eventq", || {
            let mut d = 0u64;
            for &(t, c) in &rec.eventq {
                let (popped, _) = queue.pop().expect("the queue holds one entry per core");
                d = d.wrapping_add(popped.as_u64());
                queue.push(t, c);
            }
            d
        });
        black_box(d);
        self.account("sim.eventq", rec.eventq.len());

        spans.close(chunk);
        rec.cache.clear();
        rec.dir.clear();
        rec.noc.clear();
        rec.pred.clear();
        rec.sync.clear();
        rec.eventq.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcp_system::CmpSystem;
    use spcp_workloads::suite;

    fn replay_matches_real_run(bench: &str, protocol: ProtocolKind) {
        let workload = suite::by_name(bench).expect("in the suite").generate(16, 7);
        let cfg = RunConfig::new(MachineConfig::paper_16core(), protocol);
        let real = CmpSystem::run_workload(&workload, &cfg.clone().tracing());
        let mut spans = Spans::default();
        let root = spans.open("cell", None);
        let done = replay(&workload, &cfg, &real.trace, &mut spans, root)
            .expect("trace aligns with the ops");
        let f = done.fidelity;
        assert_eq!(f.ops, real.total_ops);
        assert_eq!(f.miss_events, real.l2_misses);
        assert_eq!(f.target_mismatches, 0);
        assert_eq!(f.noc_messages, real.noc.messages);
        assert_eq!(f.predictions, real.predictions);
        assert_eq!(f.pred_sufficient, real.pred_sufficient);
        assert_eq!(f.sp.map(|s| s.predictions), real.sp.map(|s| s.predictions));
        let layers = done.layers;
        let names: Vec<_> = layers.iter().map(|l| l.name).collect();
        let expected_pred = predictor_layer(&cfg.protocol).into_iter();
        let expected: Vec<_> = ["mem.cache", "mem.dir", "noc"]
            .into_iter()
            .chain(expected_pred)
            .chain(["sync", "sim.eventq"])
            .collect();
        assert_eq!(names, expected);
        assert_eq!(
            layers.iter().find(|l| l.name == "noc").map(|l| l.calls),
            Some(real.noc.messages)
        );
    }

    #[test]
    fn directory_replay_reproduces_the_real_run() {
        replay_matches_real_run("radiosity", ProtocolKind::Directory);
    }

    #[test]
    fn broadcast_replay_reproduces_the_real_run() {
        replay_matches_real_run("fft", ProtocolKind::Broadcast);
    }

    #[test]
    fn predicted_replay_reproduces_the_real_run() {
        replay_matches_real_run(
            "raytrace",
            ProtocolKind::Predicted(PredictorKind::sp_default()),
        );
    }

    #[test]
    fn misaligned_trace_is_rejected() {
        let workload = suite::by_name("fft").expect("in the suite").generate(16, 7);
        let cfg = RunConfig::new(MachineConfig::paper_16core(), ProtocolKind::Directory);
        let real = CmpSystem::run_workload(&workload, &cfg.clone().tracing());
        let mut trace = real.trace.clone();
        trace.retain(|e| !matches!(e, TraceEvent::Sync { .. }));
        let mut spans = Spans::default();
        let root = spans.open("cell", None);
        assert!(replay(&workload, &cfg, &trace, &mut spans, root).is_err());
    }
}
