//! The timed network fabric: wormhole-approximate contention, bandwidth and
//! energy accounting.

use crate::mesh::{Link, Mesh};
use crate::message::MsgKind;
use spcp_sim::{CoreId, Cycle};

/// Configuration of the mesh NoC (defaults = Table 4 of the paper).
///
/// # Examples
///
/// ```
/// use spcp_noc::NocConfig;
///
/// let cfg = NocConfig::default();
/// assert_eq!(cfg.width, 4);
/// assert_eq!(cfg.router_cycles, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Mesh width (columns). Paper: 4.
    pub width: usize,
    /// Mesh height (rows). Paper: 4.
    pub height: usize,
    /// Router pipeline depth in cycles. Paper: 2-stage.
    pub router_cycles: u64,
    /// Link traversal latency in cycles.
    pub link_cycles: u64,
    /// Flit width in bytes (serialization granularity).
    pub flit_bytes: u64,
    /// Energy to move one byte over one link, in arbitrary units.
    pub link_energy_per_byte: f64,
    /// Energy to move one byte through one router; the paper's §5.3 model
    /// sets this to 4× the link energy.
    pub router_energy_per_byte: f64,
    /// When `false`, link contention is ignored and every message sees the
    /// uncontended pipeline latency (useful for analytic tests).
    pub model_contention: bool,
    /// Virtual channels per directed link: concurrent reservations a link
    /// can hold before the head flit must queue.
    pub virtual_channels: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        let link = 1.0;
        NocConfig {
            width: 4,
            height: 4,
            router_cycles: 2,
            link_cycles: 1,
            flit_bytes: 16,
            link_energy_per_byte: link,
            router_energy_per_byte: 4.0 * link,
            model_contention: true,
            virtual_channels: 4,
        }
    }
}

impl NocConfig {
    /// Number of nodes in the mesh.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }
}

/// Aggregate traffic statistics for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NocStats {
    /// Number of messages injected.
    pub messages: u64,
    /// Total bytes injected (sum of message sizes).
    pub bytes_injected: u64,
    /// Total byte·hops moved (bytes × links traversed); the bandwidth
    /// measure used for the paper's Figure 9.
    pub byte_hops: u64,
    /// Byte·hops of control-only messages (requests, probes, acks); the
    /// "request bandwidth" the destination-set-prediction literature
    /// compares on.
    pub ctrl_byte_hops: u64,
    /// Total energy consumed in links and routers (arbitrary units).
    pub energy: f64,
    /// Cycles messages spent waiting for contended links.
    pub contention_cycles: u64,
}

impl NocStats {
    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &NocStats) {
        self.messages += other.messages;
        self.bytes_injected += other.bytes_injected;
        self.byte_hops += other.byte_hops;
        self.ctrl_byte_hops += other.ctrl_byte_hops;
        self.energy += other.energy;
        self.contention_cycles += other.contention_cycles;
    }

    /// Accounts a `bytes`-sized message moved over `hops` hops: byte·hops
    /// (control-only messages also in the request-bandwidth bucket) and
    /// the §5.3 energy model, in which each hop moves the bytes through
    /// one router and one link.
    fn add_hops(&mut self, kind: MsgKind, bytes: u64, hops: u64, cfg: &NocConfig) {
        self.byte_hops += bytes * hops;
        if !kind.carries_data() {
            self.ctrl_byte_hops += bytes * hops;
        }
        self.energy +=
            bytes as f64 * hops as f64 * (cfg.link_energy_per_byte + cfg.router_energy_per_byte);
    }
}

/// The timed mesh network.
///
/// `Fabric` routes each message along its deterministic X-Y path, reserving
/// each directed link for the message's serialization time. The head flit
/// pays `router_cycles + link_cycles` per hop; the tail occupies each link
/// for `ceil(bytes / flit_bytes)` cycles, so back-to-back messages over a
/// shared link queue behind each other — a faithful first-order wormhole
/// approximation without per-flit simulation.
///
/// Zero-hop messages (to the local tile) are delivered immediately and add
/// no traffic.
///
/// # Examples
///
/// ```
/// use spcp_noc::{Fabric, MsgKind, NocConfig};
/// use spcp_sim::{CoreId, Cycle};
///
/// let mut f = Fabric::new(NocConfig::default());
/// let t1 = f.send(CoreId::new(0), CoreId::new(1), MsgKind::Request, Cycle::ZERO);
/// // one hop: 2-cycle router + 1-cycle link
/// assert_eq!(t1, Cycle::new(3));
/// assert_eq!(f.stats().messages, 1);
/// ```
#[derive(Debug)]
pub struct Fabric {
    mesh: Mesh,
    cfg: NocConfig,
    routes: RouteTable,
    reservations: VcTable,
    stats: NocStats,
}

/// Every X-Y route of the mesh, precomputed: the hot path reads a route's
/// hop count and link list with one multiply-add and two loads instead of
/// re-deriving coordinates (a divide and a modulo per endpoint) on every
/// send.
///
/// A route is a run of *dense link indices* (`node × 4 + direction`, see
/// [`dense_link`]) in travel order; the runs of all `nodes²` ordered pairs
/// are concatenated in `links`, and pair `src × nodes + dst` owns
/// `links[start[pair]..start[pair + 1]]`. The table therefore holds
/// Σ hops over all ordered pairs — O(nodes² × diameter) — `u16` link
/// indices plus `nodes² + 1` `u32` offsets: 2.3 KB for the paper's 4×4
/// mesh (640 links, 257 offsets) and 59 KB at 64 nodes (8×8: 21 504
/// links = 43 KB, plus 16 KB of offsets). It is built once per fabric.
#[derive(Debug)]
struct RouteTable {
    nodes: usize,
    start: Vec<u32>,
    links: Vec<u16>,
}

impl RouteTable {
    fn new(mesh: &Mesh) -> Self {
        let nodes = mesh.nodes();
        assert!(
            nodes * 4 <= usize::from(u16::MAX) + 1,
            "a {nodes}-node mesh has more directed links than u16 link indices cover"
        );
        let mut start = Vec::with_capacity(nodes * nodes + 1);
        let mut links = Vec::new();
        start.push(0);
        for src in 0..nodes {
            for dst in 0..nodes {
                let route = mesh.route_iter(CoreId::new(src), CoreId::new(dst));
                links.extend(route.map(|link| dense_link(link) as u16));
                let end = u32::try_from(links.len()).expect("route table exceeds u32 offsets");
                start.push(end);
            }
        }
        RouteTable {
            nodes,
            start,
            links,
        }
    }

    /// The dense link indices of the X-Y route `src → dst`, in travel
    /// order (empty when `src == dst`).
    ///
    /// # Panics
    ///
    /// Panics if either core is outside the mesh.
    #[inline]
    fn route(&self, src: CoreId, dst: CoreId) -> &[u16] {
        let (s, d) = (src.index(), dst.index());
        assert!(
            s < self.nodes && d < self.nodes,
            "route {s} -> {d} outside a {}-node mesh",
            self.nodes
        );
        let pair = s * self.nodes + d;
        &self.links[self.start[pair] as usize..self.start[pair + 1] as usize]
    }
}

/// Dense index of a directed link in `[0, nodes × 4)`: the row of its VC
/// slots in [`VcTable`].
fn dense_link(link: Link) -> usize {
    link.from * 4 + link.dir.index()
}

/// Virtual-channel reservations of every directed link.
///
/// The directed links of a mesh are a small dense set — at most 4 per
/// node — so reservations live in one flat array indexed by
/// `dense_link × vcs + vc`: no hashing, no per-link heap allocation, and
/// `reset` is a `fill`.
#[derive(Debug)]
struct VcTable {
    /// Virtual channels per directed link (`cfg.virtual_channels.max(1)`).
    vcs: usize,
    /// Next cycle at which each virtual channel of each directed link is
    /// free.
    link_free: Vec<Cycle>,
    /// Per-link last-commit watermark: the latest reservation end ever
    /// written to any VC of the link. Every commit raises it, so no VC
    /// slot may hold a cycle beyond it — the invariant [`Fabric::audit`]
    /// checks after batched route commits.
    last_commit: Vec<Cycle>,
}

impl VcTable {
    fn new(nodes: usize, vcs: usize) -> Self {
        VcTable {
            vcs,
            link_free: vec![Cycle::ZERO; nodes * 4 * vcs],
            last_commit: vec![Cycle::ZERO; nodes * 4],
        }
    }

    fn reset(&mut self) {
        self.link_free.fill(Cycle::ZERO);
        self.last_commit.fill(Cycle::ZERO);
    }

    /// Commits every hop of `route` (dense link indices, in travel order)
    /// in one pass over `link_free`, each link held for `hold` cycles.
    /// Returns the head flit's arrival time and the cycles it spent
    /// queued for busy links.
    ///
    /// Commits are sequential — each hop re-reads its link's slots at
    /// commit time — so a route that crosses the same link twice
    /// correctly queues its second crossing behind its first (see the
    /// regression test below; X-Y routing never produces such a route,
    /// but the commit protocol must not silently depend on that). Every
    /// commit also raises the link's `last_commit` watermark, which
    /// [`Fabric::audit`] checks against the slot table after a run.
    #[inline]
    fn commit(&mut self, route: &[u16], depart: Cycle, hold: u64, cfg: &NocConfig) -> (Cycle, u64) {
        let mut head = depart;
        let mut waited = 0;
        for &link in route {
            let link = usize::from(link);
            let base = link * self.vcs;
            // Router pipeline for the head flit.
            head += cfg.router_cycles;
            let slots = &mut self.link_free[base..base + self.vcs];
            // Grab the earliest-free virtual channel (first on ties).
            let slot = slots
                .iter_mut()
                .min_by_key(|c| **c)
                .expect("at least one VC");
            if *slot > head {
                waited += (*slot - head).as_u64();
                head = *slot;
            }
            // The channel is busy for the serialization time of the body.
            let end = head + hold;
            *slot = end;
            let mark = &mut self.last_commit[link];
            *mark = (*mark).max(end);
            head += cfg.link_cycles;
        }
        (head, waited)
    }
}

impl Fabric {
    /// Creates a fabric from a configuration, precomputing its route
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if the mesh has more than 16384 nodes (link indices are
    /// `u16`).
    pub fn new(cfg: NocConfig) -> Self {
        let mesh = Mesh::new(cfg.width, cfg.height);
        Fabric {
            routes: RouteTable::new(&mesh),
            reservations: VcTable::new(cfg.nodes(), cfg.virtual_channels.max(1)),
            mesh,
            cfg,
            stats: NocStats::default(),
        }
    }

    /// The underlying topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Resets statistics and link reservations (used between measurement
    /// phases).
    pub fn reset(&mut self) {
        self.reservations.reset();
        self.stats = NocStats::default();
    }

    /// X-Y hop count from `src` to `dst`, read from the route table
    /// (equal to [`Mesh::hops`]).
    ///
    /// # Panics
    ///
    /// Panics if either core is outside the mesh.
    #[inline]
    pub fn hops(&self, src: CoreId, dst: CoreId) -> u64 {
        self.routes.route(src, dst).len() as u64
    }

    /// Number of flits a message of `bytes` serializes into.
    fn flits(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.cfg.flit_bytes).max(1)
    }

    /// Sends one message, returning its arrival time at `dst`.
    ///
    /// Accounts bandwidth and energy, and models head-of-line link
    /// contention when enabled. A message to the local tile arrives
    /// immediately.
    ///
    /// The route's hop count and links come from the precomputed route
    /// table; all hops are then reserved in a single pass over the VC
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if either core is outside the mesh.
    pub fn send(&mut self, src: CoreId, dst: CoreId, kind: MsgKind, depart: Cycle) -> Cycle {
        let bytes = kind.bytes();
        self.stats.messages += 1;
        self.stats.bytes_injected += bytes;

        if src == dst {
            return depart;
        }

        let route = self.routes.route(src, dst);
        let hops = route.len() as u64;
        self.stats.add_hops(kind, bytes, hops, &self.cfg);

        if !self.cfg.model_contention {
            // Pure pipeline latency; no reservation state to touch.
            return depart + self.pipe_latency(hops);
        }

        let hold = self.flits(bytes) * self.cfg.link_cycles;
        let (arrival, waited) = self.reservations.commit(route, depart, hold, &self.cfg);
        self.stats.contention_cycles += waited;
        arrival
    }

    /// Accounts a message's bandwidth and energy without timing it or
    /// reserving links.
    ///
    /// Used for background traffic that real hardware aggregates or
    /// combines off the critical path (e.g. snoop responses on an ordered
    /// interconnect): the bytes are real, the serialization is not
    /// modelled.
    pub fn send_untimed(&mut self, src: CoreId, dst: CoreId, kind: MsgKind) {
        let bytes = kind.bytes();
        self.stats.messages += 1;
        self.stats.bytes_injected += bytes;
        if src == dst {
            return;
        }
        let hops = self.hops(src, dst);
        self.stats.add_hops(kind, bytes, hops, &self.cfg);
    }

    /// Sends the same message to every core in `targets`, returning the
    /// latest arrival. Used for invalidation fan-out and snoop broadcast.
    pub fn multicast(
        &mut self,
        src: CoreId,
        targets: impl IntoIterator<Item = CoreId>,
        kind: MsgKind,
        depart: Cycle,
    ) -> Cycle {
        let mut latest = depart;
        for dst in targets {
            let t = self.send(src, dst, kind, depart);
            latest = latest.max(t);
        }
        latest
    }

    /// Uncontended latency of a `bytes`-sized message over `hops` hops.
    ///
    /// This is the analytic pipeline latency (no queuing):
    /// `hops × (router + link)`.
    pub fn pipe_latency(&self, hops: u64) -> u64 {
        hops * (self.cfg.router_cycles + self.cfg.link_cycles)
    }

    /// Audits the fabric's internal accounting: the VC reservation table
    /// has exactly `nodes × 4 directions × vcs` slots, the traffic
    /// counters are mutually consistent, and the batched reservation pass
    /// left no VC slot holding a cycle beyond its link's last-commit
    /// watermark. Slots only ever move forward via commits and every
    /// commit raises the watermark, so a slot ahead of it means a staged
    /// reservation bypassed the commit bookkeeping (e.g. a stale base
    /// captured before an earlier hop of the same route moved the link).
    /// Cheap (one pass over the small slot table plus a few compares), so
    /// the runtime invariant layer can call it per transaction.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn audit(&self) -> Result<(), String> {
        let VcTable {
            vcs,
            link_free,
            last_commit,
        } = &self.reservations;
        let vcs = *vcs;
        let want = self.cfg.nodes() * 4 * vcs;
        if link_free.len() != want {
            return Err(format!(
                "VC reservation table has {} slots, geometry implies {want}",
                link_free.len()
            ));
        }
        if last_commit.len() != self.cfg.nodes() * 4 {
            return Err(format!(
                "last-commit table has {} links, geometry implies {}",
                last_commit.len(),
                self.cfg.nodes() * 4
            ));
        }
        for (slot, &free_at) in link_free.iter().enumerate() {
            let link = slot / vcs;
            if free_at > last_commit[link] {
                return Err(format!(
                    "VC slot {slot} free at {free_at}, beyond link {link}'s \
                     last commit {}",
                    last_commit[link]
                ));
            }
        }
        if vcs != self.cfg.virtual_channels.max(1) {
            return Err(format!(
                "cached VC count {} disagrees with config {}",
                vcs, self.cfg.virtual_channels
            ));
        }
        if self.stats.ctrl_byte_hops > self.stats.byte_hops {
            return Err(format!(
                "control byte-hops {} exceed total byte-hops {}",
                self.stats.ctrl_byte_hops, self.stats.byte_hops
            ));
        }
        if self.stats.messages == 0 && (self.stats.bytes_injected != 0 || self.stats.byte_hops != 0)
        {
            return Err("traffic accounted with zero messages injected".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Direction;

    fn fabric() -> Fabric {
        Fabric::new(NocConfig::default())
    }

    #[test]
    fn local_delivery_is_instant() {
        let mut f = fabric();
        let t = f.send(
            CoreId::new(3),
            CoreId::new(3),
            MsgKind::Request,
            Cycle::new(10),
        );
        assert_eq!(t, Cycle::new(10));
        assert_eq!(f.stats().byte_hops, 0);
        assert_eq!(f.stats().messages, 1);
    }

    #[test]
    fn one_hop_latency_is_router_plus_link() {
        let mut f = fabric();
        let t = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::Request,
            Cycle::ZERO,
        );
        assert_eq!(t.as_u64(), 3);
    }

    #[test]
    fn corner_to_corner_latency() {
        let mut f = fabric();
        // 6 hops * (2+1) = 18 cycles uncontended.
        let t = f.send(
            CoreId::new(0),
            CoreId::new(15),
            MsgKind::Request,
            Cycle::ZERO,
        );
        assert_eq!(t.as_u64(), 18);
    }

    #[test]
    fn bandwidth_counts_byte_hops() {
        let mut f = fabric();
        f.send(
            CoreId::new(0),
            CoreId::new(2),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        // 72 bytes * 2 hops
        assert_eq!(f.stats().byte_hops, 144);
        assert_eq!(f.stats().bytes_injected, 72);
    }

    #[test]
    fn energy_uses_router_4x_link_model() {
        let cfg = NocConfig::default();
        let mut f = Fabric::new(cfg.clone());
        f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::Request,
            Cycle::ZERO,
        );
        let expected = 8.0 * 1.0 * (cfg.link_energy_per_byte + cfg.router_energy_per_byte);
        assert!((f.stats().energy - expected).abs() < 1e-9);
    }

    #[test]
    fn contention_delays_message_when_vcs_exhausted() {
        let mut f = Fabric::new(NocConfig {
            virtual_channels: 1,
            ..NocConfig::default()
        });
        // Two data messages over the same single-VC link at the same cycle.
        let t1 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        let t2 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        assert!(t2 > t1, "second message must queue behind the first");
        assert!(f.stats().contention_cycles > 0);
    }

    #[test]
    fn virtual_channels_absorb_small_bursts() {
        let mut f = fabric(); // 4 VCs by default
        let t1 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        let t2 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        assert_eq!(t1, t2, "a 4-VC link passes two concurrent messages");
        // A fifth concurrent message exhausts the VCs.
        for _ in 0..2 {
            f.send(
                CoreId::new(0),
                CoreId::new(1),
                MsgKind::DataResponse,
                Cycle::ZERO,
            );
        }
        let t5 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        assert!(t5 > t1);
    }

    #[test]
    fn no_contention_when_disabled() {
        let mut f = Fabric::new(NocConfig {
            model_contention: false,
            ..NocConfig::default()
        });
        let t1 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        let t2 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        assert_eq!(t1, t2);
        assert_eq!(f.stats().contention_cycles, 0);
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut f = fabric();
        let t1 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::Request,
            Cycle::ZERO,
        );
        let t2 = f.send(
            CoreId::new(8),
            CoreId::new(9),
            MsgKind::Request,
            Cycle::ZERO,
        );
        assert_eq!(t1, t2);
        assert_eq!(f.stats().contention_cycles, 0);
    }

    #[test]
    fn multicast_returns_latest_arrival() {
        let mut f = fabric();
        let t = f.multicast(
            CoreId::new(0),
            [CoreId::new(1), CoreId::new(15)],
            MsgKind::Invalidate,
            Cycle::ZERO,
        );
        // Farthest target dominates: 6 hops * 3 = 18; the shared initial
        // link has spare virtual channels so nothing queues.
        assert_eq!(t.as_u64(), 18);
        assert_eq!(f.stats().messages, 2);
    }

    #[test]
    fn reset_clears_everything() {
        let mut f = fabric();
        f.send(
            CoreId::new(0),
            CoreId::new(5),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        f.reset();
        assert_eq!(*f.stats(), NocStats::default());
    }

    #[test]
    fn stats_merge_adds_fields() {
        let a = NocStats {
            messages: 1,
            bytes_injected: 8,
            byte_hops: 16,
            ctrl_byte_hops: 16,
            energy: 5.0,
            contention_cycles: 2,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.messages, 2);
        assert_eq!(b.byte_hops, 32);
        assert!((b.energy - 10.0).abs() < 1e-12);
    }

    #[test]
    fn pipe_latency_matches_uncontended_send() {
        let f = fabric();
        assert_eq!(f.pipe_latency(6), 18);
    }

    #[test]
    fn route_table_matches_mesh_routes_and_hops() {
        // Every ordered pair of square, rectangular, single-column and
        // large meshes: the table's link run is the mesh's X-Y route, link
        // by link, and its length is the Manhattan distance. The total
        // link count is the size the `RouteTable` docs quote.
        for (width, height, links) in [(4, 4, 640), (5, 3, 560), (1, 7, 112), (8, 8, 21_504)] {
            let f = Fabric::new(NocConfig {
                width,
                height,
                ..NocConfig::default()
            });
            let nodes = width * height;
            for s in 0..nodes {
                for d in 0..nodes {
                    let (src, dst) = (CoreId::new(s), CoreId::new(d));
                    let table: Vec<usize> = f
                        .routes
                        .route(src, dst)
                        .iter()
                        .map(|&l| usize::from(l))
                        .collect();
                    let mesh: Vec<usize> =
                        f.mesh.route(src, dst).into_iter().map(dense_link).collect();
                    assert_eq!(table, mesh, "{width}x{height}: {s} -> {d}");
                    assert_eq!(
                        f.hops(src, dst),
                        f.mesh.hops(src, dst) as u64,
                        "{width}x{height}: {s} -> {d}"
                    );
                }
            }
            assert_eq!(f.routes.links.len(), links, "{width}x{height}");
            assert_eq!(f.routes.start.len(), nodes * nodes + 1);
        }
    }

    #[test]
    #[should_panic(expected = "outside a 16-node mesh")]
    fn route_to_core_outside_mesh_panics() {
        fabric().send(
            CoreId::new(0),
            CoreId::new(16),
            MsgKind::Request,
            Cycle::ZERO,
        );
    }

    /// Regression for the per-hop path's edge case: a route crossing the
    /// same link twice. X-Y routing cannot produce one, but the commit
    /// protocol must stay sequential — a batched variant that captured
    /// slot *values* up front would hand both crossings the same free
    /// cycle and lose the queueing. Fed directly as a link slice.
    #[test]
    fn duplicate_link_route_queues_second_crossing() {
        let mut f = Fabric::new(NocConfig {
            virtual_channels: 1,
            ..NocConfig::default()
        });
        let link = dense_link(Link {
            from: 0,
            dir: Direction::East,
        });
        let route = [link as u16; 2];
        // 4 flits hold the link 4 cycles per crossing (link_cycles = 1).
        let (arrival, waited) = f.reservations.commit(&route, Cycle::ZERO, 4, &f.cfg);
        // Hop 1: router 2 → head 2, reserve [2, 6), link 1 → head 3.
        // Hop 2: router 2 → head 5, slot busy until 6 → 1 contention
        // cycle, reserve [6, 10), link 1 → arrival 7.
        assert_eq!(arrival, Cycle::new(7));
        assert_eq!(waited, 1);
        assert_eq!(f.reservations.link_free[link], Cycle::new(10));
        assert_eq!(f.reservations.last_commit[link], Cycle::new(10));
        f.audit()
            .expect("sequential commit keeps the watermark exact");
    }

    #[test]
    fn audit_catches_slot_beyond_watermark() {
        let mut f = fabric();
        f.send(
            CoreId::new(0),
            CoreId::new(3),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        f.audit().expect("clean run");
        // Corrupt one reserved slot past its link's watermark: the audit
        // must name it.
        let link = dense_link(Link {
            from: 0,
            dir: Direction::East,
        });
        let v = &mut f.reservations;
        v.link_free[link * v.vcs] = v.last_commit[link] + 1;
        let err = f.audit().expect_err("corruption undetected");
        assert!(
            err.contains("last commit"),
            "unexpected audit message: {err}"
        );
    }

    #[test]
    fn watermark_survives_reset() {
        let mut f = fabric();
        f.send(
            CoreId::new(0),
            CoreId::new(5),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        f.reset();
        assert!(f.reservations.last_commit.iter().all(|&c| c == Cycle::ZERO));
        f.audit().expect("reset state is consistent");
    }
}
