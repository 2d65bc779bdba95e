//! The controller's topology view: directed switch-to-switch links inferred
//! from LLDP, with refresh/expiry and shortest-path search.
//!
//! Every dataplane Packet-In asks which ports are infrastructure and which
//! are on the broadcast tree. Like Floodlight's topology instance, those
//! answers come from an index built on first query after the link set
//! changes, not recomputed per packet; refreshing a known link keeps it.

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sdn_types::{DatapathId, Duration, PortNo, SimTime, SwitchPort};

/// A directed link from one switch port to another, as inferred from one
/// LLDP traversal (probe emitted at `src`, received at `dst`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DirectedLink {
    /// The emitting switch port.
    pub src: SwitchPort,
    /// The receiving switch port.
    pub dst: SwitchPort,
}

impl DirectedLink {
    /// Creates a link.
    pub fn new(src: SwitchPort, dst: SwitchPort) -> Self {
        DirectedLink { src, dst }
    }

    /// The same link in the opposite direction.
    pub fn reversed(&self) -> DirectedLink {
        DirectedLink {
            src: self.dst,
            dst: self.src,
        }
    }
}

/// Per-link state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkState {
    /// When the link was first inferred.
    pub first_seen: SimTime,
    /// When the link was last re-verified by LLDP.
    pub last_seen: SimTime,
    /// The most recent latency estimate, if LLDP timestamping is enabled
    /// (milliseconds).
    pub last_latency_ms: Option<f64>,
}

/// The link table.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    links: BTreeMap<DirectedLink, LinkState>,
    /// Views derived from the key set of `links`; dropped whenever a link
    /// is added or removed, rebuilt on the next query.
    index: OnceCell<Index>,
}

/// What the per-packet queries read, derived from the link set alone.
#[derive(Clone, Debug)]
struct Index {
    /// Every port that is an endpoint of a known link.
    endpoints: BTreeSet<SwitchPort>,
    /// dpid -> outgoing links, in link-key order (BFS tie-breaking).
    out: BTreeMap<DatapathId, Vec<DirectedLink>>,
    /// The ports on the BFS spanning tree (see [`Topology::spanning_tree`]).
    tree: BTreeSet<SwitchPort>,
}

impl Index {
    fn build(links: &BTreeMap<DirectedLink, LinkState>) -> Index {
        let mut endpoints = BTreeSet::new();
        let mut out: BTreeMap<DatapathId, Vec<DirectedLink>> = BTreeMap::new();
        // Undirected adjacency: dpid -> links out of it (either direction).
        let mut undirected: BTreeMap<DatapathId, Vec<DirectedLink>> = BTreeMap::new();
        for link in links.keys() {
            endpoints.insert(link.src);
            endpoints.insert(link.dst);
            out.entry(link.src.dpid).or_default().push(*link);
            undirected.entry(link.src.dpid).or_default().push(*link);
            undirected
                .entry(link.dst.dpid)
                .or_default()
                .push(link.reversed());
        }
        let mut tree: BTreeSet<SwitchPort> = BTreeSet::new();
        let mut visited: BTreeSet<DatapathId> = BTreeSet::new();
        for &root in undirected.keys() {
            if !visited.insert(root) {
                continue;
            }
            let mut queue = VecDeque::from([root]);
            while let Some(node) = queue.pop_front() {
                let Some(edges) = undirected.get(&node) else {
                    continue;
                };
                for link in edges {
                    if visited.insert(link.dst.dpid) {
                        tree.insert(link.src);
                        tree.insert(link.dst);
                        queue.push_back(link.dst.dpid);
                    }
                }
            }
        }
        Index {
            endpoints,
            out,
            tree,
        }
    }
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Records (or refreshes) a link observation. Returns `true` if the
    /// link is new.
    pub fn observe(&mut self, link: DirectedLink, now: SimTime, latency_ms: Option<f64>) -> bool {
        match self.links.get_mut(&link) {
            Some(state) => {
                state.last_seen = now;
                if latency_ms.is_some() {
                    state.last_latency_ms = latency_ms;
                }
                false
            }
            None => {
                self.index.take();
                self.links.insert(
                    link,
                    LinkState {
                        first_seen: now,
                        last_seen: now,
                        last_latency_ms: latency_ms,
                    },
                );
                true
            }
        }
    }

    /// Removes a link explicitly. Returns `true` if it existed.
    pub fn remove(&mut self, link: &DirectedLink) -> bool {
        let existed = self.links.remove(link).is_some();
        if existed {
            self.index.take();
        }
        existed
    }

    /// Expires links not re-verified within `timeout`, returning them.
    pub fn expire(&mut self, now: SimTime, timeout: Duration) -> Vec<DirectedLink> {
        let expired: Vec<DirectedLink> = self
            .links
            .iter()
            .filter(|(_, s)| now.since(s.last_seen) >= timeout)
            .map(|(l, _)| *l)
            .collect();
        for l in &expired {
            self.remove(l);
        }
        expired
    }

    /// Number of directed links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if no links are known.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Looks up a link's state.
    pub fn get(&self, link: &DirectedLink) -> Option<&LinkState> {
        self.links.get(link)
    }

    /// Returns `true` if the link is currently known.
    pub fn contains(&self, link: &DirectedLink) -> bool {
        self.links.contains_key(link)
    }

    /// Iterates all links.
    pub fn links(&self) -> impl Iterator<Item = (&DirectedLink, &LinkState)> {
        self.links.iter()
    }

    fn index(&self) -> &Index {
        self.index.get_or_init(|| Index::build(&self.links))
    }

    /// Returns `true` if `port` is an endpoint of any known link — an
    /// "infrastructure port" from which host learning is suppressed.
    pub fn is_infrastructure_port(&self, port: SwitchPort) -> bool {
        self.index().endpoints.contains(&port)
    }

    /// Shortest path (by hop count, BFS) from switch `from` to switch `to`.
    ///
    /// Returns the sequence of directed links to traverse; empty if
    /// `from == to`; `None` if unreachable.
    pub fn shortest_path(&self, from: DatapathId, to: DatapathId) -> Option<Vec<DirectedLink>> {
        if from == to {
            return Some(Vec::new());
        }
        let adj = &self.index().out;
        let mut prev: BTreeMap<DatapathId, DirectedLink> = BTreeMap::new();
        let mut visited: BTreeSet<DatapathId> = BTreeSet::new();
        let mut queue = VecDeque::new();
        visited.insert(from);
        queue.push_back(from);
        while let Some(node) = queue.pop_front() {
            if node == to {
                // Reconstruct.
                let mut path = Vec::new();
                let mut cur = to;
                while cur != from {
                    debug_assert!(prev.contains_key(&cur), "BFS recorded a predecessor");
                    let link = prev[&cur];
                    path.push(link);
                    cur = link.src.dpid;
                }
                path.reverse();
                return Some(path);
            }
            if let Some(out) = adj.get(&node) {
                for link in out {
                    let next = link.dst.dpid;
                    if visited.insert(next) {
                        prev.insert(next, *link);
                        queue.push_back(next);
                    }
                }
            }
        }
        None
    }

    /// The output port on `dpid` toward a destination switch, following the
    /// shortest path. `None` if unreachable.
    pub fn next_hop_port(&self, dpid: DatapathId, to: DatapathId) -> Option<PortNo> {
        let path = self.shortest_path(dpid, to)?;
        path.first().map(|l| l.src.port)
    }

    /// The set of switch ports on a deterministic BFS spanning tree of the
    /// switch graph (one tree per connected component, rooted at the
    /// component's smallest dpid, neighbors explored in link order).
    ///
    /// Flooding scoped to these trunk ports — plus any port not on a known
    /// link — delivers a broadcast to every switch exactly once even when
    /// the physical fabric has cycles (fat-tree, ring), which is how real
    /// controllers avoid broadcast storms without STP on the switches.
    pub fn spanning_tree(&self) -> &BTreeSet<SwitchPort> {
        &self.index().tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_prop::prelude::*;

    fn sp(d: u64, p: u16) -> SwitchPort {
        SwitchPort::new(DatapathId::new(d), PortNo::new(p))
    }

    fn link(a: (u64, u16), b: (u64, u16)) -> DirectedLink {
        DirectedLink::new(sp(a.0, a.1), sp(b.0, b.1))
    }

    /// A 3-switch line: 1 <-> 2 <-> 3 (both directions).
    fn line() -> Topology {
        let mut t = Topology::new();
        let now = SimTime::ZERO;
        t.observe(link((1, 2), (2, 1)), now, None);
        t.observe(link((2, 1), (1, 2)), now, None);
        t.observe(link((2, 2), (3, 1)), now, None);
        t.observe(link((3, 1), (2, 2)), now, None);
        t
    }

    /// A topology holding exactly `t`'s links, whose index has never been
    /// built: the oracle for `t`'s index.
    fn rebuilt(t: &Topology) -> Topology {
        let mut fresh = Topology::new();
        for (l, _) in t.links() {
            fresh.observe(*l, SimTime::ZERO, None);
        }
        fresh
    }

    #[test]
    fn observe_and_refresh() {
        let mut t = Topology::new();
        let l = link((1, 1), (2, 1));
        assert!(t.observe(l, SimTime::from_secs(1), Some(5.0)));
        assert!(!t.observe(l, SimTime::from_secs(2), None));
        let state = t.get(&l).unwrap();
        assert_eq!(state.first_seen, SimTime::from_secs(1));
        assert_eq!(state.last_seen, SimTime::from_secs(2));
        assert_eq!(state.last_latency_ms, Some(5.0), "latency retained");
    }

    #[test]
    fn expiry_follows_last_seen() {
        let mut t = Topology::new();
        let l1 = link((1, 1), (2, 1));
        let l2 = link((2, 1), (1, 1));
        t.observe(l1, SimTime::from_secs(0), None);
        t.observe(l2, SimTime::from_secs(0), None);
        t.observe(l1, SimTime::from_secs(20), None); // refresh only l1
        let expired = t.expire(SimTime::from_secs(35), Duration::from_secs(35));
        assert_eq!(expired, vec![l2]);
        assert!(t.contains(&l1));
    }

    #[test]
    fn infrastructure_ports() {
        let t = line();
        assert!(t.is_infrastructure_port(sp(1, 2)));
        assert!(t.is_infrastructure_port(sp(2, 1)));
        assert!(!t.is_infrastructure_port(sp(1, 1)));
    }

    #[test]
    fn shortest_path_on_line() {
        let t = line();
        let path = t
            .shortest_path(DatapathId::new(1), DatapathId::new(3))
            .unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0], link((1, 2), (2, 1)));
        assert_eq!(path[1], link((2, 2), (3, 1)));
        assert_eq!(
            t.next_hop_port(DatapathId::new(1), DatapathId::new(3)),
            Some(PortNo::new(2))
        );
    }

    #[test]
    fn path_to_self_is_empty() {
        let t = line();
        assert_eq!(
            t.shortest_path(DatapathId::new(2), DatapathId::new(2)),
            Some(vec![])
        );
    }

    #[test]
    fn unreachable_is_none() {
        let t = line();
        assert_eq!(
            t.shortest_path(DatapathId::new(1), DatapathId::new(9)),
            None
        );
    }

    #[test]
    fn shortest_path_prefers_fewer_hops() {
        // Diamond: 1->2->4, 1->3->4, plus direct 1->4.
        let mut t = Topology::new();
        let now = SimTime::ZERO;
        t.observe(link((1, 1), (2, 1)), now, None);
        t.observe(link((2, 2), (4, 1)), now, None);
        t.observe(link((1, 2), (3, 1)), now, None);
        t.observe(link((3, 2), (4, 2)), now, None);
        t.observe(link((1, 3), (4, 3)), now, None);
        let path = t
            .shortest_path(DatapathId::new(1), DatapathId::new(4))
            .unwrap();
        assert_eq!(path.len(), 1);
        assert_eq!(path[0], link((1, 3), (4, 3)));
    }

    #[test]
    fn remove_is_directional() {
        let mut t = line();
        assert!(t.remove(&link((1, 2), (2, 1))));
        assert!(!t.contains(&link((1, 2), (2, 1))));
        assert!(t.contains(&link((2, 1), (1, 2))));
    }

    #[test]
    fn spanning_tree_breaks_the_ring() {
        // 4-switch ring: 1-2-3-4-1, both directions on every trunk.
        let mut t = Topology::new();
        let now = SimTime::ZERO;
        for (a, b) in [
            ((1, 2), (2, 1)),
            ((2, 2), (3, 1)),
            ((3, 2), (4, 1)),
            ((4, 2), (1, 1)),
        ] {
            t.observe(link(a, b), now, None);
            t.observe(link(b, a), now, None);
        }
        let tree = t.spanning_tree();
        // A spanning tree of 4 nodes has 3 edges = 6 trunk ports; exactly
        // one ring segment (2 ports) is excluded.
        assert_eq!(tree.len(), 6, "{tree:?}");
        // Every switch is on the tree.
        let dpids: BTreeSet<u64> = tree.iter().map(|p| p.dpid.raw()).collect();
        assert_eq!(dpids, BTreeSet::from([1, 2, 3, 4]));
        // Deterministic: a topology rebuilt from the same links yields the
        // same tree.
        assert_eq!(rebuilt(&t).spanning_tree(), tree);
    }

    #[test]
    fn spanning_tree_of_a_line_keeps_every_trunk() {
        let t = line();
        let tree = t.spanning_tree();
        assert_eq!(
            *tree,
            BTreeSet::from([sp(1, 2), sp(2, 1), sp(2, 2), sp(3, 1)])
        );
    }

    /// Switches 1..=5 with ports 1..=3: small enough that random links
    /// collide, form cycles and leave some switches disconnected.
    const DPIDS: std::ops::Range<u64> = 1..6;
    const PORTS: std::ops::Range<u16> = 1..4;

    tm_prop! {
        /// The index never goes stale. Each step is one mutation — observe
        /// a new link, refresh a known one, remove a known one, or expire
        /// at a later time — chosen by `op`, with `pick` selecting the
        /// link. After every step (so the index is built before the next
        /// mutation) the indexed answers must equal a linear scan of
        /// `links()` and a topology rebuilt from them.
        #[test]
        fn index_tracks_every_link_set_change(
            pool in collection::vec(((DPIDS, PORTS), (DPIDS, PORTS)), 1..24),
            steps in collection::vec((0u8..4, 0usize..64, 0u64..8, 1u64..20), 1..48),
        ) {
            let pool: Vec<DirectedLink> = pool
                .iter()
                .map(|&(a, b)| link(a, b))
                .collect();
            let mut t = Topology::new();
            let mut now = SimTime::ZERO;
            for &(op, pick, dt_s, timeout_s) in &steps {
                now += Duration::from_secs(dt_s);
                let known: Vec<DirectedLink> = t.links().map(|(l, _)| *l).collect();
                let absent: Vec<DirectedLink> =
                    pool.iter().copied().filter(|l| !t.contains(l)).collect();
                match op {
                    0 if !absent.is_empty() => {
                        prop_assert!(t.observe(absent[pick % absent.len()], now, None));
                    }
                    1 if !known.is_empty() => {
                        prop_assert!(!t.observe(known[pick % known.len()], now, None));
                    }
                    2 if !known.is_empty() => {
                        prop_assert!(t.remove(&known[pick % known.len()]));
                    }
                    _ => {
                        t.expire(now, Duration::from_secs(timeout_s));
                    }
                }

                for d in DPIDS {
                    for p in PORTS {
                        let port = sp(d, p);
                        let scanned = t.links().any(|(l, _)| l.src == port || l.dst == port);
                        prop_assert_eq!(t.is_infrastructure_port(port), scanned, "{port:?}");
                    }
                }
                let fresh = rebuilt(&t);
                prop_assert_eq!(t.spanning_tree(), fresh.spanning_tree());
                for from in DPIDS {
                    for to in DPIDS {
                        let (from, to) = (DatapathId::new(from), DatapathId::new(to));
                        prop_assert_eq!(t.shortest_path(from, to), fresh.shortest_path(from, to));
                    }
                }
            }
        }
    }
}
