//! The transmission group abstraction (§4.1, Figure 3).
//!
//! A sending node's communication pattern is described by a list of
//! *transmission groups*: the shuffle operator hashes every tuple to a group
//! index, and the buffer is transmitted to **every** node in that group.
//!
//! * Repartition: `G = {{B}, {C}, {D}}` — singleton groups.
//! * Multicast:   `G = {{B, C}, {D}}` — data for group 0 reaches B and C.
//! * Broadcast:   `G = {{B, C, D}}` — a single group with every other node.

use rshuffle_simnet::NodeId;

/// The transmission groups of one sending node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransmissionGroups {
    groups: Vec<Vec<NodeId>>,
}

impl TransmissionGroups {
    /// Creates groups from an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if any group is empty or a node appears twice within a group.
    pub fn new(groups: Vec<Vec<NodeId>>) -> Self {
        for (i, g) in groups.iter().enumerate() {
            assert!(!g.is_empty(), "transmission group {i} is empty");
            let mut sorted = g.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), g.len(), "group {i} contains duplicate nodes");
        }
        TransmissionGroups { groups }
    }

    /// Repartition pattern for `me` in an `n`-node cluster: one singleton
    /// group per *other* node (Figure 3a).
    pub fn repartition(me: NodeId, n: usize) -> Self {
        TransmissionGroups {
            groups: (0..n).filter(|&p| p != me).map(|p| vec![p]).collect(),
        }
    }

    /// Hash-partition pattern over all `n` nodes *including the sender*:
    /// one singleton group per node, so group index `i` routes to node `i`.
    /// Used by query plans, where a tuple hashed to the local node must
    /// stay local (delivered over NIC loopback).
    pub fn partition(n: usize) -> Self {
        TransmissionGroups {
            groups: (0..n).map(|p| vec![p]).collect(),
        }
    }

    /// Broadcast pattern for `me`: a single group with every other node
    /// (Figure 3c), listed from `me + 1` round, as `rotation` walks.
    pub fn broadcast(me: NodeId, n: usize) -> Self {
        TransmissionGroups {
            groups: vec![rotation(me + 1, n).filter(|&p| p != me).collect()],
        }
    }

    /// Number of groups (the range of the shuffle hash function).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The nodes of group `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn group(&self, i: usize) -> &[NodeId] {
        &self.groups[i]
    }

    /// Iterates over all groups.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        self.groups.iter().map(|g| g.as_slice())
    }

    /// All distinct destination nodes across all groups.
    pub fn destinations(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.groups.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Whether `node` is a destination of any group.
    pub fn targets(&self, node: NodeId) -> bool {
        self.groups.iter().any(|g| g.contains(&node))
    }
}

/// The `n` slots from `start` round to `start - 1` (mod `n`): how a sender
/// walks its receivers and a reader its sources. All starting at slot 0,
/// they convoy; each starting after itself spreads them, as round-robin does.
pub(crate) fn rotation(start: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |k| (start + k) % n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repartition_excludes_self() {
        let g = TransmissionGroups::repartition(1, 4);
        assert_eq!(g.len(), 3);
        assert_eq!(g.group(0), &[0]);
        assert_eq!(g.group(1), &[2]);
        assert_eq!(g.group(2), &[3]);
        assert!(!g.targets(1));
    }

    #[test]
    fn broadcast_is_single_group_of_everyone_else() {
        let g = TransmissionGroups::broadcast(0, 4);
        assert_eq!(g.len(), 1);
        assert_eq!(g.group(0), &[1, 2, 3]);
    }

    #[test]
    fn broadcast_starts_after_the_sender_and_destinations_stay_sorted() {
        let g = TransmissionGroups::broadcast(2, 5);
        assert_eq!(g.group(0), &[3, 4, 0, 1]);
        assert_eq!(g.destinations(), vec![0, 1, 3, 4]);
        assert_eq!(TransmissionGroups::broadcast(4, 5).group(0), &[0, 1, 2, 3]);
        assert_eq!(rotation(7, 3).collect::<Vec<_>>(), [1, 2, 0]);
        assert_eq!(rotation(0, 0).count(), 0);
    }

    #[test]
    fn multicast_mixes_group_sizes() {
        // Figure 3b: node A multicasts to {B, C} and {D}.
        let g = TransmissionGroups::new(vec![vec![1, 2], vec![3]]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.destinations(), vec![1, 2, 3]);
    }

    #[test]
    fn destinations_dedup_across_groups() {
        let g = TransmissionGroups::new(vec![vec![1, 2], vec![2, 3]]);
        assert_eq!(g.destinations(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_group_rejected() {
        let _ = TransmissionGroups::new(vec![vec![1], vec![]]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_node_in_group_rejected() {
        let _ = TransmissionGroups::new(vec![vec![1, 1]]);
    }

    #[test]
    fn two_node_cluster_has_one_destination() {
        let g = TransmissionGroups::repartition(0, 2);
        assert_eq!(g.len(), 1);
        assert_eq!(g.group(0), &[1]);
    }
}
