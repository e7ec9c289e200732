//! The [`Cluster`]: one kernel, one fabric, one NIC per node, one profile.
//!
//! This is the top-level handle the verbs layer and the benchmarks build on.

use std::sync::Arc;

use rshuffle_obs::Obs;

use crate::kernel::{Kernel, SimContext, SimThreadId};
use crate::net::{Fabric, Topology};
use crate::nic::{FlowTable, NicModel};
use crate::profile::DeviceProfile;
use crate::NodeId;

/// A simulated cluster of `n` identical nodes on one switch.
#[derive(Clone)]
pub struct Cluster {
    kernel: Kernel,
    fabric: Arc<Fabric>,
    nics: Arc<Vec<NicModel>>,
    flows: Arc<FlowTable>,
    profile: Arc<DeviceProfile>,
    obs: Arc<Obs>,
}

impl Cluster {
    /// Creates a cluster of `nodes` nodes using `profile`'s hardware.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, profile: DeviceProfile) -> Self {
        Self::with_topology(nodes, profile, Topology::SingleSwitch)
    }

    /// Creates a cluster with an explicit switch [`Topology`]
    /// (multi-switch fat trees for the scale-out experiments;
    /// [`Topology::SingleSwitch`] is identical to [`Cluster::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn with_topology(nodes: usize, profile: DeviceProfile, topology: Topology) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        let obs = Obs::new();
        let kernel = Kernel::new();
        kernel.set_obs(obs.clone());
        // One set of running flows shared by the fabric ports and every NIC
        // pipeline, so a query gets its equal share at all its bottlenecks.
        let flows = Arc::new(FlowTable::new());
        let fabric = Fabric::with_topology(nodes, &profile, flows.clone(), topology);
        let fabric = Arc::new(fabric.with_obs(&obs));
        let nics = Arc::new(
            (0..nodes)
                .map(|node| NicModel::with_flows(&profile, obs.clone(), node as u32, flows.clone()))
                .collect(),
        );
        Cluster {
            kernel,
            fabric,
            nics,
            flows,
            profile: Arc::new(profile),
            obs,
        }
    }

    /// The cluster-shared set of running flows (fair arbitration).
    pub fn flows(&self) -> &Arc<FlowTable> {
        &self.flows
    }

    /// The virtual-time kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The shared observability context every tier records into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The switch fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Node `node`'s NIC model.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn nic(&self, node: NodeId) -> &NicModel {
        &self.nics[node]
    }

    /// The hardware profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.fabric.nodes()
    }

    /// Spawns a simulated worker thread on `node`.
    pub fn spawn<F>(&self, node: NodeId, name: &str, f: F) -> SimThreadId
    where
        F: FnOnce(SimContext) + Send + 'static,
    {
        assert!(node < self.nodes(), "node {node} out of range");
        self.kernel.spawn(node, name, f)
    }

    /// Runs the simulation to completion (see [`Kernel::run`]).
    pub fn run(&self) {
        self.kernel.run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn cluster_spawns_on_all_nodes() {
        let cluster = Cluster::new(4, DeviceProfile::fdr());
        let count = Arc::new(AtomicUsize::new(0));
        for node in 0..4 {
            let c = count.clone();
            cluster.spawn(node, &format!("n{node}"), move |sim| {
                assert_eq!(sim.node(), node);
                sim.sleep(SimDuration::from_micros(1));
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        cluster.run();
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spawn_on_missing_node_panics() {
        let cluster = Cluster::new(2, DeviceProfile::fdr());
        cluster.spawn(5, "bad", |_| {});
    }

    #[test]
    fn profile_is_shared() {
        let cluster = Cluster::new(2, DeviceProfile::edr());
        assert_eq!(cluster.profile().name, "EDR");
        assert_eq!(cluster.nodes(), 2);
    }
}
