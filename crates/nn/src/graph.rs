//! Network graphs: layers wired into a DAG.
//!
//! Networks are DAGs rather than chains because of ResNet skip connections
//! and GoogLeNet Inception branches, both of which the paper maps onto
//! ISOSceles's programmable interconnect (Fig. 13). Nodes must be added in
//! topological order (producers before consumers), which every builder in
//! [`crate::models`] naturally satisfies.

use crate::layer::{Layer, LayerKind};
use serde::{Deserialize, Serialize};

/// Index of a node (layer) within a [`Network`].
pub type NodeId = usize;

/// One node of the network DAG.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The layer at this node.
    pub layer: Layer,
    /// Producer nodes whose outputs this layer consumes. Empty for the
    /// network input.
    pub inputs: Vec<NodeId>,
}

/// A group of nodes the pipeline mapper treats as an atomic candidate
/// (e.g. one ResNet bottleneck block including its skip connection).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Block name (e.g. `layer2.1`).
    pub name: String,
    /// Member nodes, in topological order.
    pub members: Vec<NodeId>,
}

/// A CNN as a DAG of layers plus block-granularity hints.
///
/// # Examples
///
/// ```
/// use isos_nn::graph::Network;
/// use isos_nn::layer::{ActShape, Layer, LayerKind};
/// let mut net = Network::new("tiny");
/// let conv = Layer::new(
///     "conv",
///     LayerKind::Conv { r: 3, s: 3, stride: 1, pad: 1 },
///     ActShape::new(8, 8, 4),
///     8,
/// );
/// let id = net.add(conv, &[]);
/// assert_eq!(net.consumers(id), Vec::<usize>::new());
/// assert_eq!(net.len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Network {
    /// Network name (e.g. `ResNet-50 (96% weights pruned)`).
    pub name: String,
    nodes: Vec<Node>,
    blocks: Vec<Block>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            nodes: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Adds a layer whose inputs are the outputs of `inputs`, returning its
    /// id. Nodes must be added in topological order.
    ///
    /// # Panics
    ///
    /// Panics if an input id does not exist yet (which would break
    /// topological order).
    pub fn add(&mut self, layer: Layer, inputs: &[NodeId]) -> NodeId {
        let id = self.nodes.len();
        for &i in inputs {
            assert!(i < id, "input {i} of node {id} not yet added");
        }
        self.nodes.push(Node {
            layer,
            inputs: inputs.to_vec(),
        });
        id
    }

    /// Registers a block-granularity hint for the pipeline mapper.
    ///
    /// # Panics
    ///
    /// Panics if a member id does not exist.
    pub fn add_block(&mut self, name: &str, members: Vec<NodeId>) {
        for &m in &members {
            assert!(m < self.nodes.len(), "block member {m} does not exist");
        }
        self.blocks.push(Block {
            name: name.to_owned(),
            members,
        });
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes, in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The layer at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn layer(&self, id: NodeId) -> &Layer {
        &self.nodes[id].layer
    }

    /// Mutable access to the layer at `id` (used by pruning/sparsity
    /// profile passes).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn layer_mut(&mut self, id: NodeId) -> &mut Layer {
        &mut self.nodes[id].layer
    }

    /// The block hints.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Ids of nodes that consume `id`'s output.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.inputs.contains(&id))
            .map(|(i, _)| i)
            .collect()
    }

    /// The consumers of every node at once, built in one O(N) pass (see
    /// [`ConsumerIndex`]). Callers that ask about many nodes build it
    /// once instead of calling [`consumers`](Self::consumers) per node.
    pub fn consumer_index(&self) -> ConsumerIndex {
        ConsumerIndex::new(self)
    }

    /// Network input nodes (no producers).
    pub fn sources(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].inputs.is_empty())
            .collect()
    }

    /// Network output nodes (no consumers).
    pub fn sinks(&self) -> Vec<NodeId> {
        let index = self.consumer_index();
        (0..self.nodes.len())
            .filter(|&i| index.consumers(i).is_empty())
            .collect()
    }

    /// Total dense MACs across all layers.
    pub fn total_dense_macs(&self) -> f64 {
        self.nodes.iter().map(|n| n.layer.dense_macs()).sum()
    }

    /// Total expected effectual MACs across all layers.
    pub fn total_effectual_macs(&self) -> f64 {
        self.nodes.iter().map(|n| n.layer.effectual_macs()).sum()
    }

    /// Total dense weight count.
    pub fn total_dense_weights(&self) -> usize {
        self.nodes.iter().map(|n| n.layer.dense_weights()).sum()
    }

    /// Total expected nonzero weights.
    pub fn total_nnz_weights(&self) -> f64 {
        self.nodes.iter().map(|n| n.layer.nnz_weights()).sum()
    }

    /// Overall weight sparsity (fraction of zero weights).
    pub fn weight_sparsity(&self) -> f64 {
        let dense = self.total_dense_weights() as f64;
        if dense == 0.0 {
            0.0
        } else {
            1.0 - self.total_nnz_weights() / dense
        }
    }

    /// Ids of convolutional (weighted, spatial) layers, in order.
    pub fn conv_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| {
                matches!(
                    self.nodes[i].layer.kind,
                    LayerKind::Conv { .. } | LayerKind::DwConv { .. }
                )
            })
            .collect()
    }

    /// Validates shape compatibility along every edge.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatched edge found.
    pub fn validate(&self) -> Result<(), String> {
        for (id, node) in self.nodes.iter().enumerate() {
            for &src in &node.inputs {
                let produced = self.nodes[src].layer.output;
                let expected = node.layer.input;
                if produced != expected {
                    return Err(format!(
                        "edge {src} -> {id} ({} -> {}): produced {produced:?} != consumed {expected:?}",
                        self.nodes[src].layer.name, node.layer.name
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Who reads each node's output: the reverse of [`Node::inputs`], for
/// the whole network at once.
///
/// Built on demand by [`Network::consumer_index`] in one pass over the
/// edges and stored flat (one offset table, one id list), so asking about
/// every node of a network costs O(N + E) instead of the O(N²) of a
/// [`Network::consumers`] scan per node. Each consumer is listed once
/// per producer, in ascending id order, even if it names that producer
/// twice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsumerIndex {
    /// `ids[start[i]..start[i + 1]]` are node `i`'s consumers.
    start: Vec<usize>,
    ids: Vec<NodeId>,
}

impl ConsumerIndex {
    fn new(net: &Network) -> Self {
        // Every (producer, consumer) edge once, consumers ascending.
        let edges = || {
            net.nodes.iter().enumerate().flat_map(|(id, node)| {
                let inputs = &node.inputs;
                (0..inputs.len())
                    .filter(move |&k| !inputs[..k].contains(&inputs[k]))
                    .map(move |k| (inputs[k], id))
            })
        };
        // Counting sort on the producer: count, prefix-sum into offsets,
        // then place each consumer at its producer's cursor.
        let n = net.len();
        let mut start = vec![0usize; n + 1];
        for (p, _) in edges() {
            start[p + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut ids = vec![0; start[n]];
        let mut cursor = start[..n].to_vec();
        for (p, c) in edges() {
            ids[cursor[p]] = c;
            cursor[p] += 1;
        }
        Self { start, ids }
    }

    /// Ids of the nodes that consume `id`'s output, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        &self.ids[self.start[id]..self.start[id + 1]]
    }

    /// Whether node `id`'s output leaves a pipeline group of `members`
    /// for DRAM: it does unless it has a consumer and every consumer is a
    /// member. A network output always goes off-chip.
    pub fn written_off_chip(&self, id: NodeId, members: &[NodeId]) -> bool {
        let consumers = self.consumers(id);
        consumers.is_empty() || consumers.iter().any(|c| !members.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ActShape;

    fn conv(name: &str, input: ActShape, k: usize) -> Layer {
        Layer::new(
            name,
            LayerKind::Conv {
                r: 3,
                s: 3,
                stride: 1,
                pad: 1,
            },
            input,
            k,
        )
    }

    #[test]
    fn chain_has_linear_consumers() {
        let mut net = Network::new("chain");
        let a = net.add(conv("a", ActShape::new(8, 8, 4), 8), &[]);
        let b = net.add(conv("b", ActShape::new(8, 8, 8), 8), &[a]);
        let c = net.add(conv("c", ActShape::new(8, 8, 8), 8), &[b]);
        assert_eq!(net.consumers(a), vec![b]);
        assert_eq!(net.sources(), vec![a]);
        assert_eq!(net.sinks(), vec![c]);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn skip_connection_fans_out() {
        let mut net = Network::new("skip");
        let a = net.add(conv("a", ActShape::new(8, 8, 8), 8), &[]);
        let b = net.add(conv("b", ActShape::new(8, 8, 8), 8), &[a]);
        let add = net.add(
            Layer::new("add", LayerKind::Add, ActShape::new(8, 8, 8), 0),
            &[a, b],
        );
        assert_eq!(net.consumers(a), vec![b, add]);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn consumer_index_matches_the_per_node_scan() {
        let mut net = Network::new("skip");
        let a = net.add(conv("a", ActShape::new(8, 8, 8), 8), &[]);
        let b = net.add(conv("b", ActShape::new(8, 8, 8), 8), &[a]);
        let add = net.add(
            Layer::new("add", LayerKind::Add, ActShape::new(8, 8, 8), 0),
            &[a, b],
        );
        // A node naming one producer twice still consumes it once.
        let twice = net.add(
            Layer::new("twice", LayerKind::Add, ActShape::new(8, 8, 8), 0),
            &[add, add],
        );
        let index = net.consumer_index();
        for id in 0..net.len() {
            assert_eq!(
                index.consumers(id),
                net.consumers(id).as_slice(),
                "node {id}"
            );
        }
        assert_eq!(index.consumers(twice), &[] as &[NodeId]);
        assert_eq!(net.sinks(), vec![twice]);
        // Off-chip unless every consumer is in the group.
        assert!(index.written_off_chip(a, &[a, b]));
        assert!(!index.written_off_chip(a, &[a, b, add]));
        assert!(index.written_off_chip(twice, &[a, b, add, twice]));
    }

    #[test]
    fn validate_catches_shape_mismatch() {
        let mut net = Network::new("bad");
        let a = net.add(conv("a", ActShape::new(8, 8, 4), 8), &[]);
        // Consumer expects 16 channels but producer makes 8.
        net.add(conv("b", ActShape::new(8, 8, 16), 8), &[a]);
        assert!(net.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn forward_reference_panics() {
        let mut net = Network::new("fwd");
        net.add(conv("a", ActShape::new(8, 8, 4), 8), &[3]);
    }

    #[test]
    fn totals_aggregate_layers() {
        let mut net = Network::new("t");
        let a = net.add(
            conv("a", ActShape::new(8, 8, 4), 8).with_weight_density(0.5),
            &[],
        );
        let _ = net.add(
            conv("b", ActShape::new(8, 8, 8), 8).with_weight_density(0.25),
            &[a],
        );
        assert_eq!(net.total_dense_weights(), 4 * 9 * 8 + 8 * 9 * 8);
        let nnz = 0.5 * (4 * 9 * 8) as f64 + 0.25 * (8 * 9 * 8) as f64;
        assert!((net.total_nnz_weights() - nnz).abs() < 1e-9);
        assert_eq!(net.conv_ids().len(), 2);
    }
}
