//! Compact, type-safe handles for graph entities.
//!
//! Nodes and edges are addressed by 32-bit indices ([`NodeId`], [`EdgeId`])
//! rather than `usize` so that hot, per-node tables stay small (see the
//! "Smaller Integers" guidance of the Rust Performance Book). The indices are
//! dense: a graph with `n` nodes uses exactly the ids `0..n`.

use std::fmt;

/// Identifier of a node inside one [`DiGraph`](crate::DiGraph).
///
/// Ids are the dense indices `0..n` of a graph with `n` nodes; they are
/// only meaningful relative to that graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Largest representable id, used as a sentinel bound.
    pub const MAX: NodeId = NodeId(u32::MAX);

    /// Creates a node id from a raw index.
    ///
    /// Panics if `index` does not fit in 32 bits.
    #[inline]
    pub fn new(index: usize) -> Self {
        debug_assert!(index < u32::MAX as usize, "node index overflows u32");
        NodeId(index as u32)
    }

    /// The id as a `usize` index, suitable for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw 32-bit value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifier of an edge inside one [`DiGraph`](crate::DiGraph).
///
/// Edge ids are assigned densely in insertion order and remain stable for the
/// lifetime of the graph (edges cannot be removed individually; build a new
/// graph via [`DiGraph::filter_edges`](crate::DiGraph::filter_edges) instead).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        debug_assert!(index < u32::MAX as usize, "edge index overflows u32");
        EdgeId(index as u32)
    }

    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A dense table keyed by [`NodeId`].
///
/// A thin wrapper over `Vec<T>` that only accepts `NodeId` indices, keeping
/// node-keyed side data (layer assignments, widths, marks…) type-safe without
/// hashing.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NodeVec<T> {
    data: Vec<T>,
}

impl<T> NodeVec<T> {
    /// An empty table.
    pub fn new() -> Self {
        NodeVec { data: Vec::new() }
    }

    /// A table of `n` entries, each initialised to `value`.
    pub fn filled(value: T, n: usize) -> Self
    where
        T: Clone,
    {
        NodeVec {
            data: vec![value; n],
        }
    }

    /// Builds the table by evaluating `f` on every id `0..n`.
    pub fn from_fn(n: usize, mut f: impl FnMut(NodeId) -> T) -> Self {
        NodeVec {
            data: (0..n).map(|i| f(NodeId::new(i))).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends an entry for the next node id and returns that id.
    pub fn push(&mut self, value: T) -> NodeId {
        let id = NodeId::new(self.data.len());
        self.data.push(value);
        id
    }

    /// Iterates over `(id, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.data
            .iter()
            .enumerate()
            .map(|(i, v)| (NodeId::new(i), v))
    }

    /// Iterates over the raw values in id order.
    pub fn values(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Mutable iteration over the raw values in id order.
    pub fn values_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// Borrows the underlying slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl<T> std::ops::Index<NodeId> for NodeVec<T> {
    type Output = T;
    #[inline]
    fn index(&self, id: NodeId) -> &T {
        &self.data[id.index()]
    }
}

impl<T> std::ops::IndexMut<NodeId> for NodeVec<T> {
    #[inline]
    fn index_mut(&mut self, id: NodeId) -> &mut T {
        &mut self.data[id.index()]
    }
}

impl<T> FromIterator<T> for NodeVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        NodeVec {
            data: iter.into_iter().collect(),
        }
    }
}

/// A fixed-capacity bit set over node ids.
///
/// Used for reachability and visited marks where a `HashSet<NodeId>` would
/// waste both space and hashing time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeSet {
    words: Vec<u64>,
    capacity: usize,
}

impl NodeSet {
    /// An empty set able to hold ids `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        NodeSet {
            words: vec![0; n.div_ceil(64)],
            capacity: n,
        }
    }

    /// Capacity (the `n` this set was created with).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `id`; returns `true` if it was not yet present.
    #[inline]
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        assert!(id.index() < self.capacity, "NodeSet index out of range");
        let missing = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        missing
    }

    /// Removes `id`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, id: NodeId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        assert!(id.index() < self.capacity, "NodeSet index out of range");
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        if id.index() >= self.capacity {
            return false;
        }
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all members, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(NodeId::new(wi * 64 + b))
                }
            })
        })
    }

    /// In-place union with `other` (capacities must match).
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "NodeSet capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(format!("{id}"), "42");
        assert_eq!(format!("{id:?}"), "n42");
    }

    #[test]
    fn edge_id_roundtrip() {
        let id = EdgeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id:?}"), "e7");
    }

    #[test]
    fn node_ids_order_like_indices() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::from(3u32), NodeId::new(3));
    }

    #[test]
    fn node_vec_indexing_and_iteration() {
        let mut v = NodeVec::filled(0i32, 3);
        v[NodeId::new(1)] = 5;
        assert_eq!(v[NodeId::new(1)], 5);
        assert_eq!(v.len(), 3);
        let pairs: Vec<_> = v.iter().map(|(id, &x)| (id.index(), x)).collect();
        assert_eq!(pairs, vec![(0, 0), (1, 5), (2, 0)]);
    }

    #[test]
    fn node_vec_push_assigns_sequential_ids() {
        let mut v = NodeVec::new();
        assert_eq!(v.push("a").index(), 0);
        assert_eq!(v.push("b").index(), 1);
        assert_eq!(v.as_slice(), &["a", "b"]);
    }

    #[test]
    fn node_vec_from_fn() {
        let v = NodeVec::from_fn(4, |id| id.index() * 2);
        assert_eq!(v.as_slice(), &[0, 2, 4, 6]);
    }

    #[test]
    fn node_set_insert_remove_contains() {
        let mut s = NodeSet::with_capacity(130);
        assert!(s.insert(NodeId::new(0)));
        assert!(s.insert(NodeId::new(64)));
        assert!(s.insert(NodeId::new(129)));
        assert!(!s.insert(NodeId::new(64)), "double insert reports false");
        assert_eq!(s.len(), 3);
        assert!(s.contains(NodeId::new(129)));
        assert!(!s.contains(NodeId::new(1)));
        assert!(s.remove(NodeId::new(64)));
        assert!(!s.remove(NodeId::new(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn node_set_iterates_in_order() {
        let mut s = NodeSet::with_capacity(200);
        for i in [199, 3, 64, 65, 0] {
            s.insert(NodeId::new(i));
        }
        let ids: Vec<_> = s.iter().map(NodeId::index).collect();
        assert_eq!(ids, vec![0, 3, 64, 65, 199]);
    }

    #[test]
    fn node_set_union() {
        let mut a = NodeSet::with_capacity(10);
        let mut b = NodeSet::with_capacity(10);
        a.insert(NodeId::new(1));
        b.insert(NodeId::new(2));
        a.union_with(&b);
        assert!(a.contains(NodeId::new(1)) && a.contains(NodeId::new(2)));
    }

    #[test]
    fn node_set_clear() {
        let mut s = NodeSet::with_capacity(10);
        s.insert(NodeId::new(5));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 10);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = NodeSet::with_capacity(4);
        assert!(!s.contains(NodeId::new(1000)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = NodeSet::with_capacity(4);
        s.insert(NodeId::new(64));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn union_capacity_mismatch_panics() {
        let mut a = NodeSet::with_capacity(4);
        let b = NodeSet::with_capacity(8);
        a.union_with(&b);
    }

    #[test]
    fn node_vec_values_mut_iterates_in_order() {
        let mut v = NodeVec::filled(1i32, 3);
        for (i, x) in v.values_mut().enumerate() {
            *x += i as i32;
        }
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert!(!v.is_empty());
        assert!(NodeVec::<i32>::new().is_empty());
    }
}
