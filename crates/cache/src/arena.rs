//! Arena-allocated intrusive doubly-linked list.
//!
//! The cache core and SIEVE's eviction queue need a
//! recency/insertion-ordered list whose nodes never move and can
//! be unlinked in O(1) — without per-node heap allocation, without
//! `unsafe`, and without pointer-chasing through `Box`es. The classic
//! answer (ported from SIEVE-style cache implementations, e.g. the
//! colander NSDI '24 artifact) is an **index arena**: nodes live in a
//! `Vec<Option<Node<T>>>`, links are `u32` slot indices, and freed slots
//! go on a free list for reuse, so a long-running cache never grows its
//! backing storage past its high-water mark.
//!
//! Orientation: the list runs **head (newest) → tail (oldest)**. New
//! nodes are pushed at the head; SIEVE's hand walks tail → head,
//! wrapping back to the tail.
//!
//! There is no panicking index math in the public surface: every
//! accessor returns `Option`, and a stale index simply yields `None`.

use std::fmt::Debug;

/// Sentinel index meaning "no node".
pub const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    value: T,
    /// Neighbor toward the head (newer side); `NIL` at the head.
    newer: u32,
    /// Neighbor toward the tail (older side); `NIL` at the tail.
    older: u32,
}

/// An arena-backed intrusive doubly-linked list over values of type `T`.
///
/// ```
/// use fmoe_cache::arena::{LinkArena, NIL};
///
/// let mut list: LinkArena<&'static str> = LinkArena::new();
/// let a = list.push_head("a");
/// let b = list.push_head("b");
/// assert_eq!(list.tail(), a);
/// assert_eq!(list.head(), b);
/// assert_eq!(list.remove(a), Some("a"));
/// assert_eq!(list.tail(), b);
/// // The freed slot is recycled by the next push.
/// assert_eq!(list.push_head("c"), a);
/// assert_eq!(list.len(), 2);
/// assert_ne!(list.head(), NIL);
/// ```
#[derive(Debug, Clone)]
pub struct LinkArena<T> {
    nodes: Vec<Option<Node<T>>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: u32,
}

impl<T> Default for LinkArena<T> {
    // Manual impl: the derive would demand `T: Default`, which the
    // empty list does not need.
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LinkArena<T> {
    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// An empty list with room for `capacity` nodes before reallocating.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            ..Self::new()
        }
    }

    /// Number of linked nodes.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether no node is linked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The newest node's index, or [`NIL`] when empty.
    #[must_use]
    pub fn head(&self) -> u32 {
        self.head
    }

    /// The oldest node's index, or [`NIL`] when empty.
    #[must_use]
    pub fn tail(&self) -> u32 {
        self.tail
    }

    /// Pushes `value` at the head (newest end), returning its index.
    /// Freed slots are reused before the backing vec grows.
    pub fn push_head(&mut self, value: T) -> u32 {
        let node = Node {
            value,
            newer: NIL,
            older: self.head,
        };
        let idx = match self.free.pop() {
            Some(slot) => {
                if let Some(entry) = self.nodes.get_mut(slot as usize) {
                    *entry = Some(node);
                }
                slot
            }
            None => {
                let slot = self.nodes.len() as u32;
                self.nodes.push(Some(node));
                slot
            }
        };
        if let Some(Some(old_head)) = self.nodes.get_mut(self.head as usize) {
            old_head.newer = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        self.len += 1;
        idx
    }

    /// The value at `idx`, if the slot holds a live node.
    #[must_use]
    pub fn get(&self, idx: u32) -> Option<&T> {
        self.nodes
            .get(idx as usize)
            .and_then(|n| n.as_ref())
            .map(|n| &n.value)
    }

    /// Mutable access to the value at `idx`.
    pub fn get_mut(&mut self, idx: u32) -> Option<&mut T> {
        self.nodes
            .get_mut(idx as usize)
            .and_then(|n| n.as_mut())
            .map(|n| &mut n.value)
    }

    /// The neighbor of `idx` toward the head (newer side), [`NIL`] at
    /// the head or for a dead index.
    #[must_use]
    pub fn newer(&self, idx: u32) -> u32 {
        self.nodes
            .get(idx as usize)
            .and_then(|n| n.as_ref())
            .map_or(NIL, |n| n.newer)
    }

    /// The neighbor of `idx` toward the tail (older side), [`NIL`] at
    /// the tail or for a dead index.
    #[must_use]
    pub fn older(&self, idx: u32) -> u32 {
        self.nodes
            .get(idx as usize)
            .and_then(|n| n.as_ref())
            .map_or(NIL, |n| n.older)
    }

    /// Unlinks and frees the node at `idx`, returning its value, or
    /// `None` if the slot is already dead.
    pub fn remove(&mut self, idx: u32) -> Option<T> {
        let node = self.nodes.get_mut(idx as usize).and_then(Option::take)?;
        if let Some(Some(n)) = self.nodes.get_mut(node.newer as usize) {
            n.older = node.older;
        }
        if let Some(Some(n)) = self.nodes.get_mut(node.older as usize) {
            n.newer = node.newer;
        }
        if self.head == idx {
            self.head = node.older;
        }
        if self.tail == idx {
            self.tail = node.newer;
        }
        self.free.push(idx);
        self.len -= 1;
        Some(node.value)
    }

    /// Unlinks `idx` and relinks it at the head (LRU-style
    /// move-to-front). No-op for a dead index or the current head.
    pub fn move_to_head(&mut self, idx: u32) {
        if idx == self.head {
            return;
        }
        if let Some(value) = self.remove(idx) {
            // Reuse pushes onto the free list we just extended, so the
            // node keeps its slot index and outstanding indices held by
            // the caller for *other* nodes stay valid.
            let new_idx = self.push_head(value);
            debug_assert_eq!(new_idx, idx);
        }
    }

    /// Applies `f` to every live value, in slot order (not list order).
    /// For order-insensitive bulk updates — e.g. clearing every
    /// resident's pin — without allocating an index list first.
    pub fn for_each_value_mut(&mut self, mut f: impl FnMut(&mut T)) {
        for node in self.nodes.iter_mut().flatten() {
            f(&mut node.value);
        }
    }

    /// Iterates values from the tail (oldest) toward the head (newest).
    pub fn iter_oldest_first(&self) -> OldestFirst<'_, T> {
        OldestFirst {
            arena: self,
            cur: self.tail,
        }
    }

    /// Drops every node and recycles all slots.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }
}

/// Iterator returned by [`LinkArena::iter_oldest_first`].
#[derive(Debug)]
pub struct OldestFirst<'a, T> {
    arena: &'a LinkArena<T>,
    cur: u32,
}

impl<'a, T> Iterator for OldestFirst<'a, T> {
    type Item = (u32, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        let idx = self.cur;
        let value = self.arena.get(idx)?;
        self.cur = self.arena.newer(idx);
        Some((idx, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(list: &LinkArena<u32>) -> Vec<u32> {
        list.iter_oldest_first().map(|(_, &v)| v).collect()
    }

    #[test]
    fn push_and_order() {
        let mut l = LinkArena::new();
        for v in 0..4 {
            l.push_head(v);
        }
        assert_eq!(collect(&l), vec![0, 1, 2, 3]);
        assert_eq!(l.len(), 4);
        assert_eq!(l.get(l.tail()), Some(&0));
        assert_eq!(l.get(l.head()), Some(&3));
    }

    #[test]
    fn remove_middle_head_tail() {
        let mut l = LinkArena::new();
        let idx: Vec<u32> = (0..5).map(|v| l.push_head(v)).collect();
        assert_eq!(l.remove(idx[2]), Some(2));
        assert_eq!(collect(&l), vec![0, 1, 3, 4]);
        assert_eq!(l.remove(idx[0]), Some(0)); // tail
        assert_eq!(collect(&l), vec![1, 3, 4]);
        assert_eq!(l.remove(idx[4]), Some(4)); // head
        assert_eq!(collect(&l), vec![1, 3]);
        assert_eq!(l.len(), 2);
        // Double-remove is a no-op.
        assert_eq!(l.remove(idx[4]), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn slots_are_recycled_not_grown() {
        let mut l = LinkArena::new();
        let idx: Vec<u32> = (0..8).map(|v| l.push_head(v)).collect();
        for &i in &idx {
            l.remove(i);
        }
        for v in 0..8 {
            l.push_head(100 + v);
        }
        assert_eq!(l.nodes.len(), 8, "high-water mark, no growth");
        assert_eq!(l.len(), 8);
    }

    #[test]
    fn move_to_head_keeps_slot_index() {
        let mut l = LinkArena::new();
        let a = l.push_head(0);
        let _b = l.push_head(1);
        let c = l.push_head(2);
        l.move_to_head(a);
        assert_eq!(collect(&l), vec![1, 2, 0]);
        assert_eq!(l.get(a), Some(&0), "index survives the move");
        l.move_to_head(c); // head already? no: head is now a
        assert_eq!(collect(&l), vec![1, 0, 2]);
        l.move_to_head(c); // now a no-op
        assert_eq!(collect(&l), vec![1, 0, 2]);
    }

    #[test]
    fn dead_and_out_of_range_indices_are_safe() {
        let mut l: LinkArena<u32> = LinkArena::new();
        assert_eq!(l.get(0), None);
        assert_eq!(l.get(NIL), None);
        assert_eq!(l.newer(7), NIL);
        assert_eq!(l.older(NIL), NIL);
        assert_eq!(l.remove(3), None);
        l.move_to_head(9); // no-op
        assert!(l.is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let mut l = LinkArena::new();
        for v in 0..3 {
            l.push_head(v);
        }
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.head(), NIL);
        assert_eq!(l.tail(), NIL);
        assert_eq!(collect(&l), Vec::<u32>::new());
    }
}
