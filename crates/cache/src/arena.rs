//! Arena-allocated intrusive doubly-linked list: SIEVE's eviction queue.
//!
//! SIEVE needs an insertion-ordered list whose nodes never move and can
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
//! There is no panicking index math in the surface: every accessor
//! returns `Option` (or [`NIL`]), and a stale index simply yields
//! `None`.

use std::fmt::Debug;

/// Sentinel index meaning "no node".
pub(crate) const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node<T> {
    value: T,
    /// Neighbor toward the head (newer side); `NIL` at the head.
    newer: u32,
    /// Neighbor toward the tail (older side); `NIL` at the tail.
    older: u32,
}

/// An arena-backed intrusive doubly-linked list over values of type `T`.
#[derive(Debug)]
pub(crate) struct LinkArena<T> {
    nodes: Vec<Option<Node<T>>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: u32,
}

impl<T> LinkArena<T> {
    /// An empty list.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of linked nodes.
    #[must_use]
    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// The oldest node's index, or [`NIL`] when empty.
    #[must_use]
    pub(crate) fn tail(&self) -> u32 {
        self.tail
    }

    /// Pushes `value` at the head (newest end), returning its index.
    /// Freed slots are reused before the backing vec grows.
    pub(crate) fn push_head(&mut self, value: T) -> u32 {
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
    pub(crate) fn get(&self, idx: u32) -> Option<&T> {
        self.nodes
            .get(idx as usize)
            .and_then(|n| n.as_ref())
            .map(|n| &n.value)
    }

    /// Mutable access to the value at `idx`.
    pub(crate) fn get_mut(&mut self, idx: u32) -> Option<&mut T> {
        self.nodes
            .get_mut(idx as usize)
            .and_then(|n| n.as_mut())
            .map(|n| &mut n.value)
    }

    /// The neighbor of `idx` toward the head (newer side), [`NIL`] at
    /// the head or for a dead index.
    #[must_use]
    pub(crate) fn newer(&self, idx: u32) -> u32 {
        self.nodes
            .get(idx as usize)
            .and_then(|n| n.as_ref())
            .map_or(NIL, |n| n.newer)
    }

    /// Unlinks and frees the node at `idx`, returning its value, or
    /// `None` if the slot is already dead.
    pub(crate) fn remove(&mut self, idx: u32) -> Option<T> {
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

    /// Drops every node and recycles all slots.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values from the tail (oldest) to the head (newest), walking the
    /// `newer` links the way SIEVE's hand does.
    fn collect(list: &LinkArena<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = list.tail();
        while let Some(&v) = list.get(cur) {
            out.push(v);
            cur = list.newer(cur);
        }
        out
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
        // The next push links behind the new head.
        l.push_head(5);
        assert_eq!(collect(&l), vec![1, 3, 5]);
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
    fn dead_and_out_of_range_indices_are_safe() {
        let mut l: LinkArena<u32> = LinkArena::new();
        assert_eq!(l.get(0), None);
        assert_eq!(l.get(NIL), None);
        assert_eq!(l.get_mut(NIL), None);
        assert_eq!(l.newer(7), NIL);
        assert_eq!(l.remove(3), None);
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut l = LinkArena::new();
        for v in 0..3 {
            l.push_head(v);
        }
        l.clear();
        assert_eq!(l.len(), 0);
        assert_eq!(l.tail(), NIL);
        assert_eq!(collect(&l), Vec::<u32>::new());
        l.push_head(7);
        assert_eq!(collect(&l), vec![7]);
    }
}
