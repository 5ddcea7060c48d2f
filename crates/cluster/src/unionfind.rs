//! Union-find, used by clustering phase one.

use seer_trace::FileId;
use std::collections::HashMap;

/// Disjoint-set forest over dense indices `0..len`, with path
/// compression and union by size.
#[derive(Debug, Default, Clone)]
pub(crate) struct DenseUnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl DenseUnionFind {
    /// Makes the forest `len` singletons again, keeping its allocation.
    pub(crate) fn reset(&mut self, len: usize) {
        self.parent.clear();
        self.parent.extend(0..len as u32);
        self.size.clear();
        self.size.resize(len, 1);
    }

    /// Adds a singleton and returns its index.
    fn push(&mut self) -> u32 {
        let x = self.parent.len() as u32;
        self.parent.push(x);
        self.size.push(1);
        x
    }

    /// The representative of `x`.
    pub(crate) fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`.
    pub(crate) fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.link(ra, rb);
    }

    /// Merges the sets of roots `ra` and `rb`; returns the merged root.
    pub(crate) fn link(&mut self, ra: u32, rb: u32) -> u32 {
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        big
    }
}

/// Disjoint-set forest over arbitrary [`FileId`]s: the dense forest
/// clustering runs on, plus the index of each inserted file.
#[derive(Debug, Default, Clone)]
pub struct UnionFind {
    index: HashMap<FileId, u32>,
    files: Vec<FileId>,
    forest: DenseUnionFind,
}

impl UnionFind {
    /// Creates an empty forest.
    #[must_use]
    pub fn new() -> UnionFind {
        UnionFind::default()
    }

    /// Ensures `x` is present as (at least) a singleton set.
    pub fn insert(&mut self, x: FileId) {
        self.slot(x);
    }

    /// The dense index of `x`, inserting it if new.
    fn slot(&mut self, x: FileId) -> u32 {
        if let Some(&i) = self.index.get(&x) {
            return i;
        }
        let i = self.forest.push();
        self.index.insert(x, i);
        self.files.push(x);
        i
    }

    /// Finds the representative of `x`, inserting it if new.
    pub fn find(&mut self, x: FileId) -> FileId {
        let i = self.slot(x);
        self.files[self.forest.find(i) as usize]
    }

    /// Merges the sets containing `a` and `b`.
    pub fn union(&mut self, a: FileId, b: FileId) {
        let (i, j) = (self.slot(a), self.slot(b));
        self.forest.union(i, j);
    }

    /// Whether `a` and `b` are currently in the same set.
    pub fn same(&mut self, a: FileId, b: FileId) -> bool {
        self.find(a) == self.find(b)
    }

    /// Groups all inserted elements by representative.
    pub fn groups(&mut self) -> Vec<Vec<FileId>> {
        let mut by_root: HashMap<u32, Vec<FileId>> = HashMap::new();
        for i in 0..self.files.len() as u32 {
            let r = self.forest.find(i);
            by_root.entry(r).or_default().push(self.files[i as usize]);
        }
        let mut out: Vec<Vec<FileId>> = by_root.into_values().collect();
        for g in &mut out {
            g.sort_unstable();
        }
        out.sort_by_key(|g| g[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new();
        uf.union(FileId(1), FileId(2));
        uf.union(FileId(2), FileId(3));
        assert!(uf.same(FileId(1), FileId(3)));
        assert!(!uf.same(FileId(1), FileId(4)));
    }

    #[test]
    fn groups_partition_elements() {
        let mut uf = UnionFind::new();
        uf.union(FileId(1), FileId(2));
        uf.insert(FileId(5));
        uf.union(FileId(3), FileId(4));
        let groups = uf.groups();
        assert_eq!(groups.len(), 3);
        assert!(groups.contains(&vec![FileId(1), FileId(2)]));
        assert!(groups.contains(&vec![FileId(3), FileId(4)]));
        assert!(groups.contains(&vec![FileId(5)]));
    }

    #[test]
    fn transitive_merge_through_chain() {
        let mut uf = UnionFind::new();
        for i in 0..100 {
            uf.union(FileId(i), FileId(i + 1));
        }
        assert!(uf.same(FileId(0), FileId(100)));
        assert_eq!(uf.groups().len(), 1);
    }

    #[test]
    fn self_union_is_noop() {
        let mut uf = UnionFind::new();
        uf.union(FileId(7), FileId(7));
        assert_eq!(uf.groups(), vec![vec![FileId(7)]]);
    }
}
