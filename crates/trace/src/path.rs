//! Canonical absolute-path table and path manipulation helpers.

use crate::codec::{Codec, DecodeError, Reader};
use crate::ids::FileId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Interning table for canonical absolute paths.
///
/// The observer converts every raw syscall path to absolute, normalized form
/// (§2: "converting pathnames to absolute format") and interns it here. A
/// [`FileId`] is the identity used by semantic distance, clustering, and
/// hoarding. The table also answers the structural queries those layers
/// need: parent directory, basename, dot-file detection, and the
/// directory-distance measure of §3.2.
///
/// Interning also places each file's directory in a tree of directory
/// prefixes ([`DirTree`]), so directory distance is an integer walk
/// rather than a comparison of path strings.
#[derive(Debug, Default, Clone)]
pub struct PathTable {
    paths: Vec<String>,
    index: HashMap<String, FileId>,
    dirs: DirTree,
    /// Node of each directory string seen, as spelled.
    dir_index: HashMap<String, u32>,
    /// Id of each distinct directory component name.
    dir_names: HashMap<String, u32>,
    /// Child node of each `(node, component name id)` seen.
    dir_children: HashMap<(u32, u32), u32>,
}

impl PathTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> PathTable {
        PathTable::default()
    }

    /// Interns an absolute, already-normalized path.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `path` is not absolute; callers normalize
    /// with [`normalize`] first.
    pub fn intern(&mut self, path: &str) -> FileId {
        debug_assert!(
            path.starts_with('/'),
            "PathTable::intern wants absolute paths: {path}"
        );
        if let Some(&id) = self.index.get(path) {
            return id;
        }
        self.push(path.to_owned())
            .expect("a path missing from the index is new")
    }

    /// Appends `path` under the next id and places its directory in the
    /// tree, unless the table already lists it.
    fn push(&mut self, path: String) -> Option<FileId> {
        let id = FileId(self.paths.len() as u32);
        match self.index.entry(path.clone()) {
            Entry::Occupied(_) => return None,
            Entry::Vacant(slot) => slot.insert(id),
        };
        let dir = self.dir_node(dirname(&path));
        self.dirs.file_dir.push(dir);
        self.paths.push(path);
        Some(id)
    }

    /// The tree node of directory `dir`. The last path's directory and
    /// every directory seen before answer without a walk; a new one walks
    /// down from the root, adding missing nodes. Nodes are identified by
    /// their components, so `/a//b` and `/a/b/` name the node of `/a/b`,
    /// and the walk hashes each component once, however deep the
    /// directory.
    fn dir_node(&mut self, dir: &str) -> u32 {
        if let (Some(last), Some(&node)) = (self.paths.last(), self.dirs.file_dir.last()) {
            if dirname(last) == dir {
                return node;
            }
        }
        if let Some(&node) = self.dir_index.get(dir) {
            return node;
        }
        if self.dirs.parent.is_empty() {
            self.dirs.parent.push(ROOT);
            self.dirs.depth.push(0);
        }
        let mut node = ROOT;
        for name in components(dir) {
            let name = match self.dir_names.get(name) {
                Some(&id) => id,
                None => {
                    let id = self.dir_names.len() as u32;
                    self.dir_names.insert(name.to_owned(), id);
                    id
                }
            };
            let next_node = self.dirs.parent.len() as u32;
            let child = *self.dir_children.entry((node, name)).or_insert(next_node);
            if child == next_node {
                self.dirs.parent.push(node);
                self.dirs.depth.push(self.dirs.depth[node as usize] + 1);
            }
            node = child;
        }
        self.dir_index.insert(dir.to_owned(), node);
        node
    }

    /// The directory tree of every interned file: what directory
    /// distance needs, detached from the path strings.
    #[must_use]
    pub fn directories(&self) -> &DirTree {
        &self.dirs
    }

    /// Looks up a path without inserting it.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<FileId> {
        self.index.get(path).copied()
    }

    /// Resolves a [`FileId`] back to its path.
    #[must_use]
    pub fn resolve(&self, id: FileId) -> Option<&str> {
        self.paths.get(id.index()).map(String::as_str)
    }

    /// Number of known files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterates over all `(id, path)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, &str)> {
        self.paths
            .iter()
            .enumerate()
            .map(|(i, s)| (FileId(i as u32), s.as_str()))
    }

    /// Returns the directory portion of a file's path (`"/"` for top-level
    /// entries), or `None` for unknown ids.
    #[must_use]
    pub fn dir_of(&self, id: FileId) -> Option<&str> {
        self.resolve(id).map(dirname)
    }

    /// Returns the final path component, or `None` for unknown ids.
    #[must_use]
    pub fn basename_of(&self, id: FileId) -> Option<&str> {
        self.resolve(id).map(basename)
    }

    /// Whether the file's basename begins with a period (`.login` etc.),
    /// which SEER treats as critical configuration (§4.3).
    #[must_use]
    pub fn is_dot_file(&self, id: FileId) -> bool {
        self.basename_of(id).is_some_and(|b| b.starts_with('.'))
    }

    /// Directory distance between two files (§3.2): zero for files in the
    /// same directory, increasing with directory-tree separation.
    ///
    /// Computed as the number of directory components on the path from one
    /// file's directory to the other's through their deepest common
    /// ancestor. Returns `None` if either id is unknown.
    #[must_use]
    pub fn directory_distance(&self, a: FileId, b: FileId) -> Option<u32> {
        self.dirs.distance(a, b)
    }
}

/// Encoded as the paths in id order; decoding rebuilds the lookup
/// index and the directory tree, and refuses a path listed twice.
impl Codec for PathTable {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.paths.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<PathTable, DecodeError> {
        let paths = Vec::<String>::decode(r)?;
        if u32::try_from(paths.len()).is_err() {
            return Err(DecodeError("too many paths"));
        }
        let mut table = PathTable {
            paths: Vec::with_capacity(paths.len()),
            index: HashMap::with_capacity(paths.len()),
            ..PathTable::default()
        };
        table.dirs.file_dir.reserve(paths.len());
        for path in paths {
            if table.push(path).is_none() {
                return Err(DecodeError("path table lists a path twice"));
            }
        }
        Ok(table)
    }
}

/// The root's node in a [`DirTree`].
const ROOT: u32 = 0;

/// The directories of a [`PathTable`]'s files as a tree of directory
/// prefixes: each file's directory node, and each node's parent and
/// depth (components below the root). Two files' directory distance is
/// the walk from their nodes up to the deepest common ancestor.
///
/// Node ids are assigned in order of first appearance as paths are
/// interned, so a table rebuilt from its paths has the same tree.
#[derive(Debug, Default, Clone)]
pub struct DirTree {
    /// Directory node of each file, indexed by [`FileId`].
    file_dir: Vec<u32>,
    /// Parent of each node; the root is its own parent.
    parent: Vec<u32>,
    /// Depth of each node; the root is at 0.
    depth: Vec<u32>,
}

impl DirTree {
    /// Directory distance between two files (see
    /// [`PathTable::directory_distance`]), or `None` if either id is
    /// unknown.
    #[must_use]
    pub fn distance(&self, a: FileId, b: FileId) -> Option<u32> {
        let mut x = *self.file_dir.get(a.index())? as usize;
        let mut y = *self.file_dir.get(b.index())? as usize;
        let mut steps = 0;
        while self.depth[x] > self.depth[y] {
            x = self.parent[x] as usize;
            steps += 1;
        }
        while self.depth[y] > self.depth[x] {
            y = self.parent[y] as usize;
            steps += 1;
        }
        while x != y {
            x = self.parent[x] as usize;
            y = self.parent[y] as usize;
            steps += 2;
        }
        Some(steps)
    }
}

/// Directory distance between two directory paths (see
/// [`PathTable::directory_distance`]).
#[must_use]
pub fn directory_distance(dir_a: &str, dir_b: &str) -> u32 {
    if dir_a == dir_b {
        return 0;
    }
    let a: Vec<&str> = components(dir_a).collect();
    let b: Vec<&str> = components(dir_b).collect();
    let common = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    (a.len() - common + b.len() - common) as u32
}

/// Returns the directory portion of an absolute path (`"/"` at the root).
#[must_use]
pub fn dirname(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) => "/",
        Some(i) => &path[..i],
        None => "/",
    }
}

/// Returns the final component of a path.
#[must_use]
pub fn basename(path: &str) -> &str {
    match path.rfind('/') {
        Some(i) => &path[i + 1..],
        None => path,
    }
}

/// Returns the extension of a path's basename (without the dot), if any.
#[must_use]
pub fn extension(path: &str) -> Option<&str> {
    let base = basename(path);
    match base.rfind('.') {
        Some(i) if i > 0 => Some(&base[i + 1..]),
        _ => None,
    }
}

fn components(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty())
}

/// Normalizes a raw syscall path against a working directory.
///
/// Produces an absolute path with `.` and `..` components resolved and
/// duplicate slashes removed — the observer's "absolute format" conversion
/// (§2). `..` at the root stays at the root, as in POSIX.
///
/// # Examples
///
/// ```
/// use seer_trace::path::normalize;
/// assert_eq!(normalize("/home/u/src", "main.c"), "/home/u/src/main.c");
/// assert_eq!(normalize("/home/u/src", "../doc/./a.tex"), "/home/u/doc/a.tex");
/// assert_eq!(normalize("/ignored", "/etc/passwd"), "/etc/passwd");
/// ```
#[must_use]
pub fn normalize(cwd: &str, raw: &str) -> String {
    let mut stack: Vec<&str> = Vec::new();
    if !raw.starts_with('/') {
        // The working directory itself may contain `.`/`..` components
        // (a hostile or sloppy chdir); resolve them the same way.
        for c in components(cwd) {
            match c {
                "." => {}
                ".." => {
                    stack.pop();
                }
                other => stack.push(other),
            }
        }
    }
    for c in components(raw) {
        match c {
            "." => {}
            ".." => {
                stack.pop();
            }
            other => stack.push(other),
        }
    }
    if stack.is_empty() {
        "/".to_owned()
    } else {
        let mut s = String::with_capacity(raw.len() + cwd.len() + 1);
        for c in &stack {
            s.push('/');
            s.push_str(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_resolve() {
        let mut t = PathTable::new();
        let a = t.intern("/home/u/x.c");
        assert_eq!(t.intern("/home/u/x.c"), a);
        assert_eq!(t.resolve(a), Some("/home/u/x.c"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn structural_queries() {
        let mut t = PathTable::new();
        let a = t.intern("/home/u/src/x.c");
        let dot = t.intern("/home/u/.login");
        let root = t.intern("/vmlinuz");
        assert_eq!(t.dir_of(a), Some("/home/u/src"));
        assert_eq!(t.basename_of(a), Some("x.c"));
        assert!(t.is_dot_file(dot));
        assert!(!t.is_dot_file(a));
        assert_eq!(t.dir_of(root), Some("/"));
    }

    #[test]
    fn directory_distance_same_dir_is_zero() {
        let mut t = PathTable::new();
        let a = t.intern("/p/q/a.c");
        let b = t.intern("/p/q/b.c");
        assert_eq!(t.directory_distance(a, b), Some(0));
    }

    #[test]
    fn directory_distance_counts_both_legs() {
        // /p/q vs /p/r: one down from /p on each side -> 2.
        assert_eq!(directory_distance("/p/q", "/p/r"), 2);
        // /p/q vs /p/q/r: one extra level -> 1.
        assert_eq!(directory_distance("/p/q", "/p/q/r"), 1);
        // Disjoint top-level trees.
        assert_eq!(directory_distance("/a/b/c", "/x/y"), 5);
        assert_eq!(directory_distance("/", "/a"), 1);
    }

    #[test]
    fn normalize_cases() {
        assert_eq!(normalize("/h/u", "a"), "/h/u/a");
        assert_eq!(normalize("/h/u", "./a//b"), "/h/u/a/b");
        assert_eq!(normalize("/h/u", "../../../a"), "/a");
        assert_eq!(normalize("/h/u", "/abs"), "/abs");
        assert_eq!(normalize("/", ".."), "/");
        assert_eq!(normalize("/h", ""), "/h");
    }

    #[test]
    fn extension_parsing() {
        assert_eq!(extension("/a/b.c"), Some("c"));
        assert_eq!(extension("/a/b.tar.gz"), Some("gz"));
        assert_eq!(extension("/a/.login"), None);
        assert_eq!(extension("/a/Makefile"), None);
    }

    #[test]
    fn decode_rebuilds_the_index() {
        let mut t = PathTable::new();
        t.intern("/a");
        t.intern("/b");
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let back: PathTable = crate::codec::decode_all(&buf).expect("decode");
        assert_eq!(back.get("/b"), Some(FileId(1)));
        t.paths.push("/a".into());
        let mut dup = Vec::new();
        t.encode(&mut dup);
        assert!(crate::codec::decode_all::<PathTable>(&dup).is_err());
    }

    #[test]
    fn debug_panics_on_relative_intern() {
        let result = std::panic::catch_unwind(|| {
            let mut t = PathTable::new();
            t.intern("relative/path");
        });
        if cfg!(debug_assertions) {
            assert!(result.is_err());
        }
    }
}
