//! Property tests: directory distance through the path table's directory
//! tree equals the string computation on the files' directories, for
//! root-level files, names sharing a string prefix (`/a/b` and `/a/bc`),
//! equal directories, unnormalized separators, and a table rebuilt by
//! decoding.

use proptest::prelude::*;
use seer_trace::codec::{decode_all, Codec};
use seer_trace::path::{directory_distance, dirname};
use seer_trace::{FileId, PathTable};

/// Component names chosen to collide and to share string prefixes.
fn name() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["a", "b", "ab", "bc", "a.b", ".", ".."])
}

/// An absolute path of zero to four directories (zero: a root-level
/// file), now and then with a doubled separator or a trailing slash.
fn path() -> impl Strategy<Value = String> {
    (
        prop::collection::vec((name(), prop::bool::ANY), 0..5),
        name(),
        0..6u8,
    )
        .prop_map(|(dirs, base, form)| {
            let mut s = String::new();
            for (dir, doubled) in dirs {
                s.push_str(if doubled && form == 0 { "//" } else { "/" });
                s.push_str(dir);
            }
            s.push('/');
            s.push_str(base);
            if form == 1 {
                s.push('/');
            }
            s
        })
}

/// The string computation the tree must agree with.
fn string_distance(t: &PathTable, a: FileId, b: FileId) -> u32 {
    let (pa, pb) = (t.resolve(a).expect("known"), t.resolve(b).expect("known"));
    directory_distance(dirname(pa), dirname(pb))
}

/// Every pair of `t`'s files agrees with the string computation, and an
/// unknown id has no distance.
fn check_all_pairs(t: &PathTable) {
    let ids: Vec<FileId> = t.iter().map(|(id, _)| id).collect();
    for &a in &ids {
        for &b in &ids {
            let want = string_distance(t, a, b);
            assert_eq!(
                t.directory_distance(a, b),
                Some(want),
                "{:?} {:?}",
                t.resolve(a),
                t.resolve(b)
            );
            assert_eq!(t.directories().distance(a, b), Some(want));
        }
    }
    let unknown = FileId(ids.len() as u32);
    assert_eq!(t.directory_distance(ids[0], unknown), None);
    assert_eq!(t.directory_distance(unknown, ids[0]), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tree_distance_equals_string_distance(paths in prop::collection::vec(path(), 1..40)) {
        let mut t = PathTable::new();
        for p in &paths {
            t.intern(p);
        }
        check_all_pairs(&t);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let back: PathTable = decode_all(&buf).expect("decode");
        check_all_pairs(&back);
        for (id, _) in t.iter() {
            for (other, _) in t.iter() {
                prop_assert_eq!(back.directory_distance(id, other), t.directory_distance(id, other));
            }
        }
    }
}

#[test]
fn named_cases() {
    let mut t = PathTable::new();
    let root_a = t.intern("/x");
    let root_b = t.intern("/y");
    let ab = t.intern("/a/b/f");
    let abc = t.intern("/a/bc/f");
    let ab2 = t.intern("/a/b/g");
    let deep = t.intern("/a/b/c/d/h");
    let doubled = t.intern("/a//b/k");
    // Root-level files share the root.
    assert_eq!(t.directory_distance(root_a, root_b), Some(0));
    assert_eq!(t.directory_distance(root_a, ab), Some(2));
    // `/a/b` and `/a/bc` share the string prefix but not the directory.
    assert_eq!(t.directory_distance(ab, abc), Some(2));
    // Equal directories.
    assert_eq!(t.directory_distance(ab, ab2), Some(0));
    assert_eq!(t.directory_distance(ab, ab), Some(0));
    // An ancestor and a descendant.
    assert_eq!(t.directory_distance(ab, deep), Some(2));
    assert_eq!(t.directory_distance(abc, deep), Some(4));
    // A doubled separator names the same directory.
    assert_eq!(t.directory_distance(ab, doubled), Some(0));
    for (a, _) in t.iter() {
        for (b, _) in t.iter() {
            assert_eq!(t.directory_distance(a, b), Some(string_distance(&t, a, b)));
        }
    }
}
