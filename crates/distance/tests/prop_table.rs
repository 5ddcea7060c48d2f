//! The neighbor table against a reference copy of the §3.1.3 replacement
//! rule as a plain full scan: every miss on a full row walks all three
//! priorities (deletion-marked or dead neighbor, then the farthest
//! neighbor with random tie-break, then the stalest past the aging
//! threshold). The table refuses most far candidates by a cached row
//! bound instead; any divergence in a neighbor, summary, stamp,
//! eviction, purge, or random draw shows up here.
//!
//! Small rows, a short aging threshold, deletions with short delays, and
//! distances drawn from a few repeated values (some a hair apart, inside
//! the scan's 1e-12 tie tolerance) reach every branch often. Generated
//! machine workloads never delete a file the distance engine has seen,
//! so only tests reach the deletion epoch.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use seer_distance::history::Observation;
use seer_distance::reduction::PairSummary;
use seer_distance::{NeighborEntry, NeighborTable, ReductionKind, TableSnapshot};
use seer_trace::codec::Codec;
use seer_trace::FileId;
use std::collections::BTreeMap;

/// The table as a plain full scan, one `Vec` of entries per row.
struct Reference {
    n: usize,
    reduction: ReductionKind,
    aging_refs: u64,
    deletion_delay: u64,
    rows: BTreeMap<FileId, Vec<NeighborEntry>>,
    /// Deletion-marked files and their mark ticks.
    marked: BTreeMap<FileId, u64>,
    dead: Vec<FileId>,
    deletion_tick: u64,
    clock: u64,
    rng: SmallRng,
}

impl Reference {
    fn new(
        n: usize,
        reduction: ReductionKind,
        aging_refs: u64,
        deletion_delay: u64,
        seed: u64,
    ) -> Reference {
        Reference {
            n,
            reduction,
            aging_refs,
            deletion_delay,
            rows: BTreeMap::new(),
            marked: BTreeMap::new(),
            dead: Vec::new(),
            deletion_tick: 0,
            clock: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn observe(&mut self, from: FileId, to: FileId, distance: f64) -> bool {
        if to == FileId::NONE || self.dead.contains(&to) {
            return false;
        }
        self.marked.remove(&to);
        if from == to || from == FileId::NONE || self.dead.contains(&from) {
            return false;
        }
        let (reduction, clock, n) = (self.reduction, self.clock, self.n);
        let row = self.rows.entry(from).or_default();
        if let Some(e) = row.iter_mut().find(|e| e.to == to) {
            e.summary.observe(reduction, distance);
            e.last_update = clock;
            return false;
        }
        let fresh = NeighborEntry {
            to,
            summary: PairSummary::first(reduction, distance),
            last_update: clock,
        };
        if row.len() < n {
            row.push(fresh);
            return false;
        }
        if let Some(e) = row
            .iter_mut()
            .find(|e| self.marked.contains_key(&e.to) || self.dead.contains(&e.to))
        {
            *e = fresh;
            return false;
        }
        let mut max_idxs = Vec::new();
        let mut max_d = f64::NEG_INFINITY;
        for (k, e) in row.iter().enumerate() {
            let d = e.summary.distance(reduction);
            if d > max_d + 1e-12 {
                max_d = d;
                max_idxs.clear();
                max_idxs.push(k);
            } else if (d - max_d).abs() <= 1e-12 {
                max_idxs.push(k);
            }
        }
        if max_d > fresh.summary.distance(reduction) {
            let pick = max_idxs[self.rng.gen_range(0..max_idxs.len())];
            row[pick] = fresh;
            return true;
        }
        let mut stalest_k = 0;
        for (k, e) in row.iter().enumerate() {
            if e.last_update < row[stalest_k].last_update {
                stalest_k = k;
            }
        }
        if !row.is_empty() && clock.saturating_sub(row[stalest_k].last_update) > self.aging_refs {
            row[stalest_k] = fresh;
            return true;
        }
        false
    }

    /// One window's `(from, distance)` observations into `to`. The
    /// reference to `to` rescues it even when the window is empty.
    fn observe_window(&mut self, from: &[(u32, f64)], to: FileId) -> u64 {
        if self.dead.contains(&to) {
            return 0;
        }
        self.marked.remove(&to);
        from.iter()
            .map(|&(f, d)| u64::from(self.observe(FileId(f), to, d)))
            .sum()
    }

    /// Marks `file` and purges every mark `deletion_delay` deletions old;
    /// returns the purged files, sorted.
    fn note_deletion(&mut self, file: FileId) -> Vec<FileId> {
        self.deletion_tick += 1;
        self.marked.insert(file, self.deletion_tick);
        let (tick, delay) = (self.deletion_tick, self.deletion_delay);
        let due: Vec<FileId> = self
            .marked
            .iter()
            .filter(|&(_, &t)| tick.saturating_sub(t) >= delay)
            .map(|(&f, _)| f)
            .collect();
        for f in &due {
            self.marked.remove(f);
            if !self.dead.contains(f) {
                self.dead.push(*f);
            }
            self.rows.remove(f);
        }
        due
    }

    fn snapshot(&self) -> TableSnapshot {
        let mut dead = self.dead.clone();
        dead.sort_unstable();
        TableSnapshot {
            n: self.n,
            reduction: self.reduction,
            aging_refs: self.aging_refs,
            deletion_delay: self.deletion_delay,
            deletion_tick: self.deletion_tick,
            clock: self.clock,
            rows: self
                .rows
                .iter()
                .filter(|(_, entries)| !entries.is_empty())
                .map(|(&f, entries)| (f, entries.clone()))
                .collect(),
            marked: self.marked.iter().map(|(&f, &t)| (f, t)).collect(),
            dead,
        }
    }
}

fn encoded(snap: &TableSnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    snap.encode(&mut buf);
    buf
}

/// One step applied to both tables.
#[derive(Debug, Clone)]
enum Op {
    Observe {
        from: u32,
        to: u32,
        distance: f64,
    },
    /// One window's observations into `to`, folded as a batch.
    Window {
        to: u32,
        from: Vec<(u32, f64)>,
    },
    Tick(u8),
    Delete(u32),
    /// Snapshot and restore with a fresh random seed.
    Restore(u64),
}

const FILES: u32 = 9;

/// Repeated values, a pair 1e-13 apart (inside the scan's tie
/// tolerance), a pair 0.01% apart, and far values a few ulps apart,
/// where the geometric reduction's `exp(ln(1 + d)) - 1` can land on
/// either side of its neighbor.
fn distance() -> impl Strategy<Value = f64> {
    let ulp = 1.0e6 * f64::EPSILON;
    prop::sample::select(vec![
        0.0,
        1.0,
        2.0,
        2.0 + 1e-13,
        3.0,
        5.0,
        5.0,
        8.0,
        8.0 - 1e-3,
        13.0,
        100.0,
        1.0e6,
        1.0e6 + ulp,
        1.0e6 + 3.0 * ulp,
        1.0e6 + 8.0 * ulp,
        1.0e6 + 20.0 * ulp,
    ])
}

fn op() -> impl Strategy<Value = Op> {
    let observe = || {
        (0..FILES, 0..FILES, distance()).prop_map(|(from, to, distance)| Op::Observe {
            from,
            to,
            distance,
        })
    };
    // Uniform over the arms: observations take four of eight.
    prop_oneof![
        observe(),
        observe(),
        observe(),
        observe(),
        (
            0..FILES,
            prop::collection::vec((0..FILES, distance()), 0..6)
        )
            .prop_map(|(to, from)| Op::Window { to, from }),
        (0u8..4).prop_map(Op::Tick),
        (0..FILES).prop_map(Op::Delete),
        (0u64..1_000).prop_map(Op::Restore),
    ]
}

fn run(n: usize, reduction: ReductionKind, aging_refs: u64, deletion_delay: u64, ops: &[Op]) {
    let mut table = NeighborTable::new(n, reduction, aging_refs, deletion_delay, 7);
    let mut reference = Reference::new(n, reduction, aging_refs, deletion_delay, 7);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Observe { from, to, distance } => {
                let (from, to) = (FileId(from), FileId(to));
                prop_assert_eq!(
                    table.observe(from, to, distance),
                    reference.observe(from, to, distance),
                    "eviction at step {}",
                    step
                );
            }
            Op::Window { to, ref from } => {
                let observations: Vec<Observation> = from
                    .iter()
                    .map(|&(f, distance)| Observation {
                        from: FileId(f),
                        distance,
                        compensated: false,
                    })
                    .collect();
                let want = reference.observe_window(from, FileId(to));
                prop_assert_eq!(
                    table.observe_window(&observations, FileId(to)),
                    want,
                    "window evictions at step {}",
                    step
                );
            }
            Op::Tick(k) => {
                for _ in 0..k {
                    table.tick();
                }
                reference.clock += u64::from(k);
            }
            Op::Delete(f) => {
                let mut purged = table.note_deletion(FileId(f));
                purged.sort_unstable();
                prop_assert_eq!(purged, reference.note_deletion(FileId(f)), "step {}", step);
            }
            Op::Restore(seed) => {
                table = NeighborTable::from_snapshot(table.snapshot(), seed);
                reference.rng = SmallRng::seed_from_u64(seed);
            }
        }
        prop_assert!(
            encoded(&table.snapshot()) == encoded(&reference.snapshot()),
            "tables diverged after step {}: {:?}",
            step,
            op
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn row_bounds_refuse_exactly_what_the_full_scan_refuses(
        n in 1usize..5,
        geometric in prop::bool::ANY,
        aging_refs in 0u64..8,
        deletion_delay in 0u64..3,
        ops in prop::collection::vec(op(), 1..200),
    ) {
        let reduction = if geometric {
            ReductionKind::Geometric
        } else {
            ReductionKind::Arithmetic
        };
        run(n, reduction, aging_refs, deletion_delay, &ops);
    }
}

/// Files the wide property draws targets from: enough to fill a row of
/// 24 and keep candidates coming.
const WIDE_FILES: u32 = 32;

/// Rows the wide property folds into, few enough that they fill.
const WIDE_ROWS: u32 = 4;

/// Ladders of near-ties 0.9e-12 apart (each rung inside the scan's 1e-12
/// tolerance of the one below, two rungs outside it) at 2.0 and 100.0,
/// and values whose single-observation mean terms straddle the tie
/// pass's 1e-6 margin below 5.0's, under each reduction.
fn wide_distance() -> impl Strategy<Value = f64> {
    let geometric_near = |offset: f64| (6.0f64.ln() - 1e-6 + offset).exp() - 1.0;
    let mut values = vec![0.0, 1.0, 3.0, 5.0, 13.0];
    for base in [2.0, 100.0] {
        values.extend((0..6).map(|k| base + f64::from(k) * 0.9e-12));
    }
    values.extend([5.0 - 1e-6 - 1e-9, 5.0 - 1e-6, 5.0 - 1e-6 + 1e-9]);
    values.extend([-1e-9, 0.0, 1e-9].map(geometric_near));
    prop::sample::select(values)
}

fn wide_op() -> impl Strategy<Value = Op> {
    let observe = || {
        (0..WIDE_ROWS, 0..WIDE_FILES, wide_distance())
            .prop_map(|(from, to, distance)| Op::Observe { from, to, distance })
    };
    prop_oneof![
        observe(),
        observe(),
        observe(),
        observe(),
        observe(),
        observe(),
        (
            0..WIDE_FILES,
            prop::collection::vec((0..WIDE_ROWS, wide_distance()), 0..6)
        )
            .prop_map(|(to, from)| Op::Window { to, from }),
        (0u8..4).prop_map(Op::Tick),
        (0..WIDE_FILES).prop_map(Op::Delete),
        (0u64..1_000).prop_map(Op::Restore),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Wide rows whose distances sit on tie ladders and around the tie
    /// pass's margin: the scan reads distances only near the top mean,
    /// and must still pick the tie list a walk over every slot picks.
    #[test]
    fn wide_rows_with_near_ties_evict_as_the_full_scan_does(
        n in 1usize..25,
        geometric in prop::bool::ANY,
        aging_refs in 0u64..64,
        deletion_delay in 0u64..3,
        ops in prop::collection::vec(wide_op(), 1..400),
    ) {
        let reduction = if geometric {
            ReductionKind::Geometric
        } else {
            ReductionKind::Arithmetic
        };
        run(n, reduction, aging_refs, deletion_delay, &ops);
    }
}

/// A summary as a damaged snapshot can carry it: any accumulator, any
/// count.
fn damaged(acc: f64, count: u32) -> PairSummary {
    let mut buf = Vec::new();
    (acc, count).encode(&mut buf);
    seer_trace::codec::decode_all(&buf).expect("a summary is an f64 and a count")
}

/// A restored table and its reference holding `rows`: each row `from`
/// lists targets 10, 11, … with the damaged `(acc, count)` summaries.
fn restored_rows(
    reduction: ReductionKind,
    rows: &[(u32, &[(f64, u32)])],
) -> (NeighborTable, Reference) {
    let rows = rows
        .iter()
        .map(|&(from, summaries)| {
            let entries = summaries
                .iter()
                .zip(10..)
                .map(|(&(acc, count), to)| NeighborEntry {
                    to: FileId(to),
                    summary: damaged(acc, count),
                    last_update: 0,
                })
                .collect();
            (FileId(from), entries)
        })
        .collect();
    let snap = TableSnapshot {
        n: 5,
        reduction,
        aging_refs: 1_000,
        deletion_delay: 3,
        deletion_tick: 0,
        clock: 0,
        rows,
        marked: Vec::new(),
        dead: Vec::new(),
    };
    let back: TableSnapshot =
        seer_trace::codec::decode_all(&encoded(&snap)).expect("the snapshot decodes");
    let mut reference = Reference::new(5, reduction, 1_000, 3, 7);
    reference.rows = back.rows.iter().cloned().collect();
    (NeighborTable::from_snapshot(back, 7), reference)
}

/// Misses on restored full rows holding NaN, negative and infinite
/// accumulators evict what the reference's full scan evicts: a NaN slot
/// is never the farthest, an infinite one is, and a row whose means are
/// all negative refuses every candidate.
#[test]
fn damaged_accumulators_scan_as_the_full_scan_does() {
    for reduction in [ReductionKind::Geometric, ReductionKind::Arithmetic] {
        let (mut table, mut reference) = restored_rows(
            reduction,
            &[
                (
                    0,
                    &[
                        (f64::NAN, 1),
                        (-2.0, 1),
                        (1.0, 1),
                        (f64::INFINITY, 1),
                        (f64::NEG_INFINITY, 1),
                    ],
                ),
                (
                    1,
                    &[
                        (-1.0, 1),
                        (-3.0, 2),
                        (f64::NEG_INFINITY, 1),
                        (-30.0, 1),
                        (-31.0, 1),
                    ],
                ),
            ],
        );
        for (from, to, distance) in [(0, 30, 0.5), (0, 31, 0.25), (1, 32, 0.0), (1, 33, 4.0)] {
            let (from, to) = (FileId(from), FileId(to));
            assert_eq!(
                table.observe(from, to, distance),
                reference.observe(from, to, distance),
                "{reduction:?}: {from:?} -> {to:?}"
            );
            assert!(
                encoded(&table.snapshot()) == encoded(&reference.snapshot()),
                "{reduction:?}: diverged at {from:?} -> {to:?}"
            );
        }
        let targets = |f: u32| {
            table
                .neighbors(FileId(f))
                .map(|e| e.to.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            targets(0),
            [10, 11, 31, 30, 14],
            "{reduction:?}: the infinite slot goes first, then the farthest finite one"
        );
        assert_eq!(targets(1), [10, 11, 12, 13, 14], "{reduction:?}");
    }
}

/// A restored summary with no observations reads as infinitely far, as
/// `PairSummary::distance` reads it, so a miss evicts it first.
#[test]
fn a_restored_summary_with_no_observations_is_the_farthest() {
    for reduction in [ReductionKind::Geometric, ReductionKind::Arithmetic] {
        let (mut table, mut reference) = restored_rows(
            reduction,
            &[(
                0,
                &[
                    (f64::NAN, 1),
                    (1.0, 1),
                    (3.0, 0),
                    (f64::INFINITY, 1),
                    (2.0, 1),
                ],
            )],
        );
        assert!(table.observe(FileId(0), FileId(30), 1.0));
        assert!(reference.observe(FileId(0), FileId(30), 1.0));
        assert!(
            encoded(&table.snapshot()) == encoded(&reference.snapshot()),
            "{reduction:?}"
        );
        assert!(
            table.distance(FileId(0), FileId(12)).is_none(),
            "{reduction:?}"
        );
    }
}
