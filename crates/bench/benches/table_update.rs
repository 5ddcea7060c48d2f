//! Microbenchmarks for the neighbor-table row update — the single hottest
//! call in the ingest path (one [`NeighborTable::observe`] per distance
//! observation: 6.6–7.1 per trace event on perfbench's `stream`
//! workload, 6.1–7.4 on `hoard`, over three traced seeds each).
//!
//! Six regimes bracket the real cost:
//!
//! - `existing_hot`: repeated updates to one cache-resident row — the pure
//!   ALU cost of the find-and-fold path.
//! - `existing_cold`: updates scattered over thousands of rows — adds the
//!   cache-miss cost of real table sizes (§5.3 reports ~10k tracked files).
//! - `full_row_reject`: a far candidate probing a full row. The first
//!   probe scans the row and records its bound; every later one is
//!   refused by that bound without reading the row's slots.
//! - `full_row_rescan`: the same probe after a deletion elsewhere, which
//!   outdates every row bound, so each probe walks the full priority scan
//!   (the deletion pass, then the mean terms and stalest stamp of all n,
//!   then the distances near the top).
//! - `full_row_evict`: a hit into a full row that lifts one slot's mean
//!   term alone to the top, then a candidate closer than that neighbor,
//!   so every iteration scans and evicts. No mark or purge voids the
//!   row's epoch, so the scan skips the deletion pass, and the top mean
//!   stands alone, so the scan decides on mean terms without an `exp`.
//! - `far_hit_then_far_miss`: a hit whose observation is far (100, the
//!   window cap) on a near slot of a full, bounded row, then a candidate
//!   at 50, farther than every neighbor. The hit raises the row bound to
//!   the slot's new mean, which stays near, so the bound refuses the
//!   candidate without reading the row.
//!
//! These times move with code placement as well as with the code on the
//! path each names: a change to one path can shift another's by several
//! nanoseconds. Check a gain in one against an in-process comparison or
//! the distance layer's own timing before crediting it.

use criterion::{criterion_group, criterion_main, Criterion};
use seer_distance::{NeighborTable, ReductionKind};
use seer_trace::FileId;

const N: usize = 20;

fn full_table(rows: u32) -> NeighborTable {
    let mut t = NeighborTable::new(N, ReductionKind::Geometric, 1_000_000, 100, 42);
    for i in 0..rows {
        for k in 0..N as u32 {
            let to = (i + 1 + k) % rows.max(2);
            t.observe(FileId(i), FileId(to), f64::from(k % 7));
        }
    }
    t
}

fn bench_existing_hot(c: &mut Criterion) {
    let mut t = full_table(64);
    c.bench_function("table_update/existing_hot", |b| {
        b.iter(|| {
            // Entry 10 of row 3 exists (to = 3 + 1 + 10 = 14).
            std::hint::black_box(t.observe(FileId(3), FileId(14), 3.0));
        });
    });
}

fn bench_existing_cold(c: &mut Criterion) {
    const ROWS: u32 = 8_192;
    let mut t = full_table(ROWS);
    // Pseudo-random row order defeats the prefetcher the same way real
    // reference streams do.
    let order: Vec<u32> = (0..ROWS)
        .map(|i| (i.wrapping_mul(2_654_435_761)) % ROWS)
        .collect();
    let mut cursor = 0usize;
    c.bench_function("table_update/existing_cold", |b| {
        b.iter(|| {
            let i = order[cursor];
            cursor = (cursor + 1) % order.len();
            let to = (i + 1 + 10) % ROWS;
            std::hint::black_box(t.observe(FileId(i), FileId(to), 3.0));
        });
    });
}

fn bench_full_row_reject(c: &mut Criterion) {
    // A rejected candidate leaves the table unchanged, so one table serves
    // every iteration.
    let mut t = full_table(64);
    c.bench_function("table_update/full_row_reject", |b| {
        b.iter(|| {
            // Candidate distance far above every stored entry: refused by
            // the row bound once a first probe has set it.
            std::hint::black_box(t.observe(FileId(3), FileId(60), 1.0e6));
        });
    });
}

fn bench_full_row_rescan(c: &mut Criterion) {
    let mut t = full_table(64);
    c.bench_function("table_update/full_row_rescan", |b| {
        b.iter(|| {
            // A deletion naming no file marks and purges nothing, but
            // outdates every row bound.
            t.note_deletion(FileId::NONE);
            std::hint::black_box(t.observe(FileId(3), FileId(60), 1.0e6));
        });
    });
}

fn bench_full_row_evict(c: &mut Criterion) {
    let mut t = full_table(64);
    // Row 3 holds targets 4..=23. Candidates cycle through 24..=63, each
    // evicting the one before it.
    let mut prev = 63;
    assert!(t.observe(FileId(3), FileId(prev), 2.0));
    c.bench_function("table_update/full_row_evict", |b| {
        b.iter(|| {
            // The hit lifts the newest neighbor (distance 2) to about 11.4,
            // past every other slot (at most 6); the candidate evicts it.
            // Its mean stands alone at the top, so no `exp` decides it.
            t.observe(FileId(3), FileId(prev), 50.0);
            let next = 24 + (prev - 23) % 40;
            assert!(t.observe(FileId(3), FileId(next), 2.0), "evicts");
            prev = next;
        });
    });
}

fn bench_far_hit_then_far_miss(c: &mut Criterion) {
    let mut t = full_table(64);
    // Row 3 holds targets 4..=23 at distances 0..=6; target 14 sits at 3.
    // It first gathers 2^24 observations at 0, so the far hits below lift
    // its mean only slowly: it stays below the candidate's for some 90M
    // iterations, many more than a run takes.
    for _ in 0..1 << 24 {
        t.observe(FileId(3), FileId(14), 0.0);
    }
    // A far probe scans the row and bounds it.
    assert!(!t.observe(FileId(3), FileId(60), 1.0e6));
    c.bench_function("table_update/far_hit_then_far_miss", |b| {
        b.iter(|| {
            t.observe(FileId(3), FileId(14), 100.0);
            assert!(!t.observe(FileId(3), FileId(60), 50.0), "refused");
        });
    });
}

criterion_group!(
    benches,
    bench_existing_hot,
    bench_existing_cold,
    bench_full_row_reject,
    bench_full_row_rescan,
    bench_full_row_evict,
    bench_far_hit_then_far_miss
);
criterion_main!(benches);
