//! The n-nearest-neighbor distance table (§3.1.3).
//!
//! Storing all N² pairwise distances is prohibitive, so SEER keeps only the
//! `n = 20` closest neighbors of each file. When a closer candidate
//! arrives and the row is full, replacement follows a strict priority:
//! first a neighbor marked for deletion, then the neighbor with the largest
//! current distance (ties broken randomly) if it is farther than the
//! candidate, and finally an aging rule that lets very old, inactive
//! references give way to new ones.
//!
//! # Storage layout
//!
//! Rows are stored struct-of-arrays, indexed by the dense [`FileId`] space:
//! the row of file index `i` occupies slots `[i*n, i*n + len)` of two
//! parallel arrays: target ids, and each slot's streaming summary,
//! last-update clock and mean term.
//! The hot path — one [`NeighborTable::observe`] per distance observation —
//! therefore never hashes a key: row lookup is one multiply, and the
//! priority scans walk a few contiguous cache lines. Deletion marks and
//! dead files are dense bitmaps for the same reason.
//!
//! # Row bounds
//!
//! Most misses on a full row are refusals: the candidate is farther than
//! every stored neighbor, nothing is marked, and nothing is stale. Each
//! slot keeps its summary's mean term (the mean distance, or the mean of
//! `ln(1 + d)` that a geometric summary exponentiates), refreshed by every
//! fold. Each row header keeps an upper bound on its slots' mean terms, a
//! lower bound on their update stamps, and the deletion epoch its last
//! scan ran at. Folds keep the bound tight: a hit raises it to the slot's
//! new mean, a scan sets it to the row's largest mean, and an eviction to
//! the larger of the candidate's mean and the largest mean left. A miss
//! whose mean term lies above the bound is refused without reading the
//! row's slots (see `NeighborTable::refuses_by_bound` for why that refusal
//! is exactly the scan's).
//!
//! # Row scans
//!
//! A miss the bound does not decide scans the row, and reaches the
//! decision a walk over every slot reaches with less work. The deletion
//! pass runs only when the row's epoch is stale: a current one proves no
//! target is marked or dead. Pass one reads every slot's stored mean and
//! stamp, with no division: the top mean, the first slot at it, the
//! largest mean among the other slots, and the stalest stamp. When the top
//! mean stands alone more than `1e-6` above the rest, priority 2 is
//! decided on means, without an `exp` (see `NeighborTable::single_top`).
//! Otherwise a second pass runs the 1e-12 tie chain on distances, computing
//! them only for slots whose mean lies within `1e-6` of the top one; a slot
//! below that can never end in the tie list (see `NeighborTable::tie_cut`).
//!
//! # Reads for clustering
//!
//! A recluster reads the rows in place: [`NeighborTable::rows`] lends
//! each row's slice of target ids and [`NeighborTable::is_dead`] says
//! which targets were purged, so the clustering crate builds its flat
//! neighbor sets in one pass with nothing copied first.
//! [`NeighborTable::take_dirty`] names the rows whose membership changed
//! since the previous read.

use crate::config::ReductionKind;
use crate::reduction::PairSummary;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use seer_trace::codec::{Codec, DecodeError, Reader};
use seer_trace::FileId;

/// One stored neighbor relation `from → to`.
#[derive(Debug, Clone, Copy)]
pub struct NeighborEntry {
    /// The related file.
    pub to: FileId,
    /// Streaming distance summary.
    pub summary: PairSummary,
    /// Table clock value of the most recent update (drives aging).
    pub last_update: u64,
}

seer_trace::codec_struct!(NeighborEntry {
    to,
    summary,
    last_update,
} min_bytes = 1 + PairSummary::MIN_BYTES + 1);

/// Sentinel in the dense mark array: not marked for deletion.
const UNMARKED: u64 = u64::MAX;

/// The most neighbors per file a decoded table may keep: restoring
/// allocates `n` slots per row, so a damaged `n` is refused rather than
/// honoured as an allocation request.
const MAX_DECODED_NEIGHBORS: usize = 1 << 16;

/// The rows whose neighbor *membership* changed since the last
/// [`NeighborTable::take_dirty`], for incremental shared-neighbor
/// maintenance. Distance-only updates to an existing entry do not dirty a
/// row: clustering consumes neighbor identities, not distances.
#[derive(Debug, Default, Clone)]
pub struct TableDirty {
    /// Files whose neighbor target lists gained or swapped members, and,
    /// after a purge, the dead rows and every row that listed one.
    pub rows: Vec<FileId>,
    /// Whether the table was restored from a snapshot since the last
    /// drain: a restored table has no baseline to describe a delta
    /// against, so incremental consumers must fall back to a full
    /// recount.
    pub structural: bool,
}

/// How far a candidate's mean term must lie above a row's bound for the
/// bound to refuse it (2^-13); see [`NeighborTable::refuses_by_bound`].
const BOUND_MARGIN: f64 = 1.0 / 8_192.0;

/// How far below the row's top mean term a slot's own mean may lie and
/// still have its distance read by the scan's tie pass; see
/// [`NeighborTable::tie_cut`].
const TIE_MARGIN: f64 = 1e-6;

/// The mean terms the single-top decision takes lie below this: `exp` of
/// them is finite (it overflows past 709.78). See
/// [`NeighborTable::single_top`].
const SINGLE_TOP_MAX_MEAN: f64 = 700.0;

/// How far apart the top mean and the candidate's must lie for the
/// single-top decision to compare them without an `exp`.
const SINGLE_TOP_GAP: f64 = 1e-9;

/// A row's entry count plus its bounds, side by side so the hit path,
/// which reads `len` and raises `bound`, touches one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct RowHeader {
    /// Entries in use.
    len: u32,
    /// Upper bound on the mean term of every slot whose mean is not NaN;
    /// `INFINITY` while unknown (a new, filling, or restored row, or one
    /// whose last scan replaced a deletion-marked or dead neighbor).
    bound: f64,
    /// Lower bound on every slot's update stamp.
    stalest: u64,
    /// The table's deletion epoch at the row's last scan; the bound
    /// refuses a candidate only while no mark or purge has happened
    /// since.
    epoch: u64,
}

impl RowHeader {
    const EMPTY: RowHeader = RowHeader {
        len: 0,
        bound: f64::INFINITY,
        stalest: 0,
        epoch: 0,
    };
}

/// Per-slot payload rewritten together on every fold: the running pair
/// summary, the last-update stamp, and the summary's mean term, in one
/// 32-byte array element.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    summary: PairSummary,
    update: u64,
    /// `summary.mean()`, rewritten with the summary: what the row bound
    /// covers and the scan's first pass reads, with no division.
    mean: f64,
}

impl SlotMeta {
    fn new(summary: PairSummary, update: u64) -> SlotMeta {
        SlotMeta {
            summary,
            update,
            mean: summary.mean(),
        }
    }
}

/// The global semantic-distance table.
#[derive(Debug)]
pub struct NeighborTable {
    n: usize,
    reduction: ReductionKind,
    aging_refs: u64,
    deletion_delay: u64,
    /// SoA row storage (see module docs): slot `i*n + k` is entry `k` of
    /// the row of file index `i`. `slot_to` is the scan-only key array;
    /// `slot_meta` is the payload the hit path rewrites — summary, update
    /// stamp and mean term together, so a fold dirties one payload cache
    /// line instead of two.
    slot_to: Vec<FileId>,
    slot_meta: Vec<SlotMeta>,
    /// Entry count and scan bounds per row, indexed by file.
    rows: Vec<RowHeader>,
    live_rows: usize,
    entries: usize,
    /// Deletion-mark tick per file ([`UNMARKED`] = live), §4.8's delayed
    /// removal.
    marked_tick: Vec<u64>,
    /// Files currently listed in `marked_list` (rescued files stay listed
    /// until the next purge scan drops them lazily).
    in_marked_list: Vec<bool>,
    marked_list: Vec<FileId>,
    /// Files fully purged; entries pointing at them are garbage.
    dead: Vec<bool>,
    dead_list: Vec<FileId>,
    /// Rows dirtied since the last `take_dirty` (flag array dedups).
    dirty_flag: Vec<bool>,
    dirty_rows: Vec<FileId>,
    structural: bool,
    /// Scratch for the priority-2 tie-break scan, kept to avoid a per-call
    /// allocation.
    scratch_idxs: Vec<usize>,
    deletion_tick: u64,
    /// Bumped by every [`NeighborTable::note_deletion`] (its mark and any
    /// purge), so a row bound taken before it no longer holds.
    mark_epoch: u64,
    clock: u64,
    rng: SmallRng,
    /// Misses that read a full row's slots; see [`NeighborTable::scans`].
    scans: u64,
    /// Distances the scans' tie chains computed; see
    /// [`NeighborTable::exps`].
    exps: u64,
}

impl NeighborTable {
    /// Creates a table keeping `n` neighbors per file.
    #[must_use]
    pub fn new(
        n: usize,
        reduction: ReductionKind,
        aging_refs: u64,
        deletion_delay: u64,
        seed: u64,
    ) -> NeighborTable {
        NeighborTable {
            n,
            reduction,
            aging_refs,
            deletion_delay,
            slot_to: Vec::new(),
            slot_meta: Vec::new(),
            rows: Vec::new(),
            live_rows: 0,
            entries: 0,
            marked_tick: Vec::new(),
            in_marked_list: Vec::new(),
            marked_list: Vec::new(),
            dead: Vec::new(),
            dead_list: Vec::new(),
            dirty_flag: Vec::new(),
            dirty_rows: Vec::new(),
            structural: false,
            scratch_idxs: Vec::new(),
            deletion_tick: 0,
            mark_epoch: 0,
            clock: 0,
            rng: SmallRng::seed_from_u64(seed),
            scans: 0,
            exps: 0,
        }
    }

    /// The reduction in use.
    #[must_use]
    pub fn reduction(&self) -> ReductionKind {
        self.reduction
    }

    /// Advances the table clock by one reference; call once per processed
    /// reference so aging is measured in references.
    pub fn tick(&mut self) {
        self.clock += 1;
    }

    /// Current table clock.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Misses on a full row that the row bound did not refuse, so they
    /// read the row's slots, since the table was made or restored.
    #[must_use]
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Distances the scans' tie chains computed (one `exp` each under
    /// the geometric reduction), the candidates' included, since the
    /// table was made or restored. A scan the single-top decision settles
    /// computes none.
    #[must_use]
    pub fn exps(&self) -> u64 {
        self.exps
    }

    /// Grows the per-file metadata arrays to cover `file`.
    fn ensure_meta(&mut self, file: FileId) {
        let need = file.index() + 1;
        if need > self.rows.len() {
            self.rows.resize(need, RowHeader::EMPTY);
            self.marked_tick.resize(need, UNMARKED);
            self.in_marked_list.resize(need, false);
            self.dead.resize(need, false);
            self.dirty_flag.resize(need, false);
        }
    }

    /// Grows the SoA slot arrays to hold the row of `file`.
    fn ensure_row_slots(&mut self, file: FileId) {
        let need = (file.index() + 1) * self.n;
        if need > self.slot_to.len() {
            self.slot_to.resize(need, FileId::NONE);
            self.slot_meta.resize(
                need,
                SlotMeta::new(PairSummary::first(self.reduction, 0.0), 0),
            );
        }
    }

    /// Requests that the head of `file`'s neighbor row be brought into
    /// cache ahead of a subsequent [`NeighborTable::observe`] scan.
    ///
    /// The distance engine calls this one observation ahead while
    /// draining a window's observation list: the rows a window references
    /// are scattered across the table, and a non-blocking prefetch hides
    /// most of the row-scan miss latency. On non-x86 targets this is a
    /// no-op. The pointers handed to the intrinsic come from checked
    /// `get`s, and a prefetch performs no architectural memory access, so
    /// the `unsafe` blocks are trivially sound.
    #[inline]
    pub fn prefetch_row(&self, file: FileId) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let i = file.index();
            if i >= self.rows.len() {
                return;
            }
            if let Some(first) = self.slot_to.get(i * self.n) {
                unsafe {
                    _mm_prefetch(std::ptr::from_ref(first).cast::<i8>(), _MM_HINT_T0);
                }
            }
            if let Some(meta) = self.slot_meta.get(i * self.n) {
                unsafe {
                    _mm_prefetch(std::ptr::from_ref(meta).cast::<i8>(), _MM_HINT_T0);
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = file;
    }

    /// Whether `file` was purged (§4.8). Rows keep a purged target until
    /// its slot is reused, so a reader of [`NeighborTable::rows`] drops
    /// the targets this reports.
    #[inline]
    #[must_use]
    pub fn is_dead(&self, file: FileId) -> bool {
        self.dead.get(file.index()).copied().unwrap_or(false)
    }

    #[inline]
    fn is_marked(&self, file: FileId) -> bool {
        self.marked_tick
            .get(file.index())
            .is_some_and(|&t| t != UNMARKED)
    }

    #[inline]
    fn mark_row_dirty(&mut self, file: FileId) {
        let i = file.index();
        if !self.dirty_flag[i] {
            self.dirty_flag[i] = true;
            self.dirty_rows.push(file);
        }
    }

    /// Folds one distance observation `from → to` into the table.
    ///
    /// Returns `true` when admitting the pair displaced a live neighbor
    /// from a full row (the O(n)-approximation evictions of §3.1.3);
    /// replacing a deletion-marked or dead entry is cleanup, not an
    /// eviction.
    pub fn observe(&mut self, from: FileId, to: FileId, distance: f64) -> bool {
        if to == FileId::NONE || self.is_dead(to) {
            return false;
        }
        // A fresh reference *to* a deletion-marked name means the name was
        // reused; rescue it (§4.8). `from` files are mere window history
        // and do not count as reuse. The store is guarded so the common
        // case (nothing marked) leaves the cache line clean.
        if let Some(t) = self.marked_tick.get_mut(to.index()) {
            if *t != UNMARKED {
                *t = UNMARKED;
            }
        }
        self.ensure_meta(to);
        self.observe_from(from, to, distance)
    }

    /// Folds one window's observations, all targeting the same new
    /// reference `to` — semantically identical to calling
    /// [`NeighborTable::observe`] per item in order, with the target-side
    /// work (liveness check, §4.8 rescue, metadata growth) hoisted out of
    /// the loop and each next row prefetched while the current one folds.
    /// Returns the number of evictions.
    pub fn observe_window(
        &mut self,
        observations: &[crate::history::Observation],
        to: FileId,
    ) -> u64 {
        if to == FileId::NONE || self.is_dead(to) {
            return 0;
        }
        if let Some(t) = self.marked_tick.get_mut(to.index()) {
            if *t != UNMARKED {
                *t = UNMARKED;
            }
        }
        self.ensure_meta(to);
        if let Some(first) = observations.first() {
            self.prefetch_row(first.from);
        }
        let mut evictions = 0;
        for (k, o) in observations.iter().enumerate() {
            if let Some(next) = observations.get(k + 1) {
                self.prefetch_row(next.from);
            }
            evictions += u64::from(self.observe_from(o.from, to, o.distance));
        }
        evictions
    }

    /// The from-row half of [`NeighborTable::observe`]: assumes the
    /// target-side checks already ran.
    #[inline]
    fn observe_from(&mut self, from: FileId, to: FileId, distance: f64) -> bool {
        if from == to || from == FileId::NONE || self.is_dead(from) {
            return false;
        }
        self.ensure_meta(from);
        self.ensure_row_slots(from);
        let clock = self.clock;
        let reduction = self.reduction;
        let i = from.index();
        let base = i * self.n;
        let header = self.rows[i];
        let len = header.len as usize;
        // Slice scan (not an indexed loop) so the search for an existing
        // entry compiles bounds-check-free — this is the hottest loop in
        // the observation path.
        if let Some(k) = self.slot_to[base..base + len].iter().position(|&t| t == to) {
            let m = &mut self.slot_meta[base + k];
            m.summary.observe(reduction, distance);
            m.mean = m.summary.mean();
            m.update = clock;
            // Only this slot's mean moved, and a NaN one stays outside
            // the bound (`max` ignores it).
            self.rows[i].bound = header.bound.max(m.mean);
            return false;
        }
        let summary = PairSummary::first(reduction, distance);
        if len < self.n {
            // A filling row's bound is unknown: rows only shrink by a
            // purge, which kills the row, so no scan has bounded it yet.
            self.put(from, base + len, to, summary);
            if len == 0 {
                self.live_rows += 1;
            }
            self.rows[i].len += 1;
            self.entries += 1;
            return false;
        }
        let cand = summary.mean();
        if self.refuses_by_bound(&header, cand) {
            return false;
        }
        self.scans += 1;
        // Priority 1: replace a neighbor marked for deletion (or dead).
        // While the row's epoch is current there is none to find: see
        // `refuses_by_bound`.
        if header.epoch != self.mark_epoch {
            for s in base..base + len {
                let t = self.slot_to[s];
                if self.is_marked(t) || self.is_dead(t) {
                    self.put(from, s, to, summary);
                    self.rows[i].bound = f64::INFINITY;
                    return false;
                }
            }
        }
        // Pass one reads every slot's mean term: the top one, the first
        // slot holding it, and the largest among the other slots (a NaN
        // mean passes neither test, so it is in neither). It also finds
        // the stalest entry for priority 3.
        let (mut top, mut top_k, mut second) = (f64::NEG_INFINITY, 0, f64::NEG_INFINITY);
        let (mut stalest_k, mut stalest) = (0, u64::MAX);
        for (k, m) in self.slot_meta[base..base + len].iter().enumerate() {
            if m.mean > top {
                second = top;
                (top, top_k) = (m.mean, k);
            } else {
                second = second.max(m.mean);
            }
            if m.update < stalest {
                stalest = m.update;
                stalest_k = k;
            }
        }
        self.rows[i] = RowHeader {
            len: header.len,
            bound: top,
            stalest,
            epoch: self.mark_epoch,
        };
        // Priority 2: replace the largest-distance neighbor (random tie
        // break) if it is farther than the candidate. Priority 3: aging —
        // replace the stalest entry if it has been inactive long enough.
        let farthest = if Self::single_top(top, second, cand) {
            (top > cand).then(|| {
                // The tie chain's draw from its one-slot list.
                let _: usize = self.rng.gen_range(0..1);
                top_k
            })
        } else {
            self.farthest_by_tie_chain(base, len, top, cand)
        };
        let victim = farthest.or_else(|| {
            (len > 0 && clock.saturating_sub(stalest) > self.aging_refs).then_some(stalest_k)
        });
        let Some(k) = victim else {
            return false;
        };
        self.put(from, base + k, to, summary);
        // The rest of the row tops out at `top`, or at `second` when the
        // slot replaced was the first at `top`; the candidate's mean joins.
        self.rows[i].bound = cand.max(if k == top_k { second } else { top });
        true
    }

    /// Whether a miss on the full row with `header`, whose candidate has
    /// mean term `cand`, is refused by the row's bound alone, which makes
    /// reading its slots unnecessary.
    ///
    /// The refusal equals the scan's, which in turn refuses without a
    /// side effect (no random draw, no dirty row):
    ///
    /// - Priority 1 cannot fire. The epoch is current, so no mark or purge
    ///   happened since a scan found no marked or dead target (or since a
    ///   new table's first row filled; a restored table starts at epoch 1,
    ///   so its rows' epoch 0 is never current), and every target stored
    ///   since was live and unmarked. The scan skips priority 1 on the
    ///   same grounds.
    /// - Priority 3 cannot fire. Stamps only grow, so the stalest is
    ///   within `aging_refs`.
    /// - Priority 2 replaces only when a slot's computed distance exceeds
    ///   the candidate's computed `new_d`. Each is its summary's stored
    ///   mean term mapped back (`PairSummary::distance` computes the same
    ///   `acc / count`), and `cand` is the candidate's. The bound is at
    ///   least every slot mean that is not NaN: a hit raises it to the
    ///   slot's new mean, a scan sets it to the row's largest mean, an
    ///   eviction to the larger of the candidate's and the largest left,
    ///   and every other write sets it to `INFINITY`. A NaN mean maps to
    ///   a NaN distance, which never exceeds `new_d`.
    ///
    /// So when the test passes, every other slot's mean is at most
    /// `bound`, and `bound < cand` (the addition rounds up to no less than
    /// `bound`). Arithmetically the mean is the distance, so every slot's
    /// distance is below `new_d`, which is `cand`. Geometrically, `cand` is
    /// at least 0 (`ln(1 + x)` of a clamped `x`). If it is infinite, so is
    /// `new_d`, and no distance exceeds it. Otherwise `cand < 710`, so the
    /// bound is below 710 too and the addition rounds by at most `2^-44`:
    /// every slot's mean lies more than `2^-14` below `cand`. The exact
    /// `exp` of the two then differs by a factor over `1 + 6e-5`, some
    /// `10^11` ulps, which `exp`'s error of about an ulp cannot reorder,
    /// and an overflow to `INFINITY` only ties. Subtracting 1 keeps the
    /// order, so every slot's distance is at most `new_d`.
    ///
    /// No running-sum drift enters: the bound follows the computed means,
    /// not the observations folded into them.
    #[inline]
    fn refuses_by_bound(&self, header: &RowHeader, cand: f64) -> bool {
        header.epoch == self.mark_epoch
            && self.clock.saturating_sub(header.stalest) <= self.aging_refs
            && header.bound + BOUND_MARGIN < cand
    }

    /// Whether the scan may decide priority 2 on mean terms, in a full row
    /// whose largest mean `top` is held first by one slot and whose other
    /// slots top out at `second`, against a candidate with mean `cand`.
    /// When it may, the tie chain would evict that slot exactly when
    /// `top > cand`, drawing once from a one-slot list.
    ///
    /// - The tie pass would read that slot and list only it. Every other
    ///   slot whose mean is not NaN lies below `tie_cut(top)`, so the pass
    ///   skips it, and by `tie_cut`'s proof a walk over every slot lists
    ///   the same. A NaN slot is read but never listed. The cut is
    ///   `-INFINITY` below 0, so `top` is at least 0, and below
    ///   [`SINGLE_TOP_MAX_MEAN`], so its distance `T` is finite and starts
    ///   the list: the farthest distance is `T`.
    /// - The chain evicts when `T > new_d`. Arithmetically `T` is `top`
    ///   and `new_d` is `cand`. Geometrically `1 + T` and `1 + new_d` are
    ///   the computed `exp` of `top` and of `cand`. Both means lie below
    ///   [`SINGLE_TOP_MAX_MEAN`], where `exp` is finite, and more than
    ///   [`SINGLE_TOP_GAP`] apart, so the exact values differ by a factor
    ///   over `1 + 1e-9`, millions of ulps, which `exp`'s rounding cannot
    ///   reorder. `cand` is at least 0, so when `top > cand` both values
    ///   are at least 1. Below `2^53` subtracting 1 is then exact, and
    ///   above it rounds by at most 1 where the two lie millions apart, so
    ///   `T > new_d`. When `top < cand`, subtracting 1 keeps the order, so
    ///   `T <= new_d`.
    #[inline]
    fn single_top(top: f64, second: f64, cand: f64) -> bool {
        second < Self::tie_cut(top)
            && top < SINGLE_TOP_MAX_MEAN
            && cand < SINGLE_TOP_MAX_MEAN
            && (top - cand).abs() > SINGLE_TOP_GAP
    }

    /// Priority 2 by the 1e-12 tie chain over the distances of the slots
    /// of the full row at `base` whose mean is not below `tie_cut(top)`:
    /// the slot to replace, drawn at random among the farthest, if the
    /// farthest is farther than the candidate with mean term `cand`.
    fn farthest_by_tie_chain(
        &mut self,
        base: usize,
        len: usize,
        top: f64,
        cand: f64,
    ) -> Option<usize> {
        let reduction = self.reduction;
        let cut = Self::tie_cut(top);
        let mut max_idxs = std::mem::take(&mut self.scratch_idxs);
        max_idxs.clear();
        let mut max_d = f64::NEG_INFINITY;
        for (k, m) in self.slot_meta[base..base + len].iter().enumerate() {
            if m.mean < cut {
                continue;
            }
            self.exps += 1;
            let d = PairSummary::distance_of(reduction, m.mean);
            if d > max_d + 1e-12 {
                max_d = d;
                max_idxs.clear();
                max_idxs.push(k);
            } else if (d - max_d).abs() <= 1e-12 {
                max_idxs.push(k);
            }
        }
        self.exps += 1;
        let new_d = PairSummary::distance_of(reduction, cand);
        let pick = (max_d > new_d).then(|| max_idxs[self.rng.gen_range(0..max_idxs.len())]);
        self.scratch_idxs = max_idxs;
        pick
    }

    /// The least mean term whose slot the scan's tie pass reads, in a full
    /// row whose largest mean term is `top`.
    ///
    /// Skipping the slots below it leaves the pass's result exactly as a
    /// walk over every slot leaves it: the same farthest distance, and the
    /// same tie list in the same order (so the same random draw). Write
    /// `T` for the row's largest distance and `e` for the tie tolerance,
    /// 1e-12. A NaN mean is never skipped (`NaN < cut` is false), and a
    /// NaN distance neither restarts the list nor joins it, so NaN slots
    /// are left out below.
    ///
    /// - A skipped slot lies more than `2(n + 1)e` below `T`. Its mean is
    ///   [`TIE_MARGIN`] below `top` (at worst half that, where
    ///   `top - TIE_MARGIN` rounds). Arithmetically the mean is the
    ///   distance. Geometrically `1 + d` is the mean's `exp`, a factor
    ///   `exp(-1e-6)` below `1 + T >= 1`, so `d` is about `1e-6` below
    ///   `T`. The decoder accepts `n <= 65,536`, where `2(n + 1)e` is
    ///   under `1.4e-7`; the rounding of the mean, `exp`, and the cut is a
    ///   few ulps of `1 + T`, far inside the difference.
    /// - No slot is skipped when `top` is negative: there `1 + T` can be so
    ///   small that means a whole unit apart tie within `e`. Only a damaged
    ///   snapshot holds a negative mean.
    /// - Call a slot a leap when its distance passes the list's restart
    ///   test against every distance before it in the row. Both walks
    ///   restart the list at a leap, since a walk's farthest distance so
    ///   far is one it has read. Follow the first slot at `T` back: a slot
    ///   that is no leap has an earlier one within `2e` of it (`e`, plus
    ///   the rounding of `max_d + e`, which reads `max_d` itself once half
    ///   an ulp exceeds `e`). A row holds at most `n` slots, so within
    ///   `n - 1` steps there is a leap at or above `T - 2(n - 1)e`.
    /// - From that leap on, every skipped slot lies more than `2e` below
    ///   the walk's farthest distance, so it neither restarts the list nor
    ///   joins it: both walks read the same slots from the same state and
    ///   end equal.
    #[inline]
    fn tie_cut(top: f64) -> f64 {
        if top < 0.0 {
            f64::NEG_INFINITY
        } else {
            top - TIE_MARGIN
        }
    }

    /// Stores a new neighbor `to` with `summary` in slot `s` of `from`'s
    /// row: a membership change.
    fn put(&mut self, from: FileId, s: usize, to: FileId, summary: PairSummary) {
        self.slot_to[s] = to;
        self.slot_meta[s] = SlotMeta::new(summary, self.clock);
        self.mark_row_dirty(from);
    }

    /// Marks `file` as deleted; actual purging happens after
    /// `deletion_delay` further deletions (§4.8). Returns the files whose
    /// marks came due with this deletion. A file deleted again after its
    /// purge comes due again, but purging it again leaves the table as it
    /// was: no second dead-list entry, no rescan, no dirty row.
    pub fn note_deletion(&mut self, file: FileId) -> Vec<FileId> {
        self.deletion_tick += 1;
        self.mark_epoch += 1;
        if file != FileId::NONE {
            self.ensure_meta(file);
            let i = file.index();
            if !self.in_marked_list[i] {
                self.in_marked_list[i] = true;
                self.marked_list.push(file);
            }
            self.marked_tick[i] = self.deletion_tick;
        }
        let tick = self.deletion_tick;
        let delay = self.deletion_delay;
        let mut due = Vec::new();
        let mut list = std::mem::take(&mut self.marked_list);
        list.retain(|&f| {
            let j = f.index();
            let t = self.marked_tick[j];
            if t == UNMARKED {
                // Rescued since it was listed; drop the stale entry.
                self.in_marked_list[j] = false;
                return false;
            }
            if tick.saturating_sub(t) >= delay {
                self.in_marked_list[j] = false;
                self.marked_tick[j] = UNMARKED;
                due.push(f);
                return false;
            }
            true
        });
        self.marked_list = list;
        // A file deleted again after its purge is due again, but it is
        // already out of every neighbor set: purging it changes nothing.
        let newly_dead: Vec<FileId> = due
            .iter()
            .copied()
            .filter(|f| !self.dead[f.index()])
            .collect();
        if !newly_dead.is_empty() {
            for &f in &newly_dead {
                let j = f.index();
                self.dead[j] = true;
                self.dead_list.push(f);
                let len = self.rows[j].len as usize;
                if len > 0 {
                    self.entries -= len;
                    self.live_rows -= 1;
                }
                self.rows[j] = RowHeader::EMPTY;
                self.mark_row_dirty(f);
            }
            // A purge changes the neighbor sets of exactly the dead rows
            // and every surviving row that listed a dead file as a target
            // (readers drop dead targets). Marking those rows dirty
            // keeps the delta precise, so incremental shared-neighbor
            // maintenance survives deletions without a full recount.
            for i in 0..self.rows.len() {
                let len = self.rows[i].len as usize;
                if len == 0 {
                    continue;
                }
                let base = i * self.n;
                if self.slot_to[base..base + len]
                    .iter()
                    .any(|t| newly_dead.contains(t))
                {
                    self.mark_row_dirty(FileId(i as u32));
                }
            }
        }
        due
    }

    /// Whether `file` is currently marked for deletion.
    #[must_use]
    pub fn is_marked_deleted(&self, file: FileId) -> bool {
        self.is_marked(file)
    }

    /// Takes the set of rows dirtied since the previous call, resetting
    /// the accumulator. Call at the moment the rows are read for a
    /// recluster: the delta then describes exactly what changed between
    /// consecutive reads, which is what incremental shared-neighbor
    /// maintenance needs.
    pub fn take_dirty(&mut self) -> TableDirty {
        let rows = std::mem::take(&mut self.dirty_rows);
        for f in &rows {
            self.dirty_flag[f.index()] = false;
        }
        let structural = self.structural;
        self.structural = false;
        TableDirty { rows, structural }
    }

    /// The stored neighbors of `file` (dead targets filtered out).
    pub fn neighbors(&self, file: FileId) -> impl Iterator<Item = NeighborEntry> + '_ {
        let i = file.index();
        let len = self.rows.get(i).map_or(0, |h| h.len as usize);
        let base = i * self.n;
        (base..base + len)
            .filter(|&s| !self.is_dead(self.slot_to[s]))
            .map(move |s| NeighborEntry {
                to: self.slot_to[s],
                summary: self.slot_meta[s].summary,
                last_update: self.slot_meta[s].update,
            })
    }

    /// The `k` closest stored neighbors of `file` under the configured
    /// reduction, closest first: `(neighbor, distance, evidence count)`.
    /// Evidence is the number of reference observations folded into the
    /// pair's streaming summary — how much data backs the distance.
    #[must_use]
    pub fn strongest_neighbors(&self, file: FileId, k: usize) -> Vec<(FileId, f64, u32)> {
        let mut out: Vec<(FileId, f64, u32)> = self
            .neighbors(file)
            .map(|e| (e.to, e.summary.distance(self.reduction), e.summary.count()))
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// The reduced distance `from → to`, if stored.
    #[must_use]
    pub fn distance(&self, from: FileId, to: FileId) -> Option<f64> {
        let i = from.index();
        let len = self.rows.get(i).map_or(0, |h| h.len as usize);
        let base = i * self.n;
        (base..base + len)
            .find(|&s| self.slot_to[s] == to)
            .map(|s| self.slot_meta[s].summary.distance(self.reduction))
    }

    /// All files with at least one stored neighbor, in id order.
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.rows().map(|(f, _)| f)
    }

    /// Number of files with stored rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live_rows
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live_rows == 0
    }

    /// Total stored neighbor entries (memory diagnostics, §5.3).
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.entries
    }

    /// Every stored row in id order, as `(file, targets)`, lent from the
    /// table's slot array: nothing is copied. Targets are in slot order
    /// and may include purged files; filter them with
    /// [`NeighborTable::is_dead`].
    pub fn rows(&self) -> impl Iterator<Item = (FileId, &[FileId])> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter(|&(_, h)| h.len > 0)
            .map(|(i, h)| {
                let base = i * self.n;
                (FileId(i as u32), &self.slot_to[base..base + h.len as usize])
            })
    }

    /// Captures the table's persistent state (the SEER database of known
    /// files that survives restarts, §5.3).
    #[must_use]
    pub fn snapshot(&self) -> TableSnapshot {
        let mut rows: Vec<(FileId, Vec<NeighborEntry>)> = Vec::with_capacity(self.live_rows);
        for (i, h) in self.rows.iter().enumerate() {
            if h.len == 0 {
                continue;
            }
            let base = i * self.n;
            let entries: Vec<NeighborEntry> = (base..base + h.len as usize)
                .map(|s| NeighborEntry {
                    to: self.slot_to[s],
                    summary: self.slot_meta[s].summary,
                    last_update: self.slot_meta[s].update,
                })
                .collect();
            rows.push((FileId(i as u32), entries));
        }
        let mut marked: Vec<(FileId, u64)> = self
            .marked_list
            .iter()
            .filter_map(|&f| {
                let t = self.marked_tick[f.index()];
                (t != UNMARKED).then_some((f, t))
            })
            .collect();
        marked.sort_by_key(|(f, _)| *f);
        let mut dead: Vec<FileId> = self.dead_list.clone();
        dead.sort_unstable();
        TableSnapshot {
            n: self.n,
            reduction: self.reduction,
            aging_refs: self.aging_refs,
            deletion_delay: self.deletion_delay,
            deletion_tick: self.deletion_tick,
            clock: self.clock,
            rows,
            marked,
            dead,
        }
    }

    /// Restores a table from a snapshot. The random tie-break state is
    /// reseeded from `seed`.
    #[must_use]
    pub fn from_snapshot(snap: TableSnapshot, seed: u64) -> NeighborTable {
        let mut t = NeighborTable::new(
            snap.n,
            snap.reduction,
            snap.aging_refs,
            snap.deletion_delay,
            seed,
        );
        t.deletion_tick = snap.deletion_tick;
        t.clock = snap.clock;
        // Restored rows can hold marked or dead targets under epoch 0, so
        // that epoch is never current here: each row's first scan runs
        // priority 1.
        t.mark_epoch = 1;
        for (f, entries) in snap.rows {
            if f == FileId::NONE || entries.is_empty() {
                continue;
            }
            t.ensure_meta(f);
            t.ensure_row_slots(f);
            let i = f.index();
            let base = i * t.n;
            let len = entries.len().min(t.n);
            for (k, e) in entries.into_iter().take(len).enumerate() {
                t.slot_to[base + k] = e.to;
                t.slot_meta[base + k] = SlotMeta::new(e.summary, e.last_update);
            }
            // The row's bound stays unknown: its first miss scans it.
            t.rows[i].len = len as u32;
            t.live_rows += 1;
            t.entries += len;
        }
        for (f, tick) in snap.marked {
            if f == FileId::NONE {
                continue;
            }
            t.ensure_meta(f);
            let i = f.index();
            t.marked_tick[i] = tick;
            if !t.in_marked_list[i] {
                t.in_marked_list[i] = true;
                t.marked_list.push(f);
            }
        }
        for f in snap.dead {
            if f == FileId::NONE {
                continue;
            }
            t.ensure_meta(f);
            if !t.dead[f.index()] {
                t.dead[f.index()] = true;
                t.dead_list.push(f);
            }
        }
        // A restored table has no valid incremental baseline.
        t.structural = true;
        t
    }
}

/// Persistent state of a [`NeighborTable`].
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    /// Neighbors kept per file.
    pub n: usize,
    /// Reduction in use.
    pub reduction: ReductionKind,
    /// Aging threshold in references.
    pub aging_refs: u64,
    /// Deletion delay in deletions.
    pub deletion_delay: u64,
    /// Deletion counter.
    pub deletion_tick: u64,
    /// Reference clock.
    pub clock: u64,
    /// All rows, strictly ascending by file id.
    pub rows: Vec<(FileId, Vec<NeighborEntry>)>,
    /// Deletion-marked files with their mark ticks.
    pub marked: Vec<(FileId, u64)>,
    /// Fully purged files.
    pub dead: Vec<FileId>,
}

/// Encoded field by field, in declaration order. Decoding refuses a
/// neighbor count above 65 536, a row longer than its table's neighbor
/// count, and rows not strictly ascending by file id, as
/// [`NeighborTable::snapshot`] writes them: a row listed twice would be
/// restored twice.
impl Codec for TableSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.n.encode(buf);
        self.reduction.encode(buf);
        self.aging_refs.encode(buf);
        self.deletion_delay.encode(buf);
        self.deletion_tick.encode(buf);
        self.clock.encode(buf);
        self.rows.encode(buf);
        self.marked.encode(buf);
        self.dead.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<TableSnapshot, DecodeError> {
        let n = usize::decode(r)?;
        if n > MAX_DECODED_NEIGHBORS {
            return Err(DecodeError("implausible neighbors per file"));
        }
        let snap = TableSnapshot {
            n,
            reduction: Codec::decode(r)?,
            aging_refs: Codec::decode(r)?,
            deletion_delay: Codec::decode(r)?,
            deletion_tick: Codec::decode(r)?,
            clock: Codec::decode(r)?,
            rows: Codec::decode(r)?,
            marked: Codec::decode(r)?,
            dead: Codec::decode(r)?,
        };
        if snap.rows.iter().any(|(_, entries)| entries.len() > n) {
            return Err(DecodeError("a row holds more than n neighbors"));
        }
        if snap.rows.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(DecodeError("rows out of file order"));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table(n: usize) -> NeighborTable {
        NeighborTable::new(n, ReductionKind::Geometric, 1000, 3, 42)
    }

    #[test]
    fn observe_and_query() {
        let mut t = table(5);
        t.observe(FileId(1), FileId(2), 4.0);
        assert!((t.distance(FileId(1), FileId(2)).expect("stored") - 4.0).abs() < 1e-9);
        assert_eq!(t.distance(FileId(2), FileId(1)), None, "asymmetric");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn repeated_observations_reduce() {
        let mut t = table(5);
        t.observe(FileId(1), FileId(2), 0.0);
        t.observe(FileId(1), FileId(2), 0.0);
        let d = t.distance(FileId(1), FileId(2)).expect("stored");
        assert!(d.abs() < 1e-9);
    }

    #[test]
    fn self_distance_ignored() {
        let mut t = table(5);
        t.observe(FileId(1), FileId(1), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn full_row_replaces_largest_when_closer() {
        let mut t = table(2);
        t.observe(FileId(0), FileId(1), 50.0);
        t.observe(FileId(0), FileId(2), 80.0);
        // Candidate closer than the current max (80): replaces it.
        t.observe(FileId(0), FileId(3), 10.0);
        assert!(
            t.distance(FileId(0), FileId(2)).is_none(),
            "largest evicted"
        );
        assert!(t.distance(FileId(0), FileId(1)).is_some());
        assert!(t.distance(FileId(0), FileId(3)).is_some());
    }

    #[test]
    fn full_row_keeps_existing_when_candidate_is_farther() {
        let mut t = table(2);
        t.observe(FileId(0), FileId(1), 5.0);
        t.observe(FileId(0), FileId(2), 8.0);
        t.observe(FileId(0), FileId(3), 100.0);
        assert!(
            t.distance(FileId(0), FileId(3)).is_none(),
            "far candidate dropped"
        );
        assert_eq!(t.neighbors(FileId(0)).count(), 2);
    }

    #[test]
    fn deletion_marked_neighbor_is_first_to_go() {
        let mut t = table(2);
        t.observe(FileId(0), FileId(1), 5.0);
        t.observe(FileId(0), FileId(2), 1.0);
        t.note_deletion(FileId(2));
        // Candidate is farther than everything, but the deletion-marked
        // neighbor still loses its slot (priority 1).
        t.observe(FileId(0), FileId(3), 90.0);
        assert!(t.distance(FileId(0), FileId(2)).is_none());
        assert!(t.distance(FileId(0), FileId(3)).is_some());
    }

    #[test]
    fn aging_replaces_stale_entries() {
        let mut t = NeighborTable::new(2, ReductionKind::Geometric, 10, 3, 42);
        t.observe(FileId(0), FileId(1), 1.0);
        t.observe(FileId(0), FileId(2), 2.0);
        for _ in 0..50 {
            t.tick();
        }
        // Candidate is farther than both, but both entries are stale.
        t.observe(FileId(0), FileId(3), 99.0);
        assert!(
            t.distance(FileId(0), FileId(3)).is_some(),
            "aged entry replaced"
        );
        assert_eq!(t.neighbors(FileId(0)).count(), 2);
    }

    #[test]
    fn recently_updated_entries_do_not_age_out() {
        let mut t = NeighborTable::new(2, ReductionKind::Geometric, 1_000, 3, 42);
        t.observe(FileId(0), FileId(1), 1.0);
        t.observe(FileId(0), FileId(2), 2.0);
        t.tick();
        t.observe(FileId(0), FileId(3), 99.0);
        assert!(t.distance(FileId(0), FileId(3)).is_none());
    }

    #[test]
    fn delayed_deletion_purges_after_delay() {
        let mut t = table(5);
        t.observe(FileId(1), FileId(2), 1.0);
        t.observe(FileId(2), FileId(1), 1.0);
        let purged = t.note_deletion(FileId(1));
        assert!(purged.is_empty(), "not purged immediately");
        assert!(t.is_marked_deleted(FileId(1)));
        assert!(
            t.distance(FileId(1), FileId(2)).is_some(),
            "row survives the delay"
        );
        // Two more deletions push the tick past the delay of 3.
        t.note_deletion(FileId(10));
        t.note_deletion(FileId(11));
        let purged = t.note_deletion(FileId(12));
        assert!(purged.contains(&FileId(1)));
        assert!(t.distance(FileId(1), FileId(2)).is_none(), "row purged");
        // Entries *to* the dead file are filtered from queries.
        assert!(t.neighbors(FileId(2)).all(|e| e.to != FileId(1)));
    }

    #[test]
    fn reference_rescues_marked_file() {
        let mut t = table(5);
        t.observe(FileId(1), FileId(2), 1.0);
        t.note_deletion(FileId(1));
        assert!(t.is_marked_deleted(FileId(1)));
        // The name is reused (referenced anew) before the delay expires
        // (§4.8).
        t.observe(FileId(3), FileId(1), 2.0);
        assert!(!t.is_marked_deleted(FileId(1)));
        t.note_deletion(FileId(20));
        t.note_deletion(FileId(21));
        t.note_deletion(FileId(22));
        assert!(
            t.distance(FileId(1), FileId(2)).is_some(),
            "rescued row survives"
        );
    }

    #[test]
    fn observations_to_dead_files_are_dropped() {
        let mut t = NeighborTable::new(5, ReductionKind::Geometric, 1000, 1, 42);
        t.observe(FileId(1), FileId(2), 1.0);
        t.note_deletion(FileId(1)); // Delay 1: purged on the next deletion.
        t.note_deletion(FileId(9));
        t.observe(FileId(1), FileId(3), 1.0);
        assert!(t.distance(FileId(1), FileId(3)).is_none());
        t.observe(FileId(4), FileId(1), 1.0);
        assert!(t.neighbors(FileId(4)).next().is_none());
    }

    #[test]
    fn snapshot_round_trips() {
        let mut t = table(5);
        t.observe(FileId(1), FileId(2), 4.0);
        t.observe(FileId(1), FileId(3), 1.0);
        t.tick();
        t.note_deletion(FileId(9));
        let snap = t.snapshot();
        let mut buf = Vec::new();
        snap.encode(&mut buf);
        let back: TableSnapshot = seer_trace::codec::decode_all(&buf).expect("decode");
        let restored = NeighborTable::from_snapshot(back, 7);
        assert_eq!(restored.clock(), t.clock());
        let (a, b) = (
            restored.distance(FileId(1), FileId(2)).expect("stored"),
            t.distance(FileId(1), FileId(2)).expect("stored"),
        );
        assert!(
            (a - b).abs() < 1e-9,
            "binary float round-trip within tolerance"
        );
        assert!(restored.is_marked_deleted(FileId(9)));
        assert_eq!(restored.total_entries(), t.total_entries());
    }

    #[test]
    fn rows_lend_stored_targets_and_flag_the_dead() {
        let mut t = NeighborTable::new(5, ReductionKind::Geometric, 1000, 1, 42);
        t.observe(FileId(1), FileId(2), 1.0);
        t.observe(FileId(1), FileId(3), 2.0);
        t.observe(FileId(2), FileId(3), 1.0);
        // Purge 3: its name dies after one further deletion (delay 1).
        t.note_deletion(FileId(3));
        t.note_deletion(FileId(9));
        assert!(t.is_dead(FileId(3)) && !t.is_dead(FileId(2)));
        let rows: Vec<(FileId, Vec<FileId>)> =
            t.rows().map(|(f, targets)| (f, targets.to_vec())).collect();
        assert_eq!(
            rows,
            vec![
                (FileId(1), vec![FileId(2), FileId(3)]),
                (FileId(2), vec![FileId(3)]),
            ],
            "rows in id order, the dead target still stored"
        );
        // The rows are the table's own: a later observation shows in the
        // next read.
        t.observe(FileId(1), FileId(7), 1.0);
        assert_eq!(
            t.rows().next(),
            Some((FileId(1), &[FileId(2), FileId(3), FileId(7)][..]))
        );
    }

    #[test]
    fn total_entries_counts_all_rows() {
        let mut t = table(5);
        t.observe(FileId(1), FileId(2), 1.0);
        t.observe(FileId(1), FileId(3), 1.0);
        t.observe(FileId(2), FileId(3), 1.0);
        assert_eq!(t.total_entries(), 3);
    }

    #[test]
    fn dirty_tracking_reports_membership_changes_only() {
        let mut t = table(2);
        t.observe(FileId(1), FileId(2), 1.0);
        t.observe(FileId(3), FileId(4), 1.0);
        let d = t.take_dirty();
        assert_eq!(d.rows, vec![FileId(1), FileId(3)]);
        assert!(!d.structural);
        // A distance-only update leaves the membership untouched.
        t.observe(FileId(1), FileId(2), 5.0);
        let d = t.take_dirty();
        assert!(d.rows.is_empty());
        assert!(!d.structural);
        // A replacement changes membership and dirties the row again.
        t.observe(FileId(1), FileId(5), 2.0);
        t.observe(FileId(1), FileId(6), 0.5);
        let d = t.take_dirty();
        assert_eq!(d.rows, vec![FileId(1)]);
    }

    #[test]
    fn dirty_tracking_marks_purged_row_and_referrers() {
        let mut t = NeighborTable::new(5, ReductionKind::Geometric, 1000, 1, 42);
        t.observe(FileId(1), FileId(2), 1.0);
        t.observe(FileId(3), FileId(4), 1.0);
        t.take_dirty();
        t.note_deletion(FileId(2));
        let d = t.take_dirty();
        assert!(
            d.rows.is_empty() && !d.structural,
            "marking alone is invisible"
        );
        t.note_deletion(FileId(9));
        let d = t.take_dirty();
        assert!(
            !d.structural,
            "a purge is a precise row delta, not structural"
        );
        assert!(d.rows.contains(&FileId(2)), "the dead row goes dirty");
        assert!(d.rows.contains(&FileId(1)), "the referrer's view changed");
        assert!(!d.rows.contains(&FileId(3)), "unrelated rows stay clean");
    }

    /// Deleting a purged file again lists it dead once, dirties no row,
    /// and leaves a table that encodes like its restored copy.
    #[test]
    fn purging_a_dead_file_again_changes_nothing() {
        let encoded = |t: &NeighborTable| {
            let mut buf = Vec::new();
            t.snapshot().encode(&mut buf);
            buf
        };
        let mut t = NeighborTable::new(5, ReductionKind::Geometric, 1000, 0, 42);
        t.observe(FileId(1), FileId(2), 1.0);
        t.observe(FileId(3), FileId(4), 1.0);
        assert_eq!(t.note_deletion(FileId(2)), vec![FileId(2)]);
        assert!(t.take_dirty().rows.contains(&FileId(1)));
        t.observe(FileId(1), FileId(4), 1.0);
        t.take_dirty();
        t.note_deletion(FileId(2));
        let d = t.take_dirty();
        assert!(d.rows.is_empty(), "no view changed: {:?}", d.rows);
        assert_eq!(t.snapshot().dead, vec![FileId(2)]);
        let restored = NeighborTable::from_snapshot(t.snapshot(), 42);
        assert_eq!(encoded(&t), encoded(&restored));
    }

    #[test]
    fn dirty_tracking_flags_snapshot_restore_as_structural() {
        let mut t = NeighborTable::new(5, ReductionKind::Geometric, 1000, 1, 42);
        t.observe(FileId(1), FileId(2), 1.0);
        let mut restored = NeighborTable::from_snapshot(t.snapshot(), 42);
        assert!(
            restored.take_dirty().structural,
            "a restored table has no incremental baseline"
        );
    }

    /// Whether the row of `from` would refuse a candidate at `distance`
    /// by its bound alone, without a scan: the bound is tested against
    /// the candidate's mean term, as the miss path tests it.
    fn bound_refuses(t: &NeighborTable, from: u32, distance: f64) -> bool {
        let cand = PairSummary::first(t.reduction, distance).mean();
        t.refuses_by_bound(&t.rows[from as usize], cand)
    }

    /// Row 0 full with neighbors 1 (distance 5) and 2 (distance 8), and
    /// a refused far candidate having set its bound.
    fn bounded(aging_refs: u64, deletion_delay: u64) -> NeighborTable {
        let mut t = NeighborTable::new(2, ReductionKind::Geometric, aging_refs, deletion_delay, 42);
        t.observe(FileId(0), FileId(1), 5.0);
        t.observe(FileId(0), FileId(2), 8.0);
        assert!(!bound_refuses(&t, 0, 100.0), "a filled row has no bound");
        assert!(!t.observe(FileId(0), FileId(3), 100.0), "refused");
        assert!(t.distance(FileId(0), FileId(3)).is_none());
        t
    }

    #[test]
    fn refusal_sets_the_row_bound() {
        let mut t = bounded(1_000, 3);
        assert!(bound_refuses(&t, 0, 100.0));
        assert!(bound_refuses(&t, 0, 8.01));
        assert!(!bound_refuses(&t, 0, 8.0), "no refusal inside the margin");
        assert!(!bound_refuses(&t, 0, 1.0));
        // The bound's refusal changes nothing.
        t.take_dirty();
        assert!(!t.observe(FileId(0), FileId(4), 100.0));
        assert!(t.take_dirty().rows.is_empty());
        assert_eq!(t.neighbors(FileId(0)).count(), 2);
        // A closer candidate still evicts the farthest neighbor.
        assert!(t.observe(FileId(0), FileId(5), 6.0));
        assert!(t.distance(FileId(0), FileId(2)).is_none());
        assert!(bound_refuses(&t, 0, 100.0), "an eviction keeps a bound");
    }

    #[test]
    fn a_deletion_mark_forces_the_scan_and_priority_one_wins() {
        let mut t = bounded(1_000, 3);
        t.note_deletion(FileId(2));
        assert!(!bound_refuses(&t, 0, 100.0));
        // Farther than every neighbor, yet the marked one gives way.
        assert!(!t.observe(FileId(0), FileId(3), 100.0));
        assert!(t.distance(FileId(0), FileId(2)).is_none());
        assert!(t.distance(FileId(0), FileId(3)).is_some());
    }

    #[test]
    fn a_purge_forces_the_scan() {
        // Delay 0: the deletion marks and purges in one call.
        let mut t = bounded(1_000, 0);
        assert_eq!(t.note_deletion(FileId(2)), vec![FileId(2)]);
        assert!(!bound_refuses(&t, 0, 100.0));
        assert!(!t.observe(FileId(0), FileId(3), 100.0));
        assert!(
            t.distance(FileId(0), FileId(3)).is_some(),
            "dead slot reused"
        );
        // Any later mark or purge outdates a bound, whichever file it names.
        assert!(!t.observe(FileId(0), FileId(4), 1_000.0));
        assert!(bound_refuses(&t, 0, 1_000.0));
        t.note_deletion(FileId(9));
        assert!(!bound_refuses(&t, 0, 1_000.0));
    }

    #[test]
    fn aging_past_the_threshold_forces_the_scan() {
        let mut t = bounded(10, 3);
        for _ in 0..10 {
            t.tick();
        }
        assert!(
            bound_refuses(&t, 0, 100.0),
            "stalest is exactly at the limit"
        );
        t.tick();
        assert!(!bound_refuses(&t, 0, 100.0));
        assert!(
            t.observe(FileId(0), FileId(3), 100.0),
            "the stalest ages out"
        );
        assert!(t.distance(FileId(0), FileId(1)).is_none());
        assert!(t.distance(FileId(0), FileId(3)).is_some());
    }

    /// A hit lifts the bound to the slot's new mean, here past the mean
    /// of a candidate the bound refused before, which then scans and
    /// evicts the slot.
    #[test]
    fn a_hit_lifts_the_bound_to_the_slots_new_mean() {
        let mut t = bounded(1_000, 3);
        assert!(bound_refuses(&t, 0, 20.0));
        // Neighbor 1 moves to about sqrt(6 * 201) - 1 = 33.7, past 20.
        assert!(!t.observe(FileId(0), FileId(1), 200.0));
        assert!(!bound_refuses(&t, 0, 20.0));
        assert!(
            t.observe(FileId(0), FileId(3), 20.0),
            "the lifted slot is evicted"
        );
        assert!(t.distance(FileId(0), FileId(1)).is_none());
        assert!(t.distance(FileId(0), FileId(3)).is_some());
    }

    /// Folding an observation equal to a slot's mean leaves the exact
    /// mean where it is, but the running log-sum drifts, so the computed
    /// mean creeps past the value the row's scan bounded it at. Each fold
    /// lifts the bound to the slot's computed mean, so the bound never
    /// falls behind what the slot's distance is computed from.
    #[test]
    fn a_drifting_running_sum_lifts_the_bound_with_it() {
        let mut t = NeighborTable::new(2, ReductionKind::Geometric, 1_000, 3, 42);
        t.observe(FileId(0), FileId(1), 100.0);
        t.observe(FileId(0), FileId(2), 1.0);
        assert!(!t.observe(FileId(0), FileId(3), 1_000.0));
        let scanned = t.rows[0].bound;
        assert_eq!(scanned, t.slot_meta[0].mean, "the scan bounds the top mean");
        let mut folds = 0;
        while t.slot_meta[0].mean <= scanned {
            assert!(!t.observe(FileId(0), FileId(1), 100.0));
            assert_eq!(t.rows[0].bound, t.slot_meta[0].mean.max(scanned));
            folds += 1;
            assert!(folds < 1_000, "the running sum never drifted");
        }
        let drifted = t.slot_meta[0].mean;
        assert!(drifted > scanned);
        assert_eq!(t.rows[0].bound, drifted, "the hit lifted the bound");
        // The slot's distance is computed from the drifted mean, and the
        // candidate's below it is not refused by a stale bound: the scan
        // decides it, evicting or keeping exactly as a full walk would.
        let slot_d = t.distance(FileId(0), FileId(1)).expect("stored");
        assert_eq!(
            slot_d.to_bits(),
            PairSummary::distance_of(ReductionKind::Geometric, drifted).to_bits()
        );
        assert!(!bound_refuses(&t, 0, 100.0));
    }

    #[test]
    fn a_restored_table_scans_before_it_bounds() {
        let t = bounded(1_000, 3);
        let mut restored = NeighborTable::from_snapshot(t.snapshot(), 42);
        assert!(!bound_refuses(&restored, 0, 100.0));
        assert!(!restored.observe(FileId(0), FileId(3), 100.0));
        assert!(bound_refuses(&restored, 0, 100.0));
    }

    /// A row listed twice in a snapshot would be restored twice, counting
    /// its file and entries twice, so decoding refuses it, as it refuses
    /// any order but the strictly ascending one `snapshot` writes.
    #[test]
    fn decoding_refuses_rows_out_of_file_order() {
        let mut t = table(5);
        t.observe(FileId(1), FileId(2), 1.0);
        t.observe(FileId(1), FileId(3), 2.0);
        t.observe(FileId(4), FileId(2), 1.0);
        let decode = |snap: &TableSnapshot| {
            let mut buf = Vec::new();
            snap.encode(&mut buf);
            seer_trace::codec::decode_all::<TableSnapshot>(&buf)
        };
        let snap = t.snapshot();
        assert!(decode(&snap).is_ok());
        let mut twice = snap.clone();
        twice.rows.truncate(1);
        twice.rows.push(twice.rows[0].clone());
        assert_eq!(twice.rows[0].1.len(), 2);
        assert_eq!(
            decode(&twice).err(),
            Some(DecodeError("rows out of file order"))
        );
        let mut reversed = snap;
        reversed.rows.reverse();
        assert_eq!(
            decode(&reversed).err(),
            Some(DecodeError("rows out of file order"))
        );
    }

    /// The row header and the slot payload each fill 32 bytes, and the
    /// slot no longer carries a distance memo beside it.
    #[test]
    fn row_headers_and_slots_stay_32_bytes() {
        assert_eq!(std::mem::size_of::<RowHeader>(), 32);
        assert_eq!(std::mem::size_of::<SlotMeta>(), 32);
    }

    /// One step of the row-bound property.
    #[derive(Debug, Clone)]
    enum Step {
        Observe { from: u32, to: u32, distance: f64 },
        Tick(u8),
        Delete(u32),
        Restore(u64),
    }

    /// Repeated values, near ties inside and outside the scan's 1e-12
    /// tolerance, means straddling the tie pass's 1e-6 margin, and the
    /// window cap, so hits lift bounds and scans take both the single-top
    /// decision and the tie chain.
    fn step() -> impl Strategy<Value = Step> {
        let distance = prop::sample::select(vec![
            0.0,
            1.0,
            2.0,
            2.0 + 1e-13,
            3.0,
            5.0,
            5.0 - 1e-6,
            5.0 - 1e-6 + 1e-9,
            8.0,
            13.0,
            50.0,
            100.0,
            1.0e6,
        ]);
        let observe =
            || {
                (0u32..6, 0u32..12, distance.clone())
                    .prop_map(|(from, to, distance)| Step::Observe { from, to, distance })
            };
        // Uniform over the arms: observations take five of eight.
        prop_oneof![
            observe(),
            observe(),
            observe(),
            observe(),
            observe(),
            (0u8..4).prop_map(Step::Tick),
            (0u32..12).prop_map(Step::Delete),
            (0u64..1_000).prop_map(Step::Restore),
        ]
    }

    /// Every full row with a finite bound has it at or above each slot
    /// mean that is not NaN, and every slot's stored mean is its
    /// summary's. The row `fresh`, just rewritten by a scan or an
    /// eviction, has a finite bound equal to its largest mean.
    fn check_bounds(t: &NeighborTable, fresh: Option<usize>) -> Result<(), String> {
        for (i, h) in t.rows.iter().enumerate().filter(|(_, h)| h.len > 0) {
            let len = h.len as usize;
            let slots = &t.slot_meta[i * t.n..i * t.n + len];
            for m in slots {
                if m.mean.to_bits() != m.summary.mean().to_bits() {
                    return Err(format!("row {i}: stored mean {} is stale", m.mean));
                }
            }
            if len < t.n || !h.bound.is_finite() {
                continue;
            }
            let largest = slots
                .iter()
                .map(|m| m.mean)
                .fold(f64::NEG_INFINITY, f64::max);
            if largest > h.bound {
                return Err(format!("row {i}: mean {largest} above bound {}", h.bound));
            }
            if fresh == Some(i) && h.bound != largest {
                return Err(format!(
                    "row {i}: bound {} not its top mean {largest}",
                    h.bound
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hits, scans and evictions keep every row bound covering its
        /// slots' means, and scans and evictions leave it tight.
        #[test]
        fn row_bounds_cover_every_mean_and_scans_leave_them_tight(
            n in 1usize..6,
            geometric in prop::bool::ANY,
            aging_refs in 0u64..8,
            deletion_delay in 0u64..3,
            steps in prop::collection::vec(step(), 1..200),
        ) {
            let reduction = if geometric {
                ReductionKind::Geometric
            } else {
                ReductionKind::Arithmetic
            };
            let mut t = NeighborTable::new(n, reduction, aging_refs, deletion_delay, 7);
            for (k, s) in steps.iter().enumerate() {
                let mut fresh = None;
                match *s {
                    Step::Observe { from, to, distance } => {
                        let scans = t.scans;
                        let evicted = t.observe(FileId(from), FileId(to), distance);
                        if evicted || t.scans > scans {
                            fresh = Some(from as usize);
                        }
                    }
                    Step::Tick(ticks) => (0..ticks).for_each(|_| t.tick()),
                    Step::Delete(f) => {
                        t.note_deletion(FileId(f));
                    }
                    Step::Restore(seed) => t = NeighborTable::from_snapshot(t.snapshot(), seed),
                }
                let checked = check_bounds(&t, fresh);
                prop_assert!(checked.is_ok(), "step {k} ({s:?}): {checked:?}");
            }
        }
    }

    #[test]
    fn soa_rows_grow_on_demand() {
        let mut t = table(3);
        t.observe(FileId(1000), FileId(7), 1.0);
        t.observe(FileId(2), FileId(1000), 2.0);
        assert_eq!(t.len(), 2);
        assert!(t.distance(FileId(1000), FileId(7)).is_some());
        assert_eq!(t.neighbors(FileId(2)).count(), 1);
        assert_eq!(t.files().collect::<Vec<_>>(), vec![FileId(2), FileId(1000)]);
    }
}
