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
//! the row of file index `i` occupies slots `[i*n, i*n + len)` of
//! three parallel arrays (target id, streaming summary, last-update clock).
//! The hot path — one [`NeighborTable::observe`] per distance observation —
//! therefore never hashes a key: row lookup is one multiply, and the
//! priority scans walk a few contiguous cache lines. Deletion marks and
//! dead files are dense bitmaps for the same reason.
//!
//! # Row bounds
//!
//! Most misses on a full row are refusals: the candidate is farther than
//! every stored neighbor, nothing is marked, and nothing is stale. Each
//! row header therefore keeps what its last full scan proved — an upper
//! bound on every slot's reduced distance, a lower bound on its update
//! stamps, and the deletion epoch it was taken at — and a miss the bound
//! already decides is refused without reading the row's slots (see
//! `NeighborTable::refuses_by_bound` for why that refusal is exactly the
//! scan's).
//!
//! # Row scans
//!
//! A miss the bound does not decide scans the row, and reaches the
//! decision a walk over every slot reaches with less work. The deletion
//! pass runs only when the row's epoch is stale: a current one proves no
//! target is marked or dead. The farthest neighbor takes two passes. The
//! first reads every slot's mean term (the value a geometric summary
//! exponentiates) and the stalest stamp. The second runs the 1e-12 tie
//! chain, reading or refreshing the memoized distance, only for slots
//! whose mean lies within `1e-6` of the top one; a slot below that can
//! never end in the tie list (see `NeighborTable::tie_cut`).
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

/// Relative slack on each side of the row-bound test; see
/// [`NeighborTable::refuses_by_bound`].
const BOUND_SLACK: f64 = 1.0 / 16_384.0;

/// The largest candidate distance (2^64) the row-bound test decides; a
/// farther candidate takes the scan. Every distance the engine produces
/// is far below it.
const BOUND_MAX_DISTANCE: f64 = 18_446_744_073_709_551_616.0;

/// How far below the row's top mean term a slot's own mean may lie and
/// still have its distance read by the scan's tie pass; see
/// [`NeighborTable::tie_cut`].
const TIE_MARGIN: f64 = 1e-6;

/// A row's entry count plus what its last full scan proved, side by side
/// so the hit path, which reads `len` and raises `bound`, touches one
/// cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct RowHeader {
    /// Entries in use.
    len: u32,
    /// Upper bound on every slot's reduced distance; `INFINITY` while
    /// unknown (a new, filling, or restored row).
    bound: f64,
    /// Lower bound on every slot's update stamp.
    stalest: u64,
    /// The table's deletion epoch when the bound was taken; the bound
    /// holds only while no mark or purge has happened since.
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
/// summary and the last-update stamp. One array element (24 bytes) so a
/// hit touches a single payload cache line.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    summary: PairSummary,
    update: u64,
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
    /// `slot_meta` is the payload the hit path rewrites — summary and
    /// update stamp together, so a fold dirties one payload cache line
    /// instead of two.
    slot_to: Vec<FileId>,
    slot_meta: Vec<SlotMeta>,
    /// Memoized reduced distance per slot, valid while `slot_dist_count`
    /// matches the summary's observation count. A slot starts at stamp 0
    /// and `INFINITY`, which is what a summary with no observations reads
    /// as; stored summaries start at 1. Spares the priority-2 scan an
    /// `exp` per entry.
    slot_dist: Vec<f64>,
    slot_dist_count: Vec<u32>,
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
            slot_dist: Vec::new(),
            slot_dist_count: Vec::new(),
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
                SlotMeta {
                    summary: PairSummary::first(self.reduction, 0.0),
                    update: 0,
                },
            );
            self.slot_dist.resize(need, f64::INFINITY);
            self.slot_dist_count.resize(need, 0);
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

    /// The reduced distance of slot `s`, memoized per summary state: the
    /// distance is a pure function of the summary, so a matching
    /// observation-count stamp returns the previously materialized value
    /// bit-identically.
    #[inline]
    fn slot_distance(&mut self, s: usize) -> f64 {
        let c = self.slot_meta[s].summary.count();
        if self.slot_dist_count[s] == c {
            return self.slot_dist[s];
        }
        let d = self.slot_meta[s].summary.distance(self.reduction);
        self.slot_dist[s] = d;
        self.slot_dist_count[s] = c;
        d
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
            let s = base + k;
            let m = &mut self.slot_meta[s];
            m.summary.observe(reduction, distance);
            m.update = clock;
            // The slot's new mean lies between its old one and this
            // observation (a negative or NaN one folds as 0, below any
            // bound), so the raised bound still covers the slot.
            self.rows[i].bound = header.bound.max(distance);
            return false;
        }
        if len < self.n {
            // A filling row's bound is unknown: rows only shrink by a
            // purge, which kills the row, so no scan has bounded it yet.
            self.put(
                from,
                base + len,
                to,
                PairSummary::first(reduction, distance),
            );
            if len == 0 {
                self.live_rows += 1;
            }
            self.rows[i].len += 1;
            self.entries += 1;
            return false;
        }
        if self.refuses_by_bound(&header, distance) {
            return false;
        }
        let summary = PairSummary::first(reduction, distance);
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
        // Pass one reads every slot's mean term and finds the stalest
        // entry for priority 3.
        let mut top = f64::NEG_INFINITY;
        let (mut stalest_k, mut stalest) = (0, u64::MAX);
        for (k, m) in self.slot_meta[base..base + len].iter().enumerate() {
            top = top.max(m.summary.mean());
            if m.update < stalest {
                stalest = m.update;
                stalest_k = k;
            }
        }
        // Pass two finds the largest-distance neighbors for priority 2 and
        // bounds the row, reading distances only near the top mean.
        let cut = Self::tie_cut(top);
        let mut max_idxs = std::mem::take(&mut self.scratch_idxs);
        max_idxs.clear();
        let mut max_d = f64::NEG_INFINITY;
        let mut hi = 0.0f64;
        for k in 0..len {
            if self.slot_meta[base + k].summary.mean() < cut {
                continue;
            }
            let d = self.slot_distance(base + k);
            hi = hi.max(d);
            if d > max_d + 1e-12 {
                max_d = d;
                max_idxs.clear();
                max_idxs.push(k);
            } else if (d - max_d).abs() <= 1e-12 {
                max_idxs.push(k);
            }
        }
        // The new bounds hold whatever follows: priority 2 stores a slot
        // closer than `hi`, and after priority 3 the stalest stamp is past
        // `aging_refs`, so the bound refuses nothing until a scan
        // rewrites it.
        self.rows[i] = RowHeader {
            len: header.len,
            bound: hi,
            stalest,
            epoch: self.mark_epoch,
        };
        // Priority 2: replace the largest-distance neighbor (random tie
        // break) if it is farther than the candidate.
        let new_d = summary.distance(reduction);
        if max_d > new_d {
            let pick = max_idxs[self.rng.gen_range(0..max_idxs.len())];
            self.scratch_idxs = max_idxs;
            self.put(from, base + pick, to, summary);
            return true;
        }
        self.scratch_idxs = max_idxs;
        // Priority 3: aging — replace the stalest entry if it has been
        // inactive long enough.
        if len > 0 && clock.saturating_sub(stalest) > self.aging_refs {
            self.put(from, base + stalest_k, to, summary);
            return true;
        }
        false
    }

    /// Whether a miss on the full row with `header` is refused by the
    /// row's bound alone, which makes reading its slots unnecessary.
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
    /// - Priority 2 replaces only when a slot's computed distance `d_s`
    ///   exceeds the candidate's computed `new_d`. A slot's distance is
    ///   the mean of its observations' terms (`d` arithmetic, `ln(1 + d)`
    ///   geometric) mapped back to a distance. At the scan every `d_s`
    ///   was at most the bound, every observation folded since is at
    ///   most the bound, and a mean lies between its parts, so in exact
    ///   arithmetic `1 + d_s <= 1 + bound`.
    ///
    /// Floating point moves `d_s` by the rounding of a running sum of up
    /// to `u32::MAX` non-negative terms: `2^32 * 2^-53 = 2^-21` relative in
    /// the mean, counted twice (from the scan's value to the exact mean,
    /// and back to the computed one), plus a few ulps for `ln`, `exp`,
    /// and the division. Geometrically that is a factor of at most
    /// `(1 + bound)^(2^-20)`, under `1 + 4.3e-5` for every bound below
    /// [`BOUND_MAX_DISTANCE`] (`ln(1 + 2^64) < 44.4`); arithmetically at
    /// most `1 + 2^-20`. On the candidate's side, `new_d` is `x` itself
    /// (arithmetic) or `exp(ln(1 + x)) - 1`, a few ulps from `x`. The test
    /// keeps a margin of `2^-14` on each side, `1.2e-4` in all, so when it
    /// passes every `d_s` is below `new_d` and the scan would refuse.
    #[inline]
    fn refuses_by_bound(&self, header: &RowHeader, distance: f64) -> bool {
        let x = distance.max(0.0);
        header.epoch == self.mark_epoch
            && self.clock.saturating_sub(header.stalest) <= self.aging_refs
            && x <= BOUND_MAX_DISTANCE
            && (1.0 + header.bound) * (1.0 + BOUND_SLACK) < (1.0 + x) * (1.0 - BOUND_SLACK)
    }

    /// The least mean term whose slot the scan's tie pass reads, in a full
    /// row whose largest mean term is `top`.
    ///
    /// Skipping the slots below it leaves the pass's result exactly as a
    /// walk over every slot leaves it: the same farthest distance, the
    /// same tie list in the same order (so the same random draw), and the
    /// same bound. Write `T` for the row's largest distance and `e` for
    /// the tie tolerance, 1e-12. A NaN mean is never skipped (`NaN < cut`
    /// is false), and a NaN distance neither restarts the list nor joins
    /// it, so NaN slots are left out below.
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
    ///   end equal. `T` itself is read, so the bound, the largest distance
    ///   read, is the same too.
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
        self.slot_meta[s] = SlotMeta {
            summary,
            update: self.clock,
        };
        self.slot_dist_count[s] = 0;
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
                t.slot_meta[base + k] = SlotMeta {
                    summary: e.summary,
                    update: e.last_update,
                };
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
    /// All rows, sorted by file id.
    pub rows: Vec<(FileId, Vec<NeighborEntry>)>,
    /// Deletion-marked files with their mark ticks.
    pub marked: Vec<(FileId, u64)>,
    /// Fully purged files.
    pub dead: Vec<FileId>,
}

/// Encoded field by field, in declaration order. Decoding refuses a
/// neighbor count above 65 536 and a row longer than its table's
/// neighbor count.
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
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// by its bound alone, without a scan.
    fn bound_refuses(t: &NeighborTable, from: u32, distance: f64) -> bool {
        t.refuses_by_bound(&t.rows[from as usize], distance)
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
        assert!(!bound_refuses(&t, 0, 8.0), "no refusal inside the slack");
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

    #[test]
    fn a_hit_lifts_the_bound_above_its_observation() {
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
    /// mean where it is, but the running log-sum drifts: the computed
    /// distance creeps past a bound no hit raised. The slack keeps a
    /// candidate between the two from being refused.
    #[test]
    fn the_slack_covers_a_running_sum_drifting_past_the_bound() {
        let mut t = NeighborTable::new(2, ReductionKind::Geometric, 1_000, 3, 42);
        t.observe(FileId(0), FileId(1), 100.0);
        t.observe(FileId(0), FileId(2), 1.0);
        assert!(!t.observe(FileId(0), FileId(3), 1_000.0));
        let bound = t.rows[0].bound;
        let mut folds = 0;
        while t.distance(FileId(0), FileId(1)).expect("stored") <= bound {
            assert!(!t.observe(FileId(0), FileId(1), 100.0));
            folds += 1;
            assert!(folds < 1_000, "the running sum never drifted");
        }
        assert_eq!(t.rows[0].bound, bound, "no hit raised the bound");
        let x = bound.next_up();
        let new_d =
            PairSummary::first(ReductionKind::Geometric, x).distance(ReductionKind::Geometric);
        assert!(t.distance(FileId(0), FileId(1)).expect("stored") > new_d);
        assert!(!bound_refuses(&t, 0, x));
        assert!(
            t.observe(FileId(0), FileId(3), x),
            "the drifted slot is evicted"
        );
        assert!(t.distance(FileId(0), FileId(1)).is_none());
    }

    #[test]
    fn a_restored_table_scans_before_it_bounds() {
        let t = bounded(1_000, 3);
        let mut restored = NeighborTable::from_snapshot(t.snapshot(), 42);
        assert!(!bound_refuses(&restored, 0, 100.0));
        assert!(!restored.observe(FileId(0), FileId(3), 100.0));
        assert!(bound_refuses(&restored, 0, 100.0));
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
