//! A sharded IVL CountMin: per-thread sub-matrices, summed at query
//! time.
//!
//! `PCM` keeps one shared matrix and pays a `fetch_add` (RMW) per cell
//! per update. The sharded variant gives each handle its own matrix of
//! plain atomics written with cheap stores (the handle is the only
//! writer of its shard — the IVL-counter trick applied per cell);
//! a query reads the cell in *every* shard, sums, and takes the row
//! minimum.
//!
//! Because CountMin cells are additive, the summed matrix equals the
//! single-matrix sketch of the union stream, so the estimator — and
//! the (ε,δ) analysis — is unchanged. Cells only grow and updates
//! commute, so the object is monotone and the implementation is IVL
//! by the same Lemma 7 argument; recorded histories are checked
//! against the same [`ivl_sketch::cm_spec::CountMinSpec`].
//!
//! Trade-off: updates avoid RMW contention entirely; queries cost
//! `shards × depth` cell reads instead of `depth` — the CountMin
//! analogue of the paper's O(1)-update / O(n)-read batched counter.

use crate::arena::{CellArena, RowCells, LINE_CELLS};
use crate::batch::{BatchScratch, PREFETCH_DIST};
use crate::{ConcurrentSketch, SketchHandle};
use ivl_sketch::countmin::{CountMin, CountMinParams};
use ivl_sketch::hash::PairwiseHash;
use ivl_sketch::CoinFlips;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Per-shard delta-snapshot metadata, written only by the shard's
/// single writer (the same ownership discipline as the cells): a
/// shard-local update epoch, plus per row the cumulative `[lo, hi)`
/// span of columns ever touched and the epoch of the row's last touch.
///
/// Spans are *cumulative* — they widen and never reset — so a reader
/// diffing against an older epoch over-approximates the dirty set
/// (extra columns resent, never a changed column missed): a column
/// changed after the base epoch was touched by some op, and that op's
/// span widen and row-epoch stamp are ordered before its epoch bump.
/// Writer order per op is cells → spans → row epochs → shard epoch
/// (all stores `Release`); a reader that loads the shard epoch (or a
/// row epoch) with `Acquire` therefore sees every span and cell the
/// ops it observed wrote.
///
/// Spans also gate the summing kernel: outside a row's span the
/// shard's cells are zero, so [`ShardedPcm::sum_row_range_into`] skips
/// shards whose span misses the requested columns.
#[derive(Debug)]
struct ShardMeta {
    /// Shard-local op counter; bumped once per update/batch applied.
    epoch: AtomicU64,
    /// Per-row cumulative touched-column span start (inclusive);
    /// starts at `width` (empty span).
    span_lo: Vec<AtomicU32>,
    /// Per-row cumulative touched-column span end (exclusive).
    span_hi: Vec<AtomicU32>,
    /// Per-row shard-local epoch of the last touch (0 = never).
    row_epoch: Vec<AtomicU64>,
}

impl ShardMeta {
    fn new(depth: usize, width: usize) -> Self {
        ShardMeta {
            epoch: AtomicU64::new(0),
            span_lo: (0..depth).map(|_| AtomicU32::new(width as u32)).collect(),
            span_hi: (0..depth).map(|_| AtomicU32::new(0)).collect(),
            row_epoch: (0..depth).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Single-writer: widens `row`'s cumulative span to cover
    /// `[lo, hi)` and stamps the row as touched at `epoch`.
    fn touch_row(&self, row: usize, lo: u32, hi: u32, epoch: u64) {
        if lo < self.span_lo[row].load(Ordering::Relaxed) {
            self.span_lo[row].store(lo, Ordering::Release);
        }
        if hi > self.span_hi[row].load(Ordering::Relaxed) {
            self.span_hi[row].store(hi, Ordering::Release);
        }
        self.row_epoch[row].store(epoch, Ordering::Release);
    }

    /// Single-writer: the epoch the in-progress op will commit as.
    fn next_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed) + 1
    }

    /// Single-writer: publishes the op (ordered after its cell stores
    /// and row touches).
    fn commit(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// A sharded concurrent CountMin (one sub-matrix per handle).
///
/// # Examples
///
/// ```
/// use ivl_concurrent::{ConcurrentSketch, ShardedPcm, SketchHandle};
/// use ivl_sketch::countmin::CountMinParams;
/// use ivl_sketch::CoinFlips;
///
/// let mut coins = CoinFlips::from_seed(2);
/// let sketch = ShardedPcm::new(CountMinParams { width: 64, depth: 4 }, 2, &mut coins);
/// crossbeam::scope(|s| {
///     for _ in 0..2 {
///         let mut h = sketch.handle(); // one shard per thread
///         s.spawn(move |_| {
///             for _ in 0..1_000 {
///                 h.update(9);
///             }
///         });
///     }
/// })
/// .unwrap();
/// assert_eq!(sketch.estimate(9), 2_000);
/// ```
#[derive(Debug)]
pub struct ShardedPcm {
    params: CountMinParams,
    hashes: Vec<PairwiseHash>,
    /// One padded [`CellArena`] per shard.
    shards: Vec<CellArena>,
    /// One [`ShardMeta`] per shard (epoch + dirty spans), same
    /// single-writer ownership as the matching arena.
    meta: Vec<ShardMeta>,
    /// Single-writer ownership flags, one per shard. [`handle`]
    /// acquires a shard permanently; [`ShardedPcm::lease`] returns it
    /// on drop so serving layers can recycle shards across
    /// connections.
    ///
    /// [`handle`]: ConcurrentSketch::handle
    in_use: Vec<AtomicBool>,
}

impl ShardedPcm {
    /// Creates a sketch with `shards` sub-matrices, drawing hashes
    /// from `coins`. At most `shards` handles may be live at a time.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn new(params: CountMinParams, shards: usize, coins: &mut CoinFlips) -> Self {
        let proto = CountMin::new(params, coins);
        Self::from_prototype(&proto, shards)
    }

    /// Creates a sharded sketch sharing the hashes of an (empty)
    /// prototype — same coins, same deterministic algorithm.
    ///
    /// # Panics
    ///
    /// Panics if the prototype is non-empty or `shards` is 0.
    pub fn from_prototype(proto: &CountMin, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert_eq!(
            ivl_sketch::FrequencySketch::stream_len(proto),
            0,
            "prototype must be empty"
        );
        let params = proto.params();
        ShardedPcm {
            params,
            hashes: proto.hashes().to_vec(),
            shards: (0..shards)
                .map(|_| CellArena::new(params.depth, params.width))
                .collect(),
            meta: (0..shards)
                .map(|_| ShardMeta::new(params.depth, params.width))
                .collect(),
            in_use: (0..shards).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// The per-row hash functions (`c̄`), shared with the sequential
    /// prototype. Exposed so a buffered ingest layer can memoize row
    /// columns via [`PairwiseHash::hash_row_batch`] and later apply
    /// them through [`ShardLease::apply_rows`].
    pub fn hashes(&self) -> &[PairwiseHash] {
        &self.hashes
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of currently unleased shards. A snapshot — another
    /// thread may win the shard before the caller leases it, so use
    /// it as a wakeup hint, not a reservation.
    pub fn free_shards(&self) -> usize {
        self.in_use
            .iter()
            .filter(|flag| !flag.load(Ordering::Acquire))
            .count()
    }

    /// The sketch dimensions.
    pub fn params(&self) -> CountMinParams {
        self.params
    }

    /// Claims the lowest free shard, or `None` when all are taken.
    fn acquire_free_shard(&self) -> Option<usize> {
        self.in_use
            .iter()
            .position(|flag| !flag.swap(true, Ordering::AcqRel))
    }

    /// Checks out a free shard as a droppable single-writer lease, or
    /// returns `None` when every shard is busy. Unlike
    /// [`ConcurrentSketch::handle`] (which owns its shard forever), a
    /// lease returns the shard to the free pool on drop — the shape a
    /// serving layer needs to hand shards to connections that come and
    /// go. Leases and permanent handles draw from the same pool, so
    /// the single-writer invariant holds across both.
    pub fn lease(&self) -> Option<ShardLease<'_>> {
        self.acquire_free_shard().map(|shard| ShardLease {
            parent: self,
            shard,
            scratch: Vec::with_capacity(self.params.depth),
        })
    }

    /// Estimates `item`'s frequency: per row, sum the cell across all
    /// shards; return the row minimum. The `mod p` reduction of
    /// `item` happens once, not per row.
    pub fn estimate(&self, item: u64) -> u64 {
        let xr = PairwiseHash::reduce(item);
        self.hashes
            .iter()
            .enumerate()
            .map(|(row, h)| {
                let col = h.hash_reduced(xr);
                self.shards
                    .iter()
                    .map(|m| m.cell(row, col).load(Ordering::Acquire))
                    .sum::<u64>()
            })
            .min()
            .expect("depth >= 1")
    }

    /// Total stream weight visible in the sketch: every update adds
    /// its count to exactly one cell of row 0 per shard, so the sum of
    /// row 0 across shards is the applied weight — an IVL read, like
    /// [`Pcm::stream_len_estimate`](crate::Pcm::stream_len_estimate).
    pub fn stream_len_estimate(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|m| m.row(0))
            .map(|cell| cell.load(Ordering::Acquire))
            .sum()
    }

    /// Row-major snapshot of the summed cell matrix (`depth × width`
    /// values, each the per-(row, col) sum across shards). Because
    /// cells are additive and only grow, the returned matrix equals a
    /// single-matrix CountMin over some intermediate mix of the
    /// concurrent streams — an IVL read per cell, exactly what a
    /// replication layer may merge cell-wise into a peer's snapshot
    /// (concatenated-stream semantics of `CountMin::merge`). Each row
    /// is one full-width [`sum_row_range_into`](Self::sum_row_range_into).
    pub fn cells_snapshot(&self) -> Vec<u64> {
        let (depth, width) = (self.params.depth, self.params.width);
        let mut out = Vec::with_capacity(depth * width);
        for row in 0..depth {
            self.sum_row_range_into(row, 0, width, &mut out);
        }
        out
    }

    /// The sketch's update epoch: the sum of per-shard op counters
    /// (each `Acquire`-loaded). Monotone, and bumped only by ops that
    /// may change cell values — so an unchanged epoch means an
    /// unchanged summed matrix, which is what lets a snapshot server
    /// answer "since epoch e" with a tiny `Unchanged` frame.
    pub fn epoch(&self) -> u64 {
        self.meta
            .iter()
            .map(|m| m.epoch.load(Ordering::Acquire))
            .sum()
    }

    /// Appends the per-shard epoch vector (the decomposition of
    /// [`epoch`](Self::epoch)) to `out`. A snapshot server remembers
    /// this vector per served epoch so a later
    /// [`dirty_spans_since`](Self::dirty_spans_since) can diff per
    /// shard.
    pub fn shard_epochs_into(&self, out: &mut Vec<u64>) {
        out.extend(self.meta.iter().map(|m| m.epoch.load(Ordering::Acquire)));
    }

    /// For each row, the union across shards of the cumulative
    /// touched-column spans of shards whose row was touched after the
    /// per-shard base epoch `base` (as captured by
    /// [`shard_epochs_into`](Self::shard_epochs_into)). Rows clean
    /// since `base` come back with an empty span (`lo >= hi`).
    ///
    /// The answer over-approximates (cumulative spans never narrow)
    /// but never misses: a column changed after `base` was written by
    /// an op whose span widen and row stamp precede its epoch bump,
    /// and that bump is not yet in `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base.len()` differs from the shard count.
    pub fn dirty_spans_since(&self, base: &[u64]) -> Vec<(u32, u32)> {
        assert_eq!(base.len(), self.meta.len(), "one base epoch per shard");
        let (depth, width) = (self.params.depth, self.params.width);
        let mut spans = vec![(width as u32, 0u32); depth];
        for (meta, &since) in self.meta.iter().zip(base) {
            for (row, span) in spans.iter_mut().enumerate() {
                if meta.row_epoch[row].load(Ordering::Acquire) > since {
                    span.0 = span.0.min(meta.span_lo[row].load(Ordering::Acquire));
                    span.1 = span.1.max(meta.span_hi[row].load(Ordering::Acquire));
                }
            }
        }
        spans
    }

    /// Appends the summed (across shards) cell values of `row`'s
    /// columns `[lo, hi)` to `out` — the read behind both full and
    /// delta snapshots. Each included cell is one `Acquire` load, so
    /// the result is an intermediate mix of the concurrent streams
    /// (Lemma 7: every cell may be read at a different moment).
    ///
    /// A shard whose cumulative touched span in `row` misses `[lo, hi)`
    /// is skipped: outside its span a shard's cells are still zero,
    /// because every writer widens the span before it commits. An op
    /// whose span widen this read misses had not committed when the
    /// span was loaded, and IVL allows missing an op in flight. Spans
    /// only widen, so once a read scans a shard every later read does
    /// too, and no cell reads backwards.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on an out-of-range row or span.
    pub fn sum_row_range_into(&self, row: usize, lo: usize, hi: usize, out: &mut Vec<u64>) {
        debug_assert!(row < self.params.depth && hi <= self.params.width && lo <= hi);
        let at = out.len();
        out.resize(at + (hi - lo), 0);
        let groups = self
            .shards
            .chunks(LIVE_GROUP)
            .zip(self.meta.chunks(LIVE_GROUP));
        for (arenas, metas) in groups {
            // The shards that may hold data in `[lo, hi)`; entries past
            // `n` are placeholders and never read.
            let mut live = [arenas[0].row_cells(row); LIVE_GROUP];
            let mut n = 0;
            for (arena, meta) in arenas.iter().zip(metas) {
                let span_lo = meta.span_lo[row].load(Ordering::Acquire) as usize;
                let span_hi = meta.span_hi[row].load(Ordering::Acquire) as usize;
                if span_lo.max(lo) < span_hi.min(hi) {
                    live[n] = arena.row_cells(row);
                    n += 1;
                }
            }
            add_line_sums(&live[..n], lo, &mut out[at..]);
        }
    }
}

/// Most shards one [`ShardedPcm::sum_row_range_into`] pass lists on
/// its stack; sketches with more shards are summed in groups this big.
const LIVE_GROUP: usize = 16;

/// Adds the columns `[lo, lo + dst.len())` of every row in `live` into
/// `dst`, one [`LINE_CELLS`]-cell arena line at a time. Only in-range
/// columns are loaded, each exactly once per row.
fn add_line_sums(live: &[RowCells<'_>], lo: usize, dst: &mut [u64]) {
    if live.is_empty() {
        return;
    }
    let hi = lo + dst.len();
    let mut rest = dst;
    let mut col = lo;
    while col < hi {
        let line = col / LINE_CELLS;
        let base = line * LINE_CELLS;
        let (c0, c1) = (col - base, (hi - base).min(LINE_CELLS));
        let (slot, tail) = rest.split_at_mut(c1 - c0);
        if c1 - c0 == LINE_CELLS {
            // Whole lines get constant bounds, so the sums unroll.
            add_line(live, line, 0, LINE_CELLS, slot);
        } else {
            add_line(live, line, c0, c1, slot);
        }
        rest = tail;
        col = base + c1;
    }
}

/// One line of [`add_line_sums`]: columns `[c0, c1)` of `line` are
/// summed across `live` in a stack array, then added into `slot` once.
#[inline(always)]
fn add_line(live: &[RowCells<'_>], line: usize, c0: usize, c1: usize, slot: &mut [u64]) {
    let mut acc = [0u64; LINE_CELLS];
    for cells in live {
        for (sum, cell) in acc[c0..c1].iter_mut().zip(&cells.line(line)[c0..c1]) {
            *sum += cell.load(Ordering::Acquire);
        }
    }
    for (out, sum) in slot.iter_mut().zip(&acc[c0..c1]) {
        *out += sum;
    }
}

/// Single-writer add of `count` at one pre-hashed column per row:
/// plain load + `Release` store per cell — no RMW, the shard has
/// exactly one writer. The shared body of [`ShardHandle::update_by`],
/// [`ShardLease::update_by`] and [`ShardLease::apply_rows`]. Folds the
/// touched columns into the shard's delta metadata (span widen + row
/// stamp per row, one epoch store per call — still store-only).
fn add_at_cols(parent: &ShardedPcm, shard: usize, cols: impl Iterator<Item = usize>, count: u64) {
    let arena = &parent.shards[shard];
    let meta = &parent.meta[shard];
    let epoch = meta.next_epoch();
    for (row, col) in cols.enumerate() {
        let cell = arena.cell(row, col);
        let cur = cell.load(Ordering::Relaxed);
        cell.store(cur + count, Ordering::Release);
        meta.touch_row(row, col as u32, col as u32 + 1, epoch);
    }
    meta.commit(epoch);
}

/// Single-writer updater over one shard.
#[derive(Debug)]
pub struct ShardHandle<'a> {
    parent: &'a ShardedPcm,
    shard: usize,
    /// Reusable row-index buffer for [`PairwiseHash::hash_row_batch`];
    /// lives on the handle so a stream of updates allocates once.
    scratch: Vec<usize>,
}

impl ShardHandle<'_> {
    /// The shard this handle owns.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Batched update: `count` occurrences at once (the paper's
    /// batched updates; one store per row regardless of `count`).
    /// Row indices come from one [`PairwiseHash::hash_row_batch`]
    /// pass into the handle's scratch buffer.
    pub fn update_by(&mut self, item: u64, count: u64) {
        PairwiseHash::hash_row_batch(&self.parent.hashes, item, &mut self.scratch);
        add_at_cols(self.parent, self.shard, self.scratch.iter().copied(), count);
    }
}

impl SketchHandle for ShardHandle<'_> {
    fn update(&mut self, item: u64) {
        self.update_by(item, 1);
    }
}

/// A single-writer shard checkout that returns its shard to the free
/// pool on drop (see [`ShardedPcm::lease`]).
#[derive(Debug)]
pub struct ShardLease<'a> {
    parent: &'a ShardedPcm,
    shard: usize,
    /// Reusable row-index buffer (see [`ShardHandle`]).
    scratch: Vec<usize>,
}

impl ShardLease<'_> {
    /// The shard this lease owns.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Batched update: `count` occurrences at once (one store per row
    /// regardless of `count`). Row indices come from one
    /// [`PairwiseHash::hash_row_batch`] pass into the lease's scratch
    /// buffer.
    pub fn update_by(&mut self, item: u64, count: u64) {
        PairwiseHash::hash_row_batch(&self.parent.hashes, item, &mut self.scratch);
        add_at_cols(self.parent, self.shard, self.scratch.iter().copied(), count);
    }

    /// Applies a whole frame of `(item, count)` pairs to the leased
    /// shard: `scratch` coalesces duplicate keys and memoizes each
    /// distinct key's columns with one
    /// [`PairwiseHash::hash_row_batch`] sweep, then the single-writer
    /// stores run **row-major** with the next
    /// [`PREFETCH_DIST`](crate::batch::PREFETCH_DIST) cells warmed
    /// ahead of the write cursor by a relaxed load. Same load +
    /// `Release` store per cell as [`add_at_cols`] — the shard still
    /// has exactly one writer — so the final state is identical to
    /// per-item [`update_by`](Self::update_by) calls.
    pub fn apply_batch(&mut self, items: &[(u64, u64)], scratch: &mut BatchScratch) {
        let n = scratch.prepare(&self.parent.hashes, items);
        let m = &self.parent.shards[self.shard];
        let meta = &self.parent.meta[self.shard];
        let epoch = meta.next_epoch();
        for row in 0..self.parent.params.depth {
            let cells = m.row_cells(row);
            let cols = scratch.row_cols(row);
            let counts = &scratch.counts()[..n];
            let warm = n.saturating_sub(PREFETCH_DIST);
            for e in 0..warm {
                let _ = cells
                    .cell(cols[e + PREFETCH_DIST] as usize)
                    .load(Ordering::Relaxed);
                let cell = cells.cell(cols[e] as usize);
                let cur = cell.load(Ordering::Relaxed);
                cell.store(cur + counts[e], Ordering::Release);
            }
            for e in warm..n {
                let cell = cells.cell(cols[e] as usize);
                let cur = cell.load(Ordering::Relaxed);
                cell.store(cur + counts[e], Ordering::Release);
            }
            if n > 0 {
                // One span widen per row for the whole frame: the
                // coalesced columns' min/max, folded in after the cell
                // stores so a reader that sees the row stamp sees the
                // cells too.
                let (mut lo, mut hi) = (cols[0], cols[0]);
                for &c in &cols[1..n] {
                    lo = lo.min(c);
                    hi = hi.max(c);
                }
                meta.touch_row(row, lo, hi + 1, epoch);
            }
        }
        if n > 0 {
            meta.commit(epoch);
        }
    }

    /// Adds a peer's full `depth × width` cell matrix (row-major, as
    /// shipped by a snapshot) into the leased shard — the CountMin
    /// absorb path of replication catch-up. Cells are additive, so
    /// adding the peer matrix into any one shard makes the summed
    /// sketch equal the cell-wise merge of the two sketches
    /// (concatenated-stream semantics, like `CountMin::merge`). Same
    /// single-writer discipline as [`update_by`](Self::update_by):
    /// plain load + `Release` store per touched cell, span widen + row
    /// stamp per touched row, one epoch commit for the whole matrix.
    /// Zero cells are skipped (no store, no span widen), so absorbing
    /// a sparse peer keeps deltas sparse.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len()` differs from `depth * width` — callers
    /// gate peer dimensions (and hash fingerprints) before absorbing.
    pub fn absorb_cells(&mut self, cells: &[u64]) {
        let (depth, width) = (self.parent.params.depth, self.parent.params.width);
        assert_eq!(cells.len(), depth * width, "one cell per (row, col)");
        let arena = &self.parent.shards[self.shard];
        let meta = &self.parent.meta[self.shard];
        let epoch = meta.next_epoch();
        let mut touched = false;
        for row in 0..depth {
            let row_cells = arena.row_cells(row);
            let src = &cells[row * width..(row + 1) * width];
            let (mut lo, mut hi) = (width as u32, 0u32);
            for (col, &add) in src.iter().enumerate() {
                if add == 0 {
                    continue;
                }
                let cell = row_cells.cell(col);
                let cur = cell.load(Ordering::Relaxed);
                cell.store(cur + add, Ordering::Release);
                lo = lo.min(col as u32);
                hi = hi.max(col as u32 + 1);
            }
            if lo < hi {
                meta.touch_row(row, lo, hi, epoch);
                touched = true;
            }
        }
        if touched {
            meta.commit(epoch);
        }
    }

    /// Adds `count` at pre-hashed per-row columns (`cols[row]`, one
    /// per row, as memoized by
    /// [`UpdateBuffer`](crate::buffered::UpdateBuffer)): the buffered
    /// flush path, which skips re-hashing entirely.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `cols` has the wrong length or a
    /// column is out of range — callers must memoize with the parent's
    /// [`ShardedPcm::hashes`].
    pub fn apply_rows(&mut self, cols: &[u32], count: u64) {
        debug_assert_eq!(cols.len(), self.parent.params.depth);
        add_at_cols(
            self.parent,
            self.shard,
            cols.iter().map(|&c| c as usize),
            count,
        );
    }
}

impl SketchHandle for ShardLease<'_> {
    fn update(&mut self, item: u64) {
        self.update_by(item, 1);
    }
}

impl Drop for ShardLease<'_> {
    fn drop(&mut self) {
        self.parent.in_use[self.shard].store(false, Ordering::Release);
    }
}

impl ConcurrentSketch for ShardedPcm {
    type Handle<'a> = ShardHandle<'a>;

    /// Hands out the lowest free shard, permanently.
    ///
    /// # Panics
    ///
    /// Panics when more handles are requested than shards exist —
    /// two handles on one shard would break the single-writer cells.
    fn handle(&self) -> ShardHandle<'_> {
        let shard = self.acquire_free_shard().unwrap_or_else(|| {
            panic!("more handles requested than shards ({})", self.shards.len())
        });
        ShardHandle {
            parent: self,
            shard,
            scratch: Vec::with_capacity(self.params.depth),
        }
    }

    fn query(&self, item: u64) -> u64 {
        self.estimate(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_sketch::FrequencySketch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params() -> CountMinParams {
        CountMinParams {
            width: 64,
            depth: 4,
        }
    }

    #[test]
    fn quiescent_equals_single_matrix_sketch() {
        let mut coins = CoinFlips::from_seed(1);
        let mut cm = CountMin::new(params(), &mut coins);
        let sharded = ShardedPcm::from_prototype(&cm, 4);
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let mut h = sharded.handle();
                s.spawn(move |_| {
                    for k in 0..10_000u64 {
                        h.update((t * 13 + k) % 101);
                    }
                });
            }
        })
        .unwrap();
        for t in 0..4u64 {
            for k in 0..10_000u64 {
                cm.update((t * 13 + k) % 101);
            }
        }
        for item in 0..101u64 {
            assert_eq!(sharded.estimate(item), cm.estimate(item), "item {item}");
        }
    }

    #[test]
    fn batched_updates_count_in_bulk() {
        let mut coins = CoinFlips::from_seed(2);
        let sharded = ShardedPcm::new(params(), 2, &mut coins);
        let mut h = sharded.handle();
        h.update_by(9, 1_000);
        assert_eq!(sharded.estimate(9), 1_000);
    }

    #[test]
    fn estimates_monotone_under_concurrent_reads() {
        let mut coins = CoinFlips::from_seed(3);
        let sharded = ShardedPcm::new(params(), 2, &mut coins);
        crossbeam::scope(|s| {
            let mut h = sharded.handle();
            let w = s.spawn(move |_| {
                for _ in 0..50_000u64 {
                    h.update(7);
                }
            });
            let sh = &sharded;
            s.spawn(move |_| {
                let mut last = 0;
                loop {
                    let v = sh.estimate(7);
                    assert!(v >= last, "estimate regressed: {v} < {last}");
                    last = v;
                    if v >= 50_000 {
                        break;
                    }
                }
            });
            w.join().unwrap();
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "more handles")]
    fn over_subscription_rejected() {
        let mut coins = CoinFlips::from_seed(4);
        let sharded = ShardedPcm::new(params(), 1, &mut coins);
        let _h1 = sharded.handle();
        let _h2 = sharded.handle();
    }

    #[test]
    fn leases_recycle_shards() {
        let mut coins = CoinFlips::from_seed(6);
        let sharded = ShardedPcm::new(params(), 2, &mut coins);
        {
            let mut a = sharded.lease().expect("shard 0 free");
            let mut b = sharded.lease().expect("shard 1 free");
            assert_ne!(a.shard(), b.shard());
            assert!(sharded.lease().is_none(), "pool exhausted");
            a.update_by(3, 10);
            b.update_by(3, 5);
        }
        // Both leases dropped: the pool refills and writes persist.
        assert_eq!(sharded.estimate(3), 15);
        let c = sharded.lease().expect("returned to pool");
        assert_eq!(c.shard(), 0, "lowest shard first");
    }

    #[test]
    fn leases_and_handles_share_the_pool() {
        let mut coins = CoinFlips::from_seed(7);
        let sharded = ShardedPcm::new(params(), 2, &mut coins);
        let h = sharded.handle();
        let l = sharded.lease().expect("one shard left");
        assert_ne!(h.shard(), l.shard());
        assert!(sharded.lease().is_none());
        drop(l);
        // The handle's shard is permanent; the lease's shard returns.
        assert_eq!(sharded.lease().expect("lease shard free").shard(), 1);
    }

    #[test]
    fn cells_snapshot_matches_sequential_sketch() {
        let mut coins = CoinFlips::from_seed(8);
        let mut cm = CountMin::new(params(), &mut coins);
        let sharded = ShardedPcm::from_prototype(&cm, 3);
        {
            let mut a = sharded.lease().expect("shard free");
            let mut b = sharded.lease().expect("shard free");
            for k in 0..500u64 {
                a.update_by(k % 17, 2);
                b.update_by(k % 5, 1);
            }
        }
        for k in 0..500u64 {
            cm.update_by(k % 17, 2);
            cm.update_by(k % 5, 1);
        }
        assert_eq!(sharded.cells_snapshot(), cm.cells());
    }

    #[test]
    fn epoch_tracks_updates_and_dirty_spans_cover_touches() {
        let mut coins = CoinFlips::from_seed(9);
        let sharded = ShardedPcm::new(params(), 2, &mut coins);
        assert_eq!(sharded.epoch(), 0);
        let mut base = Vec::new();
        sharded.shard_epochs_into(&mut base);
        assert_eq!(base, vec![0, 0]);
        // Nothing written: every span is empty.
        for (lo, hi) in sharded.dirty_spans_since(&base) {
            assert!(lo >= hi, "clean sketch has no dirty span");
        }
        {
            let mut a = sharded.lease().expect("shard free");
            a.update_by(3, 10);
            a.update_by(11, 5);
        }
        assert_eq!(sharded.epoch(), 2, "one epoch bump per update");
        let spans = sharded.dirty_spans_since(&base);
        // Every row was touched; each span must cover both keys' cols.
        for (row, h) in sharded.hashes().iter().enumerate() {
            let (lo, hi) = spans[row];
            for key in [3u64, 11] {
                let col = h.hash_reduced(PairwiseHash::reduce(key)) as u32;
                assert!(lo <= col && col < hi, "row {row} span misses col {col}");
            }
        }
        // The sparse range read agrees with the full snapshot.
        let full = sharded.cells_snapshot();
        for (row, &(lo, hi)) in spans.iter().enumerate() {
            let mut got = Vec::new();
            sharded.sum_row_range_into(row, lo as usize, hi as usize, &mut got);
            assert_eq!(got, full[row * 64 + lo as usize..row * 64 + hi as usize]);
        }
        // Diffing against the current epoch vector reports clean rows.
        let mut now = Vec::new();
        sharded.shard_epochs_into(&mut now);
        for (lo, hi) in sharded.dirty_spans_since(&now) {
            assert!(lo >= hi, "no rows touched since the current epoch");
        }
    }

    #[test]
    fn batch_kernel_folds_spans_and_bumps_epoch_once() {
        let mut coins = CoinFlips::from_seed(10);
        let sharded = ShardedPcm::new(params(), 1, &mut coins);
        let mut base = Vec::new();
        sharded.shard_epochs_into(&mut base);
        let mut scratch = BatchScratch::new(4);
        {
            let mut l = sharded.lease().expect("shard free");
            l.apply_batch(&[(1, 2), (2, 3), (1, 1)], &mut scratch);
        }
        assert_eq!(sharded.epoch(), 1, "one epoch bump per batch frame");
        let spans = sharded.dirty_spans_since(&base);
        for (row, h) in sharded.hashes().iter().enumerate() {
            let (lo, hi) = spans[row];
            for key in [1u64, 2] {
                let col = h.hash_reduced(PairwiseHash::reduce(key)) as u32;
                assert!(lo <= col && col < hi, "row {row} span misses col {col}");
            }
        }
        // An empty frame changes nothing.
        {
            let mut l = sharded.lease().expect("shard free");
            l.apply_batch(&[], &mut scratch);
        }
        assert_eq!(sharded.epoch(), 1, "empty batch must not bump the epoch");
    }

    #[test]
    fn absorb_cells_adds_a_peer_matrix_and_bumps_the_epoch_once() {
        let mut coins = CoinFlips::from_seed(11);
        let sharded = ShardedPcm::new(params(), 2, &mut coins);
        let mut peer_coins = CoinFlips::from_seed(11);
        let peer = ShardedPcm::new(params(), 2, &mut peer_coins);
        {
            let mut l = sharded.lease().expect("shard free");
            l.update_by(3, 10);
        }
        {
            let mut l = peer.lease().expect("shard free");
            l.update_by(3, 4);
            l.update_by(9, 6);
        }
        let mut base = Vec::new();
        sharded.shard_epochs_into(&mut base);
        let peer_cells = peer.cells_snapshot();
        {
            let mut l = sharded.lease().expect("shard free");
            l.absorb_cells(&peer_cells);
        }
        // The absorbed sketch equals the cell-wise merge.
        assert_eq!(sharded.stream_len_estimate(), 20);
        assert!(sharded.estimate(3) >= 14);
        assert!(sharded.estimate(9) >= 6);
        // One epoch bump for the whole matrix; dirty spans cover the
        // absorbed columns so deltas against older bases still work.
        let mut now = Vec::new();
        sharded.shard_epochs_into(&mut now);
        assert_eq!(now.iter().sum::<u64>(), base.iter().sum::<u64>() + 1);
        let spans = sharded.dirty_spans_since(&base);
        for (row, h) in sharded.hashes().iter().enumerate() {
            let (lo, hi) = spans[row];
            for key in [3u64, 9] {
                let col = h.hash_reduced(PairwiseHash::reduce(key)) as u32;
                assert!(lo <= col && col < hi, "row {row} span misses col {col}");
            }
        }
        // An all-zero matrix is a no-op (no epoch bump).
        {
            let mut l = sharded.lease().expect("shard free");
            l.absorb_cells(&vec![0u64; 64 * 4]);
        }
        let mut after = Vec::new();
        sharded.shard_epochs_into(&mut after);
        assert_eq!(after, now, "zero matrix must not bump the epoch");
    }

    /// Reference sum for the kernel tests: every shard, every cell,
    /// one load each — no span skipping, no line walking.
    fn naive_row_sum(sketch: &ShardedPcm, row: usize, lo: usize, hi: usize) -> Vec<u64> {
        (lo..hi)
            .map(|col| {
                sketch
                    .shards
                    .iter()
                    .map(|arena| arena.cell(row, col).load(Ordering::Acquire))
                    .sum()
            })
            .collect()
    }

    /// Checks `sum_row_range_into` and `cells_snapshot` against
    /// [`naive_row_sum`] on every full row and on random ranges
    /// (empty, single-column, line-straddling and whole-row ones).
    fn assert_kernel_matches_naive(sketch: &ShardedPcm, rng: &mut StdRng) {
        let CountMinParams { width, depth } = sketch.params();
        let mut want_full = Vec::new();
        for row in 0..depth {
            want_full.extend(naive_row_sum(sketch, row, 0, width));
        }
        assert_eq!(sketch.cells_snapshot(), want_full);
        for _ in 0..200 {
            let row = rng.gen_range(0..depth);
            let lo = rng.gen_range(0..=width);
            let hi = rng.gen_range(lo..=width);
            // Appends after existing contents, leaving them alone.
            let mut got = vec![7u64];
            sketch.sum_row_range_into(row, lo, hi, &mut got);
            assert_eq!(got[0], 7, "prefix clobbered");
            assert_eq!(
                got[1..],
                naive_row_sum(sketch, row, lo, hi),
                "row {row} [{lo}, {hi})"
            );
        }
    }

    /// A peer matrix with random weights in `rows` only (other rows
    /// zero, so `absorb_cells` leaves them untouched).
    fn matrix_in_rows(params: CountMinParams, rows: &[usize], rng: &mut StdRng) -> Vec<u64> {
        let mut cells = vec![0u64; params.width * params.depth];
        for &row in rows {
            for _ in 0..3 {
                let col = rng.gen_range(0..params.width);
                cells[row * params.width + col] += rng.gen_range(1..100u64);
            }
        }
        cells
    }

    #[test]
    fn line_kernel_matches_naive_sum_on_partly_written_shards() {
        let mut rng = StdRng::seed_from_u64(12);
        for width in [20, 544] {
            let params = CountMinParams { width, depth: 5 };
            let sketch = ShardedPcm::new(params, 8, &mut CoinFlips::from_seed(12));
            let mut leases: Vec<_> = (0..8).map(|_| sketch.lease().expect("free")).collect();
            // Untouched sketch: every range sums to zero.
            assert_kernel_matches_naive(&sketch, &mut rng);
            // Shard 2 gets a few keys in every row.
            for key in [1u64, 99, 1234] {
                leases[2].update_by(key, key + 1);
            }
            assert_kernel_matches_naive(&sketch, &mut rng);
            // Shards 5 and 7 only in some rows; shards 0, 1, 3, 4, 6 idle.
            leases[5].absorb_cells(&matrix_in_rows(params, &[0, 3], &mut rng));
            leases[7].absorb_cells(&matrix_in_rows(params, &[4], &mut rng));
            assert_kernel_matches_naive(&sketch, &mut rng);
            // Every shard written.
            let mut scratch = BatchScratch::new(params.depth);
            for (k, lease) in leases.iter_mut().enumerate() {
                let frame: Vec<(u64, u64)> = (0..40).map(|i| (i * 31 + k as u64, 1)).collect();
                lease.apply_batch(&frame, &mut scratch);
            }
            assert_kernel_matches_naive(&sketch, &mut rng);
        }
    }

    #[test]
    fn line_kernel_sums_shard_groups_past_the_stack_list() {
        let mut rng = StdRng::seed_from_u64(14);
        let params = CountMinParams {
            width: 20,
            depth: 2,
        };
        let shards = LIVE_GROUP + 6;
        let sketch = ShardedPcm::new(params, shards, &mut CoinFlips::from_seed(14));
        let mut leases: Vec<_> = (0..shards).map(|_| sketch.lease().expect("free")).collect();
        // One written shard in each group, then every shard written.
        leases[3].update_by(8, 2);
        leases[LIVE_GROUP + 4].update_by(8, 5);
        assert_kernel_matches_naive(&sketch, &mut rng);
        for (k, lease) in leases.iter_mut().enumerate() {
            lease.update_by(k as u64, 1);
        }
        assert_kernel_matches_naive(&sketch, &mut rng);
    }

    #[test]
    fn zero_absorb_leaves_spans_and_sums_alone() {
        let mut rng = StdRng::seed_from_u64(13);
        let params = CountMinParams {
            width: 20,
            depth: 3,
        };
        let sketch = ShardedPcm::new(params, 4, &mut CoinFlips::from_seed(13));
        let mut a = sketch.lease().expect("free");
        let mut b = sketch.lease().expect("free");
        a.update_by(5, 3);
        b.absorb_cells(&[0; 60]);
        // The all-zero absorb widened no span: shard b stays skipped.
        let meta = &sketch.meta[b.shard()];
        for row in 0..params.depth {
            let lo = meta.span_lo[row].load(Ordering::Acquire);
            let hi = meta.span_hi[row].load(Ordering::Acquire);
            assert!(lo >= hi, "row {row} span widened by a zero absorb");
        }
        assert_kernel_matches_naive(&sketch, &mut rng);
        // A later nonzero absorb into the same shard is summed.
        b.absorb_cells(&matrix_in_rows(params, &[1], &mut rng));
        assert_kernel_matches_naive(&sketch, &mut rng);
    }

    #[test]
    fn never_underestimates_at_quiescence() {
        let mut coins = CoinFlips::from_seed(5);
        let sharded = ShardedPcm::new(params(), 3, &mut coins);
        crossbeam::scope(|s| {
            for t in 0..3u64 {
                let mut h = sharded.handle();
                s.spawn(move |_| {
                    for _ in 0..1_000 {
                        h.update(t);
                    }
                });
            }
        })
        .unwrap();
        for t in 0..3u64 {
            assert!(sharded.estimate(t) >= 1_000);
        }
    }
}
