//! A cache-aware atomic counter arena shared by the CountMin variants.
//!
//! [`Pcm`](crate::Pcm), [`ShardedPcm`](crate::ShardedPcm) and
//! [`BufferedPcm`](crate::BufferedPcm) all keep a `depth × width`
//! matrix of `AtomicU64` cells. Storing it as a plain
//! `Vec<AtomicU64>` gives no alignment guarantee (a row may start
//! mid-cache-line, so a row's hot cells straddle an extra line) and
//! the sharded variant additionally paid a per-row `Vec` indirection.
//! [`CellArena`] fixes both in one place: one contiguous allocation of
//! 128-byte [`CachePadded`] *lines* of 16 cells each, rows padded up
//! to whole lines, so every row starts on a cache-line boundary and
//! flat index math (`line = row · lines_per_row + col / 16`) replaces
//! nested vectors.
//!
//! The arena deliberately exposes bare [`AtomicU64`] references and
//! takes no stance on memory orderings — each sketch picks its own
//! (see `crates/concurrent/ORDERINGS.md`), so the audit table keeps
//! its per-algorithm justifications.

use crossbeam::utils::CachePadded;
use std::sync::atomic::AtomicU64;

/// Cells per padded line. [`CachePadded`] aligns to 128 bytes, so a
/// line of 16 × 8-byte cells is exactly one padding unit: no wasted
/// bytes, and every 16-cell group (hence every row start) is
/// cache-line aligned.
pub const LINE_CELLS: usize = 16;

/// One 128-byte-aligned block of counter cells.
type Line = CachePadded<[AtomicU64; LINE_CELLS]>;

/// A `depth × width` matrix of `AtomicU64` counters in a single
/// padded allocation, row-major with rows padded to whole cache
/// lines. All cells start at zero.
#[derive(Debug)]
pub struct CellArena {
    depth: usize,
    width: usize,
    lines_per_row: usize,
    lines: Vec<Line>,
}

impl CellArena {
    /// Allocates a zeroed `depth × width` arena.
    ///
    /// # Panics
    ///
    /// Panics if `depth` or `width` is 0.
    pub fn new(depth: usize, width: usize) -> Self {
        assert!(depth > 0 && width > 0, "arena dimensions must be positive");
        let lines_per_row = width.div_ceil(LINE_CELLS);
        let lines = (0..depth * lines_per_row)
            .map(|_| CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0))))
            .collect();
        CellArena {
            depth,
            width,
            lines_per_row,
            lines,
        }
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of counters per row (excluding alignment padding).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The cell at (`row`, `col`) — the one place that maps matrix
    /// coordinates to the padded flat layout.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> &AtomicU64 {
        debug_assert!(row < self.depth && col < self.width);
        &self.lines[row * self.lines_per_row + col / LINE_CELLS][col % LINE_CELLS]
    }

    /// One row's cells behind a single narrowed line slice. The batch
    /// kernels hoist this outside their per-entry loops, so each cell
    /// access is a shift, a mask and one in-slice index instead of
    /// re-deriving the row base from the full arena.
    #[inline]
    pub fn row_cells(&self, row: usize) -> RowCells<'_> {
        let start = row * self.lines_per_row;
        RowCells {
            lines: &self.lines[start..start + self.lines_per_row],
            width: self.width,
        }
    }

    /// The `width` cells of one row, in column order (padding cells
    /// excluded).
    pub fn row(&self, row: usize) -> impl Iterator<Item = &AtomicU64> {
        let start = row * self.lines_per_row;
        self.lines[start..start + self.lines_per_row]
            .iter()
            .flat_map(|line| line.iter())
            .take(self.width)
    }

    /// All cells in row-major order (padding cells excluded) — the
    /// sequential `CountMin`-shaped view used for snapshots.
    pub fn cells(&self) -> impl Iterator<Item = &AtomicU64> {
        (0..self.depth).flat_map(|r| self.row(r))
    }
}

/// A borrowed view of one arena row (see [`CellArena::row_cells`]).
#[derive(Debug, Clone, Copy)]
pub struct RowCells<'a> {
    lines: &'a [Line],
    width: usize,
}

impl RowCells<'_> {
    /// The cell at `col` of this row.
    #[inline]
    pub fn cell(&self, col: usize) -> &AtomicU64 {
        debug_assert!(col < self.width);
        &self.lines[col / LINE_CELLS][col % LINE_CELLS]
    }

    /// The `i`-th 16-cell line of this row: columns
    /// `[i · LINE_CELLS, (i + 1) · LINE_CELLS)`. The row's last line may
    /// end in padding cells past `width`; nothing writes them, so they
    /// stay zero. Line-wise readers walk a row without re-deriving
    /// the line index per cell.
    #[inline]
    pub fn line(&self, i: usize) -> &[AtomicU64; LINE_CELLS] {
        &self.lines[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn rows_are_cache_line_aligned() {
        // 16 cells × 8 bytes fills the 128-byte padding unit exactly.
        assert_eq!(std::mem::size_of::<Line>(), 128);
        let arena = CellArena::new(3, 20); // width not a multiple of 16
        for row in 0..3 {
            let addr = arena.cell(row, 0) as *const AtomicU64 as usize;
            assert_eq!(addr % 64, 0, "row {row} start not cache-line aligned");
        }
    }

    #[test]
    fn cell_indexing_is_row_major_and_distinct() {
        let arena = CellArena::new(4, 37);
        for row in 0..4 {
            for col in 0..37 {
                arena
                    .cell(row, col)
                    .store((row * 37 + col) as u64 + 1, Ordering::Relaxed);
            }
        }
        let flat: Vec<u64> = arena.cells().map(|c| c.load(Ordering::Relaxed)).collect();
        let want: Vec<u64> = (1..=4 * 37).collect();
        assert_eq!(flat, want);
    }

    #[test]
    fn row_iterates_exactly_width_cells() {
        let arena = CellArena::new(2, 17);
        arena.cell(0, 16).store(7, Ordering::Relaxed);
        arena.cell(1, 0).store(9, Ordering::Relaxed);
        let row0: Vec<u64> = arena.row(0).map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(row0.len(), 17);
        assert_eq!(row0[16], 7);
        // Row 1's first cell is its own, not row 0 padding.
        assert_eq!(arena.row(1).next().unwrap().load(Ordering::Relaxed), 9);
    }

    #[test]
    fn lines_cover_the_row_in_column_order() {
        let arena = CellArena::new(2, 20);
        for col in 0..20 {
            arena.cell(1, col).store(col as u64 + 1, Ordering::Relaxed);
        }
        let row = arena.row_cells(1);
        let mut seen = Vec::new();
        for i in 0..2 {
            seen.extend(row.line(i).iter().map(|c| c.load(Ordering::Relaxed)));
        }
        let mut want: Vec<u64> = (1..=20).collect();
        want.resize(32, 0); // padding cells stay zero
        assert_eq!(seen, want);
    }
}
