//! In-memory row storage.

use std::sync::Arc;

/// An immutable, fixed-width-row, in-memory table fragment (one node's
//  partition of a relation).
#[derive(Clone, Debug)]
pub struct Table {
    row_size: usize,
    data: Arc<Vec<u8>>,
}

/// Builder for [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    row_size: usize,
    data: Vec<u8>,
}

impl TableBuilder {
    /// Creates a builder for `row_size`-byte rows.
    pub fn new(row_size: usize) -> Self {
        assert!(row_size > 0, "rows must have positive width");
        TableBuilder {
            row_size,
            data: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not exactly `row_size` bytes.
    #[inline]
    pub fn push(&mut self, row: &[u8]) {
        assert_eq!(row.len(), self.row_size, "row width mismatch");
        self.data.extend_from_slice(row);
    }

    /// Finalizes the table.
    pub fn build(self) -> Table {
        Table {
            row_size: self.row_size,
            data: Arc::new(self.data),
        }
    }
}

impl Table {
    /// Creates an empty table of `row_size`-byte rows.
    pub fn empty(row_size: usize) -> Self {
        TableBuilder::new(row_size).build()
    }

    /// Starts building a table.
    pub fn builder(row_size: usize) -> TableBuilder {
        TableBuilder::new(row_size)
    }

    /// Row width in bytes.
    pub fn row_size(&self) -> usize {
        self.row_size
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.len() / self.row_size
    }

    /// Total bytes.
    pub fn bytes(&self) -> usize {
        self.data.len()
    }

    /// Returns row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.data[i * self.row_size..(i + 1) * self.row_size]
    }

    /// Rows `range` as one slice of `range.len() * row_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `range` runs backwards or past the last row.
    pub fn row_run(&self, range: std::ops::Range<usize>) -> &[u8] {
        &self.data[range.start * self.row_size..range.end * self.row_size]
    }

    /// The contiguous range of rows thread `tid` of `threads` should scan:
    /// an even block partition.
    pub fn thread_range(&self, tid: usize, threads: usize) -> std::ops::Range<usize> {
        assert!(tid < threads);
        let n = self.rows();
        let per = n.div_ceil(threads);
        let start = (tid * per).min(n);
        let end = ((tid + 1) * per).min(n);
        start..end
    }

    /// Iterates over all rows.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.data.chunks_exact(self.row_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: usize) -> Table {
        let mut b = Table::builder(8);
        for i in 0..rows {
            b.push(&(i as u64).to_le_bytes());
        }
        b.build()
    }

    #[test]
    fn build_and_read_back() {
        let t = table(10);
        assert_eq!(t.rows(), 10);
        assert_eq!(t.row(3), 3u64.to_le_bytes());
        assert_eq!(t.bytes(), 80);
    }

    #[test]
    fn a_row_run_is_its_rows_back_to_back() {
        let t = table(10);
        let run: Vec<u8> = (3..6).flat_map(|i| t.row(i).iter().copied()).collect();
        assert_eq!(t.row_run(3..6), run);
        assert!(t.row_run(10..10).is_empty());
    }

    #[test]
    fn thread_ranges_partition_exactly() {
        let t = table(10);
        let mut seen = Vec::new();
        for tid in 0..3 {
            for i in t.thread_range(tid, 3) {
                seen.push(i);
            }
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn thread_ranges_handle_more_threads_than_rows() {
        let t = table(2);
        let total: usize = (0..8).map(|tid| t.thread_range(tid, 8).len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn empty_table() {
        let t = Table::empty(16);
        assert_eq!(t.rows(), 0);
        assert!(t.thread_range(0, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_rejected() {
        let mut b = Table::builder(8);
        b.push(&[1, 2, 3]);
    }
}
