//! Incremental result emission for the streaming projection pipeline.
//!
//! The baseline strategies ([`crate::strategy::dsm_pre_projection`] etc.)
//! return a fully built [`ResultRelation`] — which is exactly what a
//! memory-budgeted pipeline must *not* do.  A [`RowChunkSink`] receives the
//! projected result chunk by chunk instead, in final result order, so the
//! producer never holds more than one chunk of output: the consumer may
//! aggregate it, ship it over a network, or spool it to buffer-manager pages
//! ([`PagedSink`], the §5 "DSM inside an NSM RDBMS" integration) — and only a
//! consumer that explicitly chooses to materialise ([`MaterializeSink`]) pays
//! full-result memory.

use rdx_dsm::{Column, ResultRelation};
use rdx_nsm::{assign_positions, BufferManager, PageId, Placement};

/// Receives the projected result incrementally, chunk by chunk.
///
/// Chunks arrive in ascending, gap-free `first_row` order; every chunk
/// carries all projected columns (larger-side columns first, then
/// smaller-side, as in [`crate::strategy::StrategyOutcome`]), each of the
/// same per-chunk length.
///
/// **Ownership.** `emit` lends the producer's own column buffers mutably.
/// A sink may read them, or take any of them (`std::mem::take`, `swap`)
/// instead of copying out of them; the producer re-grows whatever was
/// taken before its next chunk.  A sink that only reads leaves the buffers
/// where they are, so the producer reuses them without allocating.
pub trait RowChunkSink {
    /// Called once before the first chunk with the result geometry.
    fn begin(&mut self, total_rows: usize, num_columns: usize) {
        let _ = (total_rows, num_columns);
    }

    /// One chunk of result rows starting at `first_row`; the sink may take
    /// the buffers (see the trait docs).
    fn emit(&mut self, first_row: usize, columns: &mut [Vec<i32>]);

    /// Called once after the last chunk.
    fn finish(&mut self) {}
}

/// A sink that materialises the stream into a [`ResultRelation`] — the
/// compatibility bridge to the non-streaming executors (and the conformance
/// tests' way of comparing streamed and materialised results byte for byte).
///
/// A chunk that is the whole result (`first_row == 0` and all the rows
/// `begin` announced) is taken, not copied: its buffers become the result
/// columns and the producer is left empty `Vec`s.  Partial chunks are
/// concatenated; the first one reserves the full result.
#[derive(Debug, Default)]
pub struct MaterializeSink {
    columns: Vec<Vec<i32>>,
    total_rows: usize,
}

impl MaterializeSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, yielding the accumulated result.
    pub fn into_result(self) -> ResultRelation {
        let mut result = ResultRelation::new();
        for col in self.columns {
            result.push_column(Column::from_vec(col));
        }
        result
    }
}

impl RowChunkSink for MaterializeSink {
    fn begin(&mut self, total_rows: usize, num_columns: usize) {
        self.total_rows = total_rows;
        self.columns = (0..num_columns).map(|_| Vec::new()).collect();
    }

    fn emit(&mut self, first_row: usize, columns: &mut [Vec<i32>]) {
        assert_eq!(columns.len(), self.columns.len(), "column count changed");
        let rows = columns.first().map_or(0, Vec::len);
        let whole = first_row == 0 && rows == self.total_rows;
        for (acc, chunk) in self.columns.iter_mut().zip(columns) {
            assert_eq!(acc.len(), first_row, "chunk out of order");
            if whole {
                *acc = std::mem::take(chunk);
            } else {
                if first_row == 0 {
                    acc.reserve_exact(self.total_rows);
                }
                acc.extend_from_slice(chunk);
            }
        }
    }
}

/// A sink that spools result rows into slotted buffer-manager pages, one
/// NSM-style record of `num_columns` 4-byte attributes per row (§5, Fig. 12
/// phase 2 arithmetic via [`assign_positions`]).
///
/// Pages are allocated chunk by chunk, so the resident *new* output per chunk
/// is one chunk's worth of pages — the buffer manager is the spill target,
/// standing in for a paged disk heap.
#[derive(Debug)]
pub struct PagedSink<'a> {
    bm: &'a mut BufferManager,
    first_page: Option<PageId>,
    placements: Vec<Placement>,
    num_columns: usize,
    row_buf: Vec<u8>,
}

impl<'a> PagedSink<'a> {
    /// A sink writing into `bm`.
    pub fn new(bm: &'a mut BufferManager) -> Self {
        PagedSink {
            bm,
            first_page: None,
            placements: Vec::new(),
            num_columns: 0,
            row_buf: Vec::new(),
        }
    }

    /// Bytes of one spooled record.
    pub fn row_bytes(&self) -> usize {
        self.num_columns * 4
    }

    /// Id of the first page written (`None` until the first non-empty chunk).
    pub fn first_page(&self) -> Option<PageId> {
        self.first_page
    }

    /// Where each emitted row landed (page relative to [`Self::first_page`]).
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Reads back row `i` as `num_columns` attribute values.
    pub fn read_row(&self, i: usize) -> Vec<i32> {
        let p = self.placements[i];
        let page = self
            .bm
            .page(self.first_page.expect("no rows written") + p.page);
        let bytes = page.read(p.slot, self.row_bytes());
        bytes
            .chunks_exact(4)
            .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect()
    }
}

impl RowChunkSink for PagedSink<'_> {
    fn begin(&mut self, total_rows: usize, num_columns: usize) {
        self.num_columns = num_columns;
        self.placements.reserve(total_rows);
    }

    fn emit(&mut self, first_row: usize, columns: &mut [Vec<i32>]) {
        assert_eq!(self.placements.len(), first_row, "chunk out of order");
        let rows = columns.first().map(|c| c.len()).unwrap_or(0);
        if rows == 0 {
            return;
        }
        // Fig. 12 phase 2 for this chunk: fixed-size records, page-aware
        // placement, continuing on fresh pages after the previous chunk.
        let lengths = vec![self.row_bytes(); rows];
        let placements = assign_positions(&lengths, self.bm.page_size());
        let pages = rdx_nsm::paged::pages_needed(&placements);
        let base = self.bm.allocate(pages);
        if self.first_page.is_none() {
            self.first_page = Some(base);
        }
        let page_offset = base - self.first_page.unwrap();
        for (r, p) in placements.into_iter().enumerate() {
            self.row_buf.clear();
            for col in columns.iter() {
                self.row_buf.extend_from_slice(&col[r].to_le_bytes());
            }
            self.bm
                .page_mut(base + p.page)
                .write_at(p.slot, p.offset, &self.row_buf);
            self.placements.push(Placement {
                page: page_offset + p.page,
                slot: p.slot,
                offset: p.offset,
            });
        }
    }
}

/// A test/instrumentation sink decorator: forwards to `inner` while
/// recording chunk geometry (count, max rows per chunk) so tests can assert
/// the streaming contract without re-implementing a consumer.
#[derive(Debug)]
pub struct CountingSink<S> {
    /// The decorated sink.
    pub inner: S,
    /// Chunks seen so far.
    pub chunks: usize,
    /// Largest chunk (in rows) seen so far.
    pub max_chunk_rows: usize,
    /// Total rows seen so far.
    pub rows: usize,
}

impl<S> CountingSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        CountingSink {
            inner,
            chunks: 0,
            max_chunk_rows: 0,
            rows: 0,
        }
    }
}

impl<S: RowChunkSink> RowChunkSink for CountingSink<S> {
    fn begin(&mut self, total_rows: usize, num_columns: usize) {
        self.inner.begin(total_rows, num_columns);
    }

    fn emit(&mut self, first_row: usize, columns: &mut [Vec<i32>]) {
        let rows = columns.first().map(|c| c.len()).unwrap_or(0);
        self.chunks += 1;
        self.max_chunk_rows = self.max_chunk_rows.max(rows);
        self.rows += rows;
        self.inner.emit(first_row, columns);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(cols: &[&[i32]]) -> Vec<Vec<i32>> {
        cols.iter().map(|c| c.to_vec()).collect()
    }

    #[test]
    fn materialize_sink_takes_a_whole_result_chunk() {
        let mut sink = MaterializeSink::new();
        sink.begin(3, 2);
        let mut produced = chunk(&[&[1, 2, 3], &[10, 20, 30]]);
        let buffers: Vec<*const i32> = produced.iter().map(|c| c.as_ptr()).collect();
        sink.emit(0, &mut produced);
        sink.finish();
        assert!(
            produced.iter().all(|c| c.capacity() == 0),
            "the producer keeps empty Vecs"
        );
        let result = sink.into_result();
        let kept: Vec<*const i32> = result
            .columns()
            .iter()
            .map(|c| c.as_slice().as_ptr())
            .collect();
        assert_eq!(kept, buffers, "the result is the producer's buffers");
        assert_eq!(result.columns()[0].as_slice(), &[1, 2, 3]);
        assert_eq!(result.columns()[1].as_slice(), &[10, 20, 30]);
    }

    #[test]
    fn materialize_sink_concatenates_chunks() {
        let mut sink = MaterializeSink::new();
        sink.begin(5, 2);
        let mut first = chunk(&[&[1, 2, 3], &[10, 20, 30]]);
        sink.emit(0, &mut first);
        assert_eq!(first[0], [1, 2, 3], "a partial chunk is copied, not taken");
        sink.emit(3, &mut chunk(&[&[4, 5], &[40, 50]]));
        sink.finish();
        let result = sink.into_result();
        assert_eq!(result.cardinality(), 5);
        assert_eq!(result.columns()[0].as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(result.columns()[1].as_slice(), &[10, 20, 30, 40, 50]);
    }

    #[test]
    #[should_panic]
    fn materialize_sink_rejects_out_of_order_chunks() {
        let mut sink = MaterializeSink::new();
        sink.begin(4, 1);
        sink.emit(2, &mut chunk(&[&[3, 4]]));
    }

    #[test]
    fn paged_sink_round_trips_rows() {
        let mut bm = BufferManager::new(64);
        let mut sink = PagedSink::new(&mut bm);
        sink.begin(5, 3);
        sink.emit(
            0,
            &mut chunk(&[&[1, 2, 3], &[10, 20, 30], &[100, 200, 300]]),
        );
        sink.emit(3, &mut chunk(&[&[4, 5], &[40, 50], &[400, 500]]));
        sink.finish();
        assert_eq!(sink.placements().len(), 5);
        for (r, want) in [
            [1, 10, 100],
            [2, 20, 200],
            [3, 30, 300],
            [4, 40, 400],
            [5, 50, 500],
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(sink.read_row(r), want.to_vec(), "row {r}");
        }
        assert!(
            bm.num_pages() > 1,
            "12-byte records on 64-byte pages must spill"
        );
    }

    #[test]
    fn counting_sink_tracks_chunk_geometry() {
        let mut sink = CountingSink::new(MaterializeSink::new());
        sink.begin(4, 1);
        sink.emit(0, &mut chunk(&[&[1, 2, 3]]));
        sink.emit(3, &mut chunk(&[&[4]]));
        sink.finish();
        assert_eq!(sink.chunks, 2);
        assert_eq!(sink.max_chunk_rows, 3);
        assert_eq!(sink.rows, 4);
        assert_eq!(sink.inner.into_result().cardinality(), 4);
    }
}
