//! Incremental result emission for the streaming projection pipeline.
//!
//! The paper's baseline strategies (in `rdx_bench::paper`) return a fully
//! built [`ResultRelation`] — which is exactly what a
//! memory-budgeted pipeline must *not* do.  A [`RowChunkSink`] receives the
//! projected result chunk by chunk instead, in final result order, so the
//! producer never holds more than one chunk of output: the consumer may
//! count or aggregate it ([`CountingSink`]) or encode it for the network
//! ([`FrameSink`]) — and only a consumer that explicitly chooses to
//! materialise ([`MaterializeSink`]) or encode pays full-result memory.

use rdx_dsm::{Column, FromValue, ResultRelation};
use std::ops::Range;

/// Receives the projected result chunk by chunk, lending the memory each
/// chunk is written into.
///
/// The producer writes the result one *column chunk* at a time: one
/// projected column (larger-side columns first, then smaller-side, as in
/// [`crate::strategy::StrategyOutcome`]) × one contiguous row chunk.  Per
/// column chunk it borrows the column's rows ([`RowChunkSink::column`]),
/// writes every value once into them as a [`FromValue`] cell, and then
/// calls [`RowChunkSink::emit`].  Each column's chunks arrive in
/// ascending, gap-free `first_row` order; the streaming pipeline runs each
/// column through all of its chunks before the next column starts, as the
/// paper's DSM post-projection runs one column per pass (Fig. 4).
pub trait RowChunkSink {
    /// What one result value is stored as in the lent memory.
    type Cell: FromValue<i32> + Send;

    /// Called once before the first chunk with the result geometry.
    fn begin(&mut self, total_rows: usize, num_columns: usize) {
        let _ = (total_rows, num_columns);
    }

    /// Lends the cells of result rows `rows` of column `c`, for the producer
    /// to overwrite; `rows` is the column chunk about to be emitted.
    fn column(&mut self, c: usize, rows: Range<usize>) -> &mut [Self::Cell];

    /// Notice that column `c`'s cells of the `rows` rows starting at
    /// `first_row` are written.
    fn emit(&mut self, c: usize, first_row: usize, rows: usize) {
        let _ = (c, first_row, rows);
    }

    /// Called once after the last chunk.
    fn finish(&mut self) {}
}

/// A sink that materialises the stream into a [`ResultRelation`] — the
/// compatibility bridge to the non-streaming executors (and the conformance
/// tests' way of comparing streamed and materialised results byte for byte).
///
/// `begin` sizes the whole-result columns and each column chunk is written
/// straight into its rows of them, never copied.  A column lent anywhere but
/// where its last chunk ended panics: each column's chunks must come in
/// order.
#[derive(Debug, Default)]
pub struct MaterializeSink {
    /// Each whole-result column and the rows emitted into it so far.
    columns: Vec<(Vec<i32>, usize)>,
}

impl MaterializeSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, yielding the accumulated result.
    pub fn into_result(self) -> ResultRelation {
        let mut result = ResultRelation::new();
        for (col, _) in self.columns {
            result.push_column(Column::from_vec(col));
        }
        result
    }
}

impl RowChunkSink for MaterializeSink {
    type Cell = i32;

    fn begin(&mut self, total_rows: usize, num_columns: usize) {
        self.columns = (0..num_columns).map(|_| (vec![0; total_rows], 0)).collect();
    }

    fn column(&mut self, c: usize, rows: Range<usize>) -> &mut [i32] {
        let (column, emitted) = &mut self.columns[c];
        assert_eq!(rows.start, *emitted, "chunk out of order");
        &mut column[rows]
    }

    fn emit(&mut self, c: usize, _first_row: usize, rows: usize) {
        self.columns[c].1 += rows;
    }
}

/// Everything a `Done` frame's payload carries besides the result columns.
///
/// This module owns the one `Done` payload layout: the head
/// ([`DoneHead::put`] / [`DoneHead::read`]), then each column's section
/// ([`put_column`] / [`read_column`]) in projection order.  The wire codec
/// and [`FrameSink`] write through these, and the wire decoder reads
/// through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoneHead {
    /// The ticket the frame answers.
    pub ticket: u64,
    /// Result cardinality.
    pub rows: u64,
    /// Chunks the query streamed in.
    pub chunks: u64,
    /// Whether the prepared prefix came from the clustered-index cache.
    pub cache_hit: bool,
    /// The budget share the query ran under, in bytes.
    pub share_bytes: u64,
}

impl DoneHead {
    /// Payload bytes before the first column: four `u64` fields, the
    /// cache-hit byte and the `u16` column count.
    pub const LEN: usize = 4 * 8 + 1 + 2;

    /// Bytes in front of every frame's payload: the wire header's magic,
    /// version, type and payload length, which the wire codec writes.
    pub const FRAME_HEADER_LEN: usize = 8;

    /// Payload bytes of a `Done` carrying `num_columns` columns of `rows`
    /// values each.
    pub fn payload_len(rows: usize, num_columns: usize) -> usize {
        Self::LEN + num_columns * (4 + 4 * rows)
    }

    /// Writes the head and the column count into `out[..LEN]`.
    pub fn put(&self, num_columns: usize, out: &mut [u8]) {
        let words = [self.ticket, self.rows, self.chunks];
        for (dst, word) in out[..24].chunks_exact_mut(8).zip(words) {
            dst.copy_from_slice(&word.to_le_bytes());
        }
        out[24] = u8::from(self.cache_hit);
        out[25..33].copy_from_slice(&self.share_bytes.to_le_bytes());
        out[33..Self::LEN].copy_from_slice(&(num_columns as u16).to_le_bytes());
    }

    /// Reads the head [`DoneHead::put`] wrote at the front of `payload`:
    /// the head and its column count, or why the bytes are no head.
    pub fn read(payload: &[u8]) -> Result<(DoneHead, usize), &'static str> {
        let head = payload.get(..Self::LEN).ok_or("truncated payload")?;
        let word = |at: usize| {
            let mut b = [0; 8];
            b.copy_from_slice(&head[at..at + 8]);
            u64::from_le_bytes(b)
        };
        let cache_hit = match head[24] {
            0 => false,
            1 => true,
            _ => return Err("boolean byte not 0/1"),
        };
        let done = DoneHead {
            ticket: word(0),
            rows: word(8),
            chunks: word(16),
            cache_hit,
            share_bytes: word(25),
        };
        Ok((done, u16::from_le_bytes([head[33], head[34]]) as usize))
    }
}

/// Writes one `Done` column section into `section`, the column's
/// `4 + 4 · rows` bytes: its `u32` length `rows`, then `values` (its first
/// rows) as little-endian `i32`s.  The one column encoder — a bulk copy
/// into a pre-sized slice, never a per-value push.
pub fn put_column(section: &mut [u8], rows: usize, values: &[i32]) {
    let (len, body) = section.split_at_mut(4);
    len.copy_from_slice(&(rows as u32).to_le_bytes());
    for (dst, v) in body[..4 * values.len()].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Reads the column section [`put_column`] wrote at the front of `bytes`:
/// its values and the section's length in bytes, or why the bytes are no
/// section.
pub fn read_column(bytes: &[u8]) -> Result<(Vec<i32>, usize), &'static str> {
    let len = bytes.get(..4).ok_or("truncated payload")?;
    let rows = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
    let end = rows
        .checked_mul(4)
        .and_then(|body| body.checked_add(4))
        .ok_or("column length overflow")?;
    let body = bytes.get(4..end).ok_or("truncated payload")?;
    let values = body
        .chunks_exact(4)
        .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    Ok((values, end))
}

/// A sink that encodes the stream straight into one pre-sized `Done`
/// frame: `begin` allocates [`DoneHead::FRAME_HEADER_LEN`] bytes for the
/// wire header plus the whole payload and writes each column's length.
/// Since the payload is column-major with every column's length known at
/// `begin`, each chunk is written straight into its rows of the column
/// bodies, as little-endian `[u8; 4]` cells — a body starts at no 4-byte
/// boundary.  [`FrameSink::into_frame`] writes the head once the caller
/// knows it.
#[derive(Debug, Default)]
pub struct FrameSink {
    frame: Vec<u8>,
    rows: usize,
    num_columns: usize,
}

impl FrameSink {
    /// An empty sink; `begin` sizes its frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// The frame with `head` written into its payload; its first
    /// [`DoneHead::FRAME_HEADER_LEN`] bytes are still the wire codec's to
    /// fill.
    pub fn into_frame(mut self, head: &DoneHead) -> Vec<u8> {
        head.put(
            self.num_columns,
            &mut self.frame[DoneHead::FRAME_HEADER_LEN..],
        );
        self.frame
    }

    /// Column `c`'s section of the payload.
    fn section(&mut self, c: usize) -> &mut [u8] {
        let len = 4 + 4 * self.rows;
        let at = DoneHead::FRAME_HEADER_LEN + DoneHead::LEN + c * len;
        &mut self.frame[at..at + len]
    }
}

impl RowChunkSink for FrameSink {
    type Cell = [u8; 4];

    fn begin(&mut self, total_rows: usize, num_columns: usize) {
        self.rows = total_rows;
        self.num_columns = num_columns;
        self.frame =
            vec![0; DoneHead::FRAME_HEADER_LEN + DoneHead::payload_len(total_rows, num_columns)];
        for c in 0..num_columns {
            put_column(self.section(c), total_rows, &[]);
        }
    }

    fn column(&mut self, c: usize, rows: Range<usize>) -> &mut [[u8; 4]] {
        let (body, _) = self.section(c)[4..].as_chunks_mut();
        &mut body[rows]
    }
}

/// A test/instrumentation sink decorator: lends `inner`'s memory while
/// recording chunk geometry (count, max rows per chunk) and the order the
/// columns arrive in, so tests can assert the streaming contract without
/// re-implementing a consumer.  Every column is cut into the same row
/// chunks, so the row geometry is read off column 0.
#[derive(Debug)]
pub struct CountingSink<S> {
    /// The decorated sink.
    pub inner: S,
    /// Row chunks seen so far (column 0's chunks).
    pub chunks: usize,
    /// Largest chunk (in rows) seen so far.
    pub max_chunk_rows: usize,
    /// Total rows seen so far (column 0's rows).
    pub rows: usize,
    /// The column of each run of consecutive column chunks: `0, 1, …`
    /// once in all when each column streams through all of its chunks
    /// before the next.
    pub column_runs: Vec<usize>,
}

impl<S> CountingSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        CountingSink {
            inner,
            chunks: 0,
            max_chunk_rows: 0,
            rows: 0,
            column_runs: Vec::new(),
        }
    }
}

impl<S: RowChunkSink> RowChunkSink for CountingSink<S> {
    type Cell = S::Cell;

    fn begin(&mut self, total_rows: usize, num_columns: usize) {
        self.inner.begin(total_rows, num_columns);
    }

    fn column(&mut self, c: usize, rows: Range<usize>) -> &mut [S::Cell] {
        self.inner.column(c, rows)
    }

    fn emit(&mut self, c: usize, first_row: usize, rows: usize) {
        if c == 0 {
            self.chunks += 1;
            self.max_chunk_rows = self.max_chunk_rows.max(rows);
            self.rows += rows;
        }
        if self.column_runs.last() != Some(&c) {
            self.column_runs.push(c);
        }
        self.inner.emit(c, first_row, rows);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes one chunk through the lending API: each column's values into
    /// the cells the sink lends for the chunk's rows, then the notice.
    fn write<S: RowChunkSink>(sink: &mut S, first_row: usize, cols: &[&[i32]]) {
        let rows = cols.first().map_or(0, |c| c.len());
        for (c, values) in cols.iter().enumerate() {
            let cells = sink.column(c, first_row..first_row + rows);
            assert_eq!(cells.len(), rows);
            for (cell, &v) in cells.iter_mut().zip(*values) {
                *cell = S::Cell::from_value(v);
            }
            sink.emit(c, first_row, rows);
        }
    }

    #[test]
    fn materialize_sink_concatenates_chunks() {
        let mut sink = MaterializeSink::new();
        sink.begin(5, 2);
        write(&mut sink, 0, &[&[1, 2, 3], &[10, 20, 30]]);
        write(&mut sink, 3, &[&[4, 5], &[40, 50]]);
        sink.finish();
        let result = sink.into_result();
        assert_eq!(result.cardinality(), 5);
        assert_eq!(result.columns()[0].as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(result.columns()[1].as_slice(), &[10, 20, 30, 40, 50]);
    }

    /// Each column's chunks arrive in order, and a column may run through
    /// all of its chunks before the next column starts (column-major).
    #[test]
    fn materialize_sink_takes_each_column_through_its_chunks_in_turn() {
        let mut sink = CountingSink::new(MaterializeSink::new());
        sink.begin(5, 2);
        for (c, values) in [[1, 2, 3, 4, 5], [10, 20, 30, 40, 50]].iter().enumerate() {
            for rows in [0..3, 3..5] {
                let cells = sink.column(c, rows.clone());
                cells.copy_from_slice(&values[rows.clone()]);
                sink.emit(c, rows.start, rows.len());
            }
        }
        sink.finish();
        assert_eq!((sink.chunks, sink.rows), (2, 5));
        assert_eq!(sink.column_runs, [0, 1]);
        let result = sink.inner.into_result();
        assert_eq!(result.columns()[0].as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(result.columns()[1].as_slice(), &[10, 20, 30, 40, 50]);
    }

    #[test]
    #[should_panic(expected = "chunk out of order")]
    fn materialize_sink_rejects_a_column_chunk_out_of_order() {
        let mut sink = MaterializeSink::new();
        sink.begin(4, 2);
        write(&mut sink, 0, &[&[1, 2], &[3, 4]]);
        sink.column(1, 0..2);
    }

    #[test]
    #[should_panic]
    fn materialize_sink_rejects_out_of_order_chunks() {
        let mut sink = MaterializeSink::new();
        sink.begin(4, 1);
        write(&mut sink, 2, &[&[3, 4]]);
    }

    #[test]
    fn frame_sink_writes_each_chunk_at_its_fixed_offset() {
        let mut sink = FrameSink::new();
        sink.begin(3, 2);
        write(&mut sink, 0, &[&[1, -2], &[10, 20]]);
        write(&mut sink, 2, &[&[3], &[i32::MIN]]);
        sink.finish();
        let head = DoneHead {
            ticket: 7,
            rows: 3,
            chunks: 2,
            cache_hit: true,
            share_bytes: 512,
        };
        let frame = sink.into_frame(&head);
        let at = DoneHead::FRAME_HEADER_LEN;
        assert_eq!(frame.len(), at + DoneHead::payload_len(3, 2));
        let mut expected = vec![0; at + DoneHead::LEN];
        head.put(2, &mut expected[at..]);
        let columns = [[1, -2, 3], [10, 20, i32::MIN]];
        for col in columns {
            expected.extend_from_slice(&3u32.to_le_bytes());
            expected.extend(col.iter().flat_map(|v| v.to_le_bytes()));
        }
        assert_eq!(frame, expected);
        // The readers take back what the writers put.
        let payload = &frame[at..];
        assert_eq!(DoneHead::read(payload), Ok((head, 2)));
        let mut rest = &payload[DoneHead::LEN..];
        for col in columns {
            let (values, len) = read_column(rest).expect("a whole section");
            assert_eq!((values.as_slice(), len), (&col[..], 4 + 4 * 3));
            rest = &rest[len..];
        }
        assert!(rest.is_empty());
        assert_eq!(
            read_column(&payload[DoneHead::LEN..DoneHead::LEN + 8]),
            Err("truncated payload")
        );
        assert_eq!(
            DoneHead::read(&payload[..DoneHead::LEN - 1]),
            Err("truncated payload")
        );
    }

    #[test]
    fn counting_sink_tracks_chunk_geometry() {
        let mut sink = CountingSink::new(MaterializeSink::new());
        sink.begin(4, 1);
        write(&mut sink, 0, &[&[1, 2, 3]]);
        write(&mut sink, 3, &[&[4]]);
        sink.finish();
        assert_eq!(sink.chunks, 2);
        assert_eq!(sink.max_chunk_rows, 3);
        assert_eq!(sink.rows, 4);
        assert_eq!(sink.column_runs, [0]);
        assert_eq!(sink.inner.into_result().cardinality(), 4);
    }
}
