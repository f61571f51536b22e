//! Length-prefixed frame codec for the shard wire protocol.
//!
//! Every message between the parent process and a shard worker is one
//! **frame**: a 1-byte opcode, an 8-byte little-endian payload length,
//! and the payload. Frames are exchanged over a Unix domain socket
//! between two processes of the *same build on the same host* (the
//! parent fork/execs its own binary), so payloads carry numeric arrays
//! in native endianness and width — this is an IPC format, not an
//! interchange format, and nothing here is versioned or portable.
//!
//! The codec is deliberately dumb: no framing state, no compression,
//! no partial reads surfaced to callers. A short read (the peer closed
//! the socket mid-frame) comes back as an `io::Error`, which the
//! lifecycle layer translates into the typed worker-death error — the
//! closed socket *is* the death sentinel.

use std::io::{self, Read, Write};

/// Parent → worker: load a local CSR block (fingerprint, rows, inputs,
/// offsets, targets).
pub const OP_LOAD: u8 = 1;
/// Parent → worker: apply the loaded CSR to one scaled input slice.
pub const OP_APPLY: u8 = 2;
/// Parent → worker: apply to a row-major multi-vector block.
pub const OP_APPLY_MULTI: u8 = 3;
/// Parent → worker: the pipeline entered a named stage (telemetry).
pub const OP_STAGE: u8 = 4;
/// Parent → worker: reply with a `socmix-obs` metrics snapshot.
pub const OP_SNAPSHOT: u8 = 5;
/// Parent → worker: exit cleanly.
pub const OP_SHUTDOWN: u8 = 6;
/// Parent → worker: adopt trace context. Payload is three `u64`
/// fields: `[trace_id][parent_span_id][parent_clock_ns]` — the run's
/// trace id, the parent-process span the worker's top-level spans
/// hang under, and the parent's trace clock at send time (the worker
/// stores `parent_clock_ns - its own clock` as its offset, aligning
/// the two timelines to within half a socket round trip).
pub const OP_TRACE_CTX: u8 = 7;
/// Parent → worker: drain and ship recorded trace events
/// ([`REPLY_TRACE`]).
pub const OP_TRACE_DRAIN: u8 = 8;
/// Parent → worker, **test hook**: arm the worker to truncate its next
/// data reply mid-frame (header written, payload cut short) and exit.
/// Exists so the death-detection path for a worker dying *between* a
/// reply's header and payload is testable end-to-end; never sent by
/// production code (companion to `ShardGroup::terminate_worker`).
pub const OP_DEBUG_TRUNCATE: u8 = 0x7e;

/// Worker → parent: success, no data.
pub const REPLY_ACK: u8 = 0x81;
/// Worker → parent: success, payload is an f64 array.
pub const REPLY_DATA: u8 = 0x82;
/// Worker → parent: success, payload is a UTF-8 JSON snapshot.
pub const REPLY_SNAPSHOT: u8 = 0x83;
/// Worker → parent: success, payload is a UTF-8 JSON array of
/// chrome-format trace events (offset-adjusted, worker pid).
pub const REPLY_TRACE: u8 = 0x84;
/// Worker → parent: the request failed; payload is a UTF-8 message.
pub const REPLY_ERR: u8 = 0xff;

/// Upper bound on accepted payload sizes (8 GiB). A frame header
/// announcing more than this means a corrupt or desynchronized stream,
/// not a real workload — reject it instead of trying to allocate.
pub const MAX_FRAME: u64 = 8 << 30;

/// Writes one frame. The caller is responsible for flushing when the
/// frame completes a request batch.
pub fn write_frame<W: Write>(w: &mut W, op: u8, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; 9];
    header[0] = op;
    header[1..9].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Writes a frame whose payload is split across several segments
/// (avoids concatenating header fields and bulk arrays into one
/// temporary buffer).
pub fn write_frame_vectored<W: Write>(w: &mut W, op: u8, segments: &[&[u8]]) -> io::Result<()> {
    let total: u64 = segments.iter().map(|s| s.len() as u64).sum();
    let mut header = [0u8; 9];
    header[0] = op;
    header[1..9].copy_from_slice(&total.to_le_bytes());
    w.write_all(&header)?;
    for s in segments {
        w.write_all(s)?;
    }
    Ok(())
}

/// Granularity of incremental payload allocation in
/// [`read_frame_capped`]. The buffer grows by at most this much ahead
/// of the bytes that have actually arrived, so a forged header costs
/// one chunk of memory before the short read surfaces, not the
/// announced length.
const READ_CHUNK: usize = 1 << 20;

/// Reads one frame, returning `(opcode, payload)`. Accepts any payload
/// up to [`MAX_FRAME`]; peers that can bound payloads more tightly per
/// opcode should use [`read_frame_capped`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(u8, Vec<u8>)> {
    read_frame_capped(r, |_| MAX_FRAME)
}

/// Reads one frame, bounding the announced payload length both by
/// [`MAX_FRAME`] and by a caller-supplied per-opcode cap.
///
/// The payload buffer grows in `READ_CHUNK` steps as bytes actually
/// arrive rather than being allocated up front, so a hostile or
/// desynchronized peer announcing gigabytes it never sends cannot OOM
/// the process: the allocation tracks delivery, and the inevitable
/// short read surfaces as an `io::Error` after at most one chunk.
///
/// A length above the opcode's cap is an `InvalidData` error *before*
/// any payload byte is read. Note the stream is left desynchronized in
/// that case (the announced payload is still in flight); callers are
/// expected to drop the connection, which is exactly what the shard
/// lifecycle layer does with any frame error.
pub fn read_frame_capped<R: Read>(r: &mut R, cap: impl Fn(u8) -> u64) -> io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 9];
    r.read_exact(&mut header)?;
    let op = header[0];
    let len = u64::from_le_bytes([
        header[1], header[2], header[3], header[4], header[5], header[6], header[7], header[8],
    ]);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds protocol maximum"),
        ));
    }
    let op_cap = cap(op);
    if len > op_cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {op_cap} for opcode {op:#04x}"),
        ));
    }
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let step = (len - payload.len()).min(READ_CHUNK);
        let filled = payload.len();
        payload.resize(filled + step, 0);
        r.read_exact(&mut payload[filled..])?;
    }
    Ok((op, payload))
}

/// Views an `f64` slice as raw bytes for zero-copy frame writes.
pub fn f64s_as_bytes(v: &[f64]) -> &[u8] {
    // SAFETY: `f64` has no padding and no invalid bit patterns when
    // reinterpreted as bytes; the byte view covers exactly the slice's
    // memory (len * 8), and `u8` has alignment 1 so any pointer is
    // suitably aligned for the target type.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// Views a `u32` slice as raw bytes for zero-copy frame writes.
pub fn u32s_as_bytes(v: &[u32]) -> &[u8] {
    // SAFETY: plain-old-data reinterpretation as in `f64s_as_bytes`:
    // the view spans exactly the slice's bytes and `u8` alignment is 1.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// Views a `usize` slice as raw bytes for zero-copy frame writes
/// (same-host protocol: the worker is the same build, so widths match).
pub fn usizes_as_bytes(v: &[usize]) -> &[u8] {
    // SAFETY: plain-old-data reinterpretation as in `f64s_as_bytes`:
    // the view spans exactly the slice's bytes and `u8` alignment is 1.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// Copies a byte payload into an `f64` vector (destination-aligned, so
/// the source bytes need no alignment).
pub fn bytes_to_f64s(bytes: &[u8]) -> Option<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    let n = bytes.len() / 8;
    let mut out = vec![0.0f64; n];
    // SAFETY: `out` owns `n * 8` writable bytes, `bytes` provides
    // exactly as many readable ones, and the two allocations cannot
    // overlap (out was just allocated).
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
    }
    Some(out)
}

/// Copies a byte payload onto an existing `f64` buffer, resizing it to
/// fit; the reuse avoids a fresh allocation per exchange round.
pub fn bytes_into_f64s(bytes: &[u8], out: &mut Vec<f64>) -> bool {
    if !bytes.len().is_multiple_of(8) {
        return false;
    }
    out.resize(bytes.len() / 8, 0.0);
    // SAFETY: `out` was just resized to own exactly `bytes.len()`
    // writable bytes; source and destination are distinct allocations.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
    }
    true
}

/// Copies a byte payload into a `u32` vector.
pub fn bytes_to_u32s(bytes: &[u8]) -> Option<Vec<u32>> {
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let n = bytes.len() / 4;
    let mut out = vec![0u32; n];
    // SAFETY: `out` owns `n * 4` writable bytes, matching the source
    // length; distinct allocations cannot overlap.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
    }
    Some(out)
}

/// Copies a byte payload into a `usize` vector.
pub fn bytes_to_usizes(bytes: &[u8]) -> Option<Vec<usize>> {
    let w = std::mem::size_of::<usize>();
    if !bytes.len().is_multiple_of(w) {
        return None;
    }
    let n = bytes.len() / w;
    let mut out = vec![0usize; n];
    // SAFETY: `out` owns `n * size_of::<usize>()` writable bytes,
    // matching the source length; distinct allocations cannot overlap.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
    }
    Some(out)
}

/// Reads a little-endian `u64` field at `offset`, if in bounds.
pub fn read_u64(bytes: &[u8], offset: usize) -> Option<u64> {
    let end = offset.checked_add(8)?;
    let field = bytes.get(offset..end)?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(field);
    Some(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_APPLY, b"hello").unwrap();
        let (op, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(op, OP_APPLY);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn vectored_frame_matches_contiguous() {
        let mut a = Vec::new();
        write_frame(&mut a, OP_LOAD, b"abcdef").unwrap();
        let mut b = Vec::new();
        write_frame_vectored(&mut b, OP_LOAD, &[b"abc", b"", b"def"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_SNAPSHOT, &[]).unwrap();
        let (op, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(op, OP_SNAPSHOT);
        assert!(payload.is_empty());
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_APPLY, &[1, 2, 3, 4]).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&mut buf.as_slice()).is_err());
        // header alone cut short
        assert!(read_frame(&mut [OP_APPLY, 9].as_slice()).is_err());
    }

    #[test]
    fn forged_header_short_reads_without_eager_allocation() {
        // A hostile peer announces just under MAX_FRAME but delivers
        // only a handful of bytes. The old codec allocated the full
        // announced length before reading; the chunked reader must
        // instead surface the short read after at most one chunk.
        let mut buf = vec![OP_APPLY];
        buf.extend_from_slice(&(MAX_FRAME - 1).to_le_bytes());
        buf.extend_from_slice(&[0xab; 64]);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn per_opcode_cap_rejects_before_reading_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_APPLY, &[0u8; 128]).unwrap();
        let err = read_frame_capped(&mut buf.as_slice(), |op| {
            if op == OP_APPLY {
                64
            } else {
                MAX_FRAME
            }
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap 64"), "{err}");
        // The same frame passes once the cap admits it.
        let (op, payload) = read_frame_capped(&mut buf.as_slice(), |_| 128).unwrap();
        assert_eq!(op, OP_APPLY);
        assert_eq!(payload.len(), 128);
    }

    #[test]
    fn multi_chunk_payload_roundtrips() {
        // Exercise the incremental-growth path with a payload spanning
        // several READ_CHUNK steps (plus a ragged tail).
        let big: Vec<u8> = (0..(READ_CHUNK * 2 + 37))
            .map(|i| (i % 251) as u8)
            .collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_LOAD, &big).unwrap();
        let (op, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(op, OP_LOAD);
        assert_eq!(payload, big);
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = vec![OP_APPLY];
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn f64_bytes_roundtrip_bitwise() {
        let v = vec![0.1, -2.5, f64::MIN_POSITIVE, 1e300, -0.0];
        let bytes = f64s_as_bytes(&v);
        assert_eq!(bytes.len(), v.len() * 8);
        let back = bytes_to_f64s(bytes).unwrap();
        for (a, b) in v.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut reused = vec![9.0; 2];
        assert!(bytes_into_f64s(bytes, &mut reused));
        assert_eq!(reused.len(), v.len());
        assert_eq!(reused[3], 1e300);
    }

    #[test]
    fn int_bytes_roundtrip() {
        let u = vec![0u32, 7, u32::MAX];
        assert_eq!(bytes_to_u32s(u32s_as_bytes(&u)).unwrap(), u);
        let s = vec![0usize, 42, usize::MAX];
        assert_eq!(bytes_to_usizes(usizes_as_bytes(&s)).unwrap(), s);
    }

    #[test]
    fn misaligned_lengths_are_rejected() {
        assert!(bytes_to_f64s(&[0u8; 7]).is_none());
        assert!(bytes_to_u32s(&[0u8; 6]).is_none());
        assert!(bytes_to_usizes(&[0u8; 3]).is_none());
        let mut out = Vec::new();
        assert!(!bytes_into_f64s(&[0u8; 9], &mut out));
    }

    #[test]
    fn trace_ctx_payload_roundtrip() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&0xfeed_u64.to_le_bytes());
        payload.extend_from_slice(&0xbeef_u64.to_le_bytes());
        payload.extend_from_slice(&123_456_789_u64.to_le_bytes());
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_TRACE_CTX, &payload).unwrap();
        let (op, back) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(op, OP_TRACE_CTX);
        assert_eq!(read_u64(&back, 0), Some(0xfeed));
        assert_eq!(read_u64(&back, 8), Some(0xbeef));
        assert_eq!(read_u64(&back, 16), Some(123_456_789));
        assert_eq!(read_u64(&back, 24), None, "exactly three fields");
    }

    #[test]
    fn trace_opcodes_are_distinct() {
        let ops = [
            OP_LOAD,
            OP_APPLY,
            OP_APPLY_MULTI,
            OP_STAGE,
            OP_SNAPSHOT,
            OP_SHUTDOWN,
            OP_TRACE_CTX,
            OP_TRACE_DRAIN,
        ];
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let replies = [
            REPLY_ACK,
            REPLY_DATA,
            REPLY_SNAPSHOT,
            REPLY_TRACE,
            REPLY_ERR,
        ];
        for (i, a) in replies.iter().enumerate() {
            for b in &replies[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn read_u64_bounds() {
        let mut bytes = vec![0u8; 16];
        bytes[8..16].copy_from_slice(&77u64.to_le_bytes());
        assert_eq!(read_u64(&bytes, 8), Some(77));
        assert_eq!(read_u64(&bytes, 9), None);
        assert_eq!(read_u64(&bytes, usize::MAX), None);
    }
}
