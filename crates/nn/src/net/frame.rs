//! Wire framing and message codec for the serving protocol.
//!
//! # Frame layout
//!
//! Every frame on the wire is a `u32` little-endian length prefix followed
//! by that many payload bytes. The prefix counts the payload only — not
//! itself — and must be at least 1 (the opcode) and at most the
//! connection's frame limit ([`DEFAULT_MAX_FRAME`] unless configured).
//!
//! ```text
//! +----------------+---------------------------+
//! | len: u32 LE    | payload: len bytes        |
//! +----------------+---------------------------+
//!                    ^ payload[0] = opcode
//! ```
//!
//! # Payloads
//!
//! All integers are little-endian; floats are IEEE-754 `f32` bit patterns.
//! Request opcodes have the high bit clear, replies have it set.
//!
//! | opcode | message      | body |
//! |--------|--------------|------|
//! | `0x01` | INFER        | `req_id: u64`, `deadline_us: u32`, `rank: u8`, `rank × dim: u32`, `prod(dims) × f32` |
//! | `0x02` | PING         | empty |
//! | `0x03` | STATS        | empty |
//! | `0x04` | SHUTDOWN     | empty |
//! | `0x05` | RELOAD       | `path_len: u16`, `path_len` UTF-8 bytes |
//! | `0x81` | INFER_OK     | `req_id: u64`, `flags: u8`, `rank: u8`, `rank × dim: u32`, `prod(dims) × f32` |
//! | `0x82` | INFER_ERR    | `req_id: u64`, `code: u8`, `retry_after_us: u32`, `msg_len: u16`, `msg_len` UTF-8 bytes |
//! | `0x83` | PONG         | empty |
//! | `0x84` | STATS_REPLY  | `count: u16`, `count × counter: u64` (see [`stats`]) |
//! | `0x85` | SHUTDOWN_ACK | empty |
//! | `0x86` | RELOAD_REPLY | `ok: u8`, `generation: u64`, `msg_len: u16`, `msg_len` UTF-8 bytes |
//!
//! An INFER's dims describe **one sample** (no batch axis — the server owns
//! batching); `req_id` is an opaque caller token echoed in the matching
//! reply, letting clients pipeline requests and match replies out of order.
//! A reply is exactly one of INFER_OK / INFER_ERR per INFER, in completion
//! order, not submission order. `deadline_us` is the request's time budget
//! in microseconds measured from server admission, `0` meaning "use the
//! server's default"; a request the server cannot execute inside its budget
//! is shed with [`ErrCode::DeadlineExceeded`] instead of running late.
//!
//! INFER_OK's `flags` byte carries per-reply serving metadata: bit 0 set
//! means the reply was computed by the server's *degraded* (brownout)
//! fallback plan rather than the primary. Unknown flag bits are reserved
//! and must be ignored by clients. INFER_ERR's `retry_after_us` is the
//! server's backlog-clearance hint for [`ErrCode::Overloaded`]-family
//! sheds — how long (µs) a well-behaved client should wait before
//! retrying; `0` means "no hint". STATS_REPLY is a length-prefixed
//! counter list so servers can append counters without breaking older
//! clients: indices are fixed forever (see [`stats`]), readers ignore
//! counters past the ones they know and zero-fill counters the server
//! has not sent.
//!
//! RELOAD asks the server to hot-swap its plan snapshot: an empty `path`
//! means "re-map the snapshot the server was started from", a non-empty
//! path names the replacement `.daplan`. The reply carries `ok` (1 = the
//! swap happened), the now-current plan generation, and a diagnostic
//! message on failure — a rejected reload (corrupt or unreadable
//! replacement) leaves the previous plans serving.
//!
//! # Hostile-input posture
//!
//! [`decode`] never trusts a length it has not bounded: rank is capped at
//! [`MAX_RANK`], the element count is recomputed with checked arithmetic,
//! and every field's extent is validated against the actual payload size
//! *before* any allocation — the same discipline as the snapshot reader.
//! Trailing bytes after a well-formed body are a protocol error, so a
//! corrupted length prefix cannot silently mis-frame the stream.

use std::collections::VecDeque;

/// Default per-connection frame ceiling: 16 MiB, comfortably above any
/// single-sample tensor this workspace serves while keeping one hostile
/// length prefix from reserving unbounded memory.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Maximum tensor rank a frame may carry (matches the tensor crate's
/// practical ceiling; serving uses rank ≤ 4).
pub const MAX_RANK: usize = 8;

/// Upper bound on the STATS_REPLY counter count — far above anything the
/// server emits, low enough that a hostile prefix cannot reserve memory.
pub const MAX_STATS_COUNTERS: usize = 256;

/// Fixed counter indices for the STATS_REPLY list. Positions are
/// append-only wire ABI: new counters take the next index, existing ones
/// never move, so an old client reading a new server simply ignores the
/// tail (and a new client reading an old server zero-fills it).
pub mod stats {
    /// Batches dispatched to workers.
    pub const BATCHES: usize = 0;
    /// Items served across all batches.
    pub const ITEMS: usize = 1;
    /// Reserved, always 0: the slot of a removed flush-deadline gauge.
    /// Indices are append-only ABI, so it is never reused.
    pub const FLUSH_DEADLINE_NS: usize = 2;
    /// Worker panics survived by respawn.
    pub const WORKER_RESTARTS: usize = 3;
    /// Requests shed because their deadline passed before execution.
    pub const DEADLINE_EXPIRED: usize = 4;
    /// Plan generation (bumps on every successful hot reload).
    pub const GENERATION: usize = 5;
    /// Requests shed by admission-time overload control.
    pub const SHED_TOTAL: usize = 6;
    /// Items answered by the degraded (brownout) fallback plan.
    pub const DEGRADED_TOTAL: usize = 7;
    /// Requests refused by the token-bucket rate limiter.
    pub const RATE_LIMITED: usize = 8;
    /// EWMA of per-item service time, nanoseconds (0 until warmed up).
    pub const EWMA_SERVICE_NS: usize = 9;
    /// Hot reloads rejected (corrupt, unreadable, or shape-incompatible).
    pub const RELOADS_REJECTED: usize = 10;
    /// Number of counters the current server emits.
    pub const COUNT: usize = 11;
}

/// Why a frame or payload was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Length prefix exceeds the connection's frame limit.
    Oversized { len: usize, max: usize },
    /// Length prefix was zero — a frame must at least carry an opcode.
    Empty,
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// The body does not match the opcode's layout (truncated field,
    /// trailing bytes, rank/dims out of bounds, bad UTF-8 …).
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds limit of {max}")
            }
            FrameError::Empty => write!(f, "zero-length frame"),
            FrameError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Machine-readable failure category carried by INFER_ERR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrCode {
    /// Server overloaded and the request was shed (clients may retry).
    Overloaded = 1,
    /// Server is draining; no new work is accepted.
    ShuttingDown = 2,
    /// The plan rejected the request (e.g. shape mismatch with the model).
    Execution = 3,
    /// The client violated the wire protocol; the connection closes after
    /// this reply.
    Protocol = 4,
    /// The request's deadline passed before it could execute; it was shed
    /// without running (retrying with a larger budget may succeed).
    DeadlineExceeded = 5,
}

impl ErrCode {
    fn from_u8(v: u8) -> Option<ErrCode> {
        match v {
            1 => Some(ErrCode::Overloaded),
            2 => Some(ErrCode::ShuttingDown),
            3 => Some(ErrCode::Execution),
            4 => Some(ErrCode::Protocol),
            5 => Some(ErrCode::DeadlineExceeded),
            _ => None,
        }
    }
}

/// A decoded protocol message (request or reply).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Run one sample through the model. `deadline_us` is the request's
    /// time budget in microseconds from admission (`0` = server default).
    Infer { req_id: u64, deadline_us: u32, shape: Vec<usize>, data: Vec<f32> },
    /// Liveness probe.
    Ping,
    /// Ask for serving statistics.
    Stats,
    /// Ask the server to drain in-flight work and exit.
    Shutdown,
    /// Hot-swap the served plan snapshot (empty `path` = the snapshot the
    /// server was started from).
    Reload { path: String },
    /// Logits for the matching `Infer`. `degraded` is set when the reply
    /// was computed by the server's brownout fallback plan.
    InferOk { req_id: u64, degraded: bool, shape: Vec<usize>, data: Vec<f32> },
    /// The matching `Infer` failed; `req_id` 0 marks connection-level
    /// protocol errors that have no request to blame. `retry_after_us` is
    /// the server's retry hint for overload sheds (`0` = no hint).
    InferErr { req_id: u64, code: ErrCode, retry_after_us: u32, msg: String },
    /// Reply to `Ping`.
    Pong,
    /// Reply to `Stats`: the counter list, indexed per [`stats`].
    StatsReply { counters: Vec<u64> },
    /// Reply to `Shutdown`: drain has begun.
    ShutdownAck,
    /// Reply to `Reload`: whether the swap happened, the now-current plan
    /// generation, and a diagnostic message when it did not.
    ReloadReply { ok: bool, generation: u64, msg: String },
}

const OP_INFER: u8 = 0x01;
const OP_PING: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;
const OP_RELOAD: u8 = 0x05;
const OP_INFER_OK: u8 = 0x81;
const OP_INFER_ERR: u8 = 0x82;
const OP_PONG: u8 = 0x83;
const OP_STATS_REPLY: u8 = 0x84;
const OP_SHUTDOWN_ACK: u8 = 0x85;
const OP_RELOAD_REPLY: u8 = 0x86;

/// INFER_OK `flags` bit 0: reply served by the degraded fallback plan.
const FLAG_DEGRADED: u8 = 0x01;

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

fn put_tensor_body(out: &mut Vec<u8>, shape: &[usize], data: &[f32]) {
    assert!(shape.len() <= MAX_RANK, "tensor rank {} exceeds wire limit", shape.len());
    out.push(shape.len() as u8);
    for &d in shape {
        let d = u32::try_from(d).expect("dimension fits the wire format");
        out.extend_from_slice(&d.to_le_bytes());
    }
    debug_assert_eq!(shape.iter().product::<usize>(), data.len());
    for &v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encode a message as a complete frame (length prefix included).
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut payload = Vec::new();
    match msg {
        Message::Infer { req_id, deadline_us, shape, data } => {
            payload.push(OP_INFER);
            payload.extend_from_slice(&req_id.to_le_bytes());
            payload.extend_from_slice(&deadline_us.to_le_bytes());
            put_tensor_body(&mut payload, shape, data);
        }
        Message::InferOk { req_id, degraded, shape, data } => {
            payload.push(OP_INFER_OK);
            payload.extend_from_slice(&req_id.to_le_bytes());
            payload.push(u8::from(*degraded) & FLAG_DEGRADED);
            put_tensor_body(&mut payload, shape, data);
        }
        Message::InferErr { req_id, code, retry_after_us, msg } => {
            payload.push(OP_INFER_ERR);
            payload.extend_from_slice(&req_id.to_le_bytes());
            payload.push(*code as u8);
            payload.extend_from_slice(&retry_after_us.to_le_bytes());
            put_str(&mut payload, msg);
        }
        Message::Ping => payload.push(OP_PING),
        Message::Pong => payload.push(OP_PONG),
        Message::Stats => payload.push(OP_STATS),
        Message::StatsReply { counters } => {
            assert!(counters.len() <= MAX_STATS_COUNTERS, "stats counter list too long");
            payload.push(OP_STATS_REPLY);
            payload.extend_from_slice(&(counters.len() as u16).to_le_bytes());
            for &c in counters {
                payload.extend_from_slice(&c.to_le_bytes());
            }
        }
        Message::Shutdown => payload.push(OP_SHUTDOWN),
        Message::ShutdownAck => payload.push(OP_SHUTDOWN_ACK),
        Message::Reload { path } => {
            payload.push(OP_RELOAD);
            put_str(&mut payload, path);
        }
        Message::ReloadReply { ok, generation, msg } => {
            payload.push(OP_RELOAD_REPLY);
            payload.push(u8::from(*ok));
            payload.extend_from_slice(&generation.to_le_bytes());
            put_str(&mut payload, msg);
        }
    }
    // A silent `as u32` here would mis-frame the stream for any payload of
    // 4 GiB or more; failing loudly is the only safe option on a protocol
    // whose prefix cannot represent the length.
    let len = u32::try_from(payload.len()).expect("frame payload exceeds the u32 length prefix");
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Bounds-checked little-endian reader over a payload (the snapshot
/// reader's `MetaCursor`, specialised to the wire format).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(FrameError::Malformed("truncated field"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Length-prefixed UTF-8 string (`len: u16`, `len` bytes).
    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        Ok(std::str::from_utf8(bytes)
            .map_err(|_| FrameError::Malformed("string is not UTF-8"))?
            .to_string())
    }

    fn finish(&self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes after body"))
        }
    }

    /// Tensor body: rank, dims, floats. Every extent is validated against
    /// the bytes actually present before the data vector is allocated.
    fn tensor(&mut self) -> Result<(Vec<usize>, Vec<f32>), FrameError> {
        let rank = self.u8()? as usize;
        if rank > MAX_RANK {
            return Err(FrameError::Malformed("rank exceeds limit"));
        }
        let mut shape = Vec::with_capacity(rank);
        let mut elems: usize = 1;
        for _ in 0..rank {
            let d = self.u32()? as usize;
            elems = elems.checked_mul(d).ok_or(FrameError::Malformed("dims overflow"))?;
            shape.push(d);
        }
        // The remaining bytes must be exactly elems f32s — checked before
        // allocating, so a huge claimed dim on a short payload costs
        // nothing.
        let remaining = self.buf.len() - self.pos;
        if remaining != elems.checked_mul(4).ok_or(FrameError::Malformed("dims overflow"))? {
            return Err(FrameError::Malformed("data length mismatches dims"));
        }
        let bytes = self.take(remaining)?;
        let data = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        Ok((shape, data))
    }
}

/// Decode one frame payload (everything after the length prefix).
pub fn decode(payload: &[u8]) -> Result<Message, FrameError> {
    if payload.is_empty() {
        return Err(FrameError::Empty);
    }
    let mut c = Cursor { buf: payload, pos: 1 };
    let msg = match payload[0] {
        OP_INFER => {
            let req_id = c.u64()?;
            let deadline_us = c.u32()?;
            let (shape, data) = c.tensor()?;
            Message::Infer { req_id, deadline_us, shape, data }
        }
        OP_INFER_OK => {
            let req_id = c.u64()?;
            // Unknown flag bits are reserved-and-ignored so a newer server
            // can annotate replies without breaking this client.
            let flags = c.u8()?;
            let (shape, data) = c.tensor()?;
            Message::InferOk { req_id, degraded: flags & FLAG_DEGRADED != 0, shape, data }
        }
        OP_INFER_ERR => {
            let req_id = c.u64()?;
            let code =
                ErrCode::from_u8(c.u8()?).ok_or(FrameError::Malformed("unknown error code"))?;
            let retry_after_us = c.u32()?;
            let msg = c.string()?;
            Message::InferErr { req_id, code, retry_after_us, msg }
        }
        OP_PING => Message::Ping,
        OP_PONG => Message::Pong,
        OP_STATS => Message::Stats,
        OP_STATS_REPLY => {
            let count = c.u16()? as usize;
            if count > MAX_STATS_COUNTERS {
                return Err(FrameError::Malformed("stats counter count exceeds limit"));
            }
            // Validate the full extent before allocating: count × 8 bytes
            // must be exactly what remains.
            if c.buf.len() - c.pos != count * 8 {
                return Err(FrameError::Malformed("stats counter list length mismatch"));
            }
            let mut counters = Vec::with_capacity(count);
            for _ in 0..count {
                counters.push(c.u64()?);
            }
            Message::StatsReply { counters }
        }
        OP_SHUTDOWN => Message::Shutdown,
        OP_SHUTDOWN_ACK => Message::ShutdownAck,
        OP_RELOAD => Message::Reload { path: c.string()? },
        OP_RELOAD_REPLY => {
            let ok = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(FrameError::Malformed("reload ok flag out of range")),
            };
            let generation = c.u64()?;
            let msg = c.string()?;
            Message::ReloadReply { ok, generation, msg }
        }
        op => return Err(FrameError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(msg)
}

/// Incremental frame extractor for a non-blocking byte stream.
///
/// Feed whatever `read` returned with [`push`](FrameDecoder::push); pull
/// complete payloads with [`next_payload`](FrameDecoder::next_payload). A
/// partial prefix or partial body simply yields `None` until more bytes
/// arrive — the reactor's answer to short reads. An oversized length
/// prefix is reported *immediately*, before the body arrives, so a hostile
/// prefix cannot make the server buffer toward a limit it will never
/// accept.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: VecDeque<u8>,
    /// Parsed-but-unconsumed body length, once the prefix is complete.
    pending_len: Option<usize>,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append bytes received from the peer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend(bytes);
    }

    /// Bytes buffered but not yet returned as a payload.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Extract the next complete payload, if the buffer holds one.
    ///
    /// `max_frame` bounds the length prefix; violations are sticky in the
    /// sense that the caller is expected to close the connection (the
    /// decoder does not resynchronise — there is no framing to recover on
    /// a length-prefixed stream with a corrupt prefix).
    pub fn next_payload(&mut self, max_frame: usize) -> Result<Option<Vec<u8>>, FrameError> {
        let len = match self.pending_len {
            Some(len) => len,
            None => {
                if self.buf.len() < 4 {
                    return Ok(None);
                }
                let mut prefix = [0u8; 4];
                for (i, slot) in prefix.iter_mut().enumerate() {
                    *slot = self.buf[i];
                }
                let len = u32::from_le_bytes(prefix) as usize;
                if len == 0 {
                    return Err(FrameError::Empty);
                }
                if len > max_frame {
                    return Err(FrameError::Oversized { len, max: max_frame });
                }
                self.buf.drain(..4);
                self.pending_len = Some(len);
                len
            }
        };
        if self.buf.len() < len {
            return Ok(None);
        }
        self.pending_len = None;
        Ok(Some(self.buf.drain(..len).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let frame = encode(&msg);
        let (prefix, payload) = frame.split_at(4);
        let len = u32::from_le_bytes(prefix.try_into().expect("prefix")) as usize;
        assert_eq!(len, payload.len());
        assert_eq!(decode(payload).expect("decodes"), msg);
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(Message::Infer {
            req_id: 7,
            deadline_us: 0,
            shape: vec![1, 8, 8],
            data: (0..64).map(|i| i as f32 * 0.5).collect(),
        });
        round_trip(Message::Infer {
            req_id: 8,
            deadline_us: u32::MAX,
            shape: vec![2],
            data: vec![1.0, 2.0],
        });
        round_trip(Message::InferOk {
            req_id: u64::MAX,
            degraded: false,
            shape: vec![10],
            data: vec![0.0; 10],
        });
        round_trip(Message::InferOk {
            req_id: 9,
            degraded: true,
            shape: vec![2],
            data: vec![1.5, -2.5],
        });
        round_trip(Message::InferErr {
            req_id: 3,
            code: ErrCode::Execution,
            retry_after_us: 0,
            msg: "shape mismatch".into(),
        });
        round_trip(Message::InferErr {
            req_id: 4,
            code: ErrCode::DeadlineExceeded,
            retry_after_us: 0,
            msg: "deadline exceeded".into(),
        });
        round_trip(Message::InferErr {
            req_id: 5,
            code: ErrCode::Overloaded,
            retry_after_us: 12_500,
            msg: "queue would blow the deadline".into(),
        });
        round_trip(Message::Ping);
        round_trip(Message::Pong);
        round_trip(Message::Stats);
        round_trip(Message::StatsReply { counters: vec![] });
        round_trip(Message::StatsReply { counters: vec![1, 9, 250_000, 2, 3, 4] });
        round_trip(Message::StatsReply { counters: (0..stats::COUNT as u64).collect() });
        round_trip(Message::Shutdown);
        round_trip(Message::ShutdownAck);
        round_trip(Message::Reload { path: String::new() });
        round_trip(Message::Reload { path: "/tmp/replacement.daplan".into() });
        round_trip(Message::ReloadReply { ok: true, generation: 5, msg: String::new() });
        round_trip(Message::ReloadReply {
            ok: false,
            generation: 2,
            msg: "checksum mismatch".into(),
        });
    }

    #[test]
    fn scalar_tensor_round_trips() {
        // Rank 0: product of no dims is 1 element.
        round_trip(Message::Infer { req_id: 1, deadline_us: 0, shape: vec![], data: vec![4.25] });
    }

    #[test]
    fn hostile_reload_frames_are_rejected() {
        // ok flag out of range.
        let mut p = vec![OP_RELOAD_REPLY];
        p.push(2);
        p.extend_from_slice(&0_u64.to_le_bytes());
        p.extend_from_slice(&0_u16.to_le_bytes());
        assert!(matches!(decode(&p), Err(FrameError::Malformed(_))));

        // Path length prefix longer than the payload.
        let mut p = vec![OP_RELOAD];
        p.extend_from_slice(&64_u16.to_le_bytes());
        p.push(b'x');
        assert!(matches!(decode(&p), Err(FrameError::Malformed(_))));

        // Non-UTF-8 path.
        let mut p = vec![OP_RELOAD];
        p.extend_from_slice(&2_u16.to_le_bytes());
        p.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(decode(&p), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn unknown_infer_ok_flag_bits_are_ignored() {
        // A newer server setting reserved flag bits must not break this
        // decoder — bit 0 is read, the rest are ignored.
        let frame = encode(&Message::InferOk {
            req_id: 11,
            degraded: false,
            shape: vec![1],
            data: vec![3.0],
        });
        let mut payload = frame[4..].to_vec();
        payload[9] = 0xfe; // flags byte: every reserved bit set, bit 0 clear
        match decode(&payload).expect("decodes despite reserved flags") {
            Message::InferOk { req_id, degraded, .. } => {
                assert_eq!(req_id, 11);
                assert!(!degraded);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn stats_reply_tolerates_counters_this_build_does_not_know() {
        // Forward compatibility: a server two versions ahead sends more
        // counters than `stats::COUNT`; the decode must still succeed.
        let future = Message::StatsReply { counters: (0..stats::COUNT as u64 + 7).collect() };
        round_trip(future);
    }

    #[test]
    fn hostile_stats_replies_are_rejected() {
        // Counter count larger than the payload actually carries.
        let mut p = vec![OP_STATS_REPLY];
        p.extend_from_slice(&4_u16.to_le_bytes());
        p.extend_from_slice(&7_u64.to_le_bytes());
        assert!(matches!(decode(&p), Err(FrameError::Malformed(_))));

        // Count over the hard cap is rejected before any allocation.
        let mut p = vec![OP_STATS_REPLY];
        p.extend_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(decode(&p), Err(FrameError::Malformed(_))));

        // Trailing bytes beyond the declared counters.
        let mut p = vec![OP_STATS_REPLY];
        p.extend_from_slice(&1_u16.to_le_bytes());
        p.extend_from_slice(&7_u64.to_le_bytes());
        p.push(0xaa);
        assert!(matches!(decode(&p), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn nonfinite_floats_survive_the_wire_bit_for_bit() {
        let data = vec![f32::NAN, f32::INFINITY, -0.0, f32::MIN_POSITIVE];
        let frame = encode(&Message::InferOk {
            req_id: 2,
            degraded: false,
            shape: vec![4],
            data: data.clone(),
        });
        match decode(&frame[4..]).expect("decodes") {
            Message::InferOk { data: got, .. } => {
                let want: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                let have: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(want, have);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn decoder_handles_byte_at_a_time_delivery() {
        let msg = Message::Infer {
            req_id: 42,
            deadline_us: 1_000,
            shape: vec![2, 3],
            data: vec![1.0; 6],
        };
        let frame = encode(&msg);
        let mut dec = FrameDecoder::new();
        for (i, b) in frame.iter().enumerate() {
            dec.push(&[*b]);
            let got = dec.next_payload(DEFAULT_MAX_FRAME).expect("no error");
            if i + 1 < frame.len() {
                assert!(got.is_none(), "frame completed early at byte {i}");
            } else {
                let payload = got.expect("complete at last byte");
                assert_eq!(decode(&payload).expect("decodes"), msg);
            }
        }
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_extracts_back_to_back_frames_from_one_read() {
        let a = encode(&Message::Ping);
        let b = encode(&Message::Stats);
        let mut dec = FrameDecoder::new();
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        dec.push(&joined);
        let p1 = dec.next_payload(DEFAULT_MAX_FRAME).expect("ok").expect("first");
        let p2 = dec.next_payload(DEFAULT_MAX_FRAME).expect("ok").expect("second");
        assert_eq!(decode(&p1).expect("decodes"), Message::Ping);
        assert_eq!(decode(&p2).expect("decodes"), Message::Stats);
        assert!(dec.next_payload(DEFAULT_MAX_FRAME).expect("ok").is_none());
    }

    #[test]
    fn oversized_prefix_is_rejected_before_the_body_arrives() {
        let mut dec = FrameDecoder::new();
        dec.push(&(1_u32 << 30).to_le_bytes());
        match dec.next_payload(DEFAULT_MAX_FRAME) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, 1 << 30);
                assert_eq!(max, DEFAULT_MAX_FRAME);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let mut dec = FrameDecoder::new();
        dec.push(&0_u32.to_le_bytes());
        assert_eq!(dec.next_payload(DEFAULT_MAX_FRAME), Err(FrameError::Empty));
    }

    #[test]
    fn hostile_payloads_are_rejected_without_allocation_or_panic() {
        // Claimed rank exceeds the limit.
        let mut p = vec![OP_INFER];
        p.extend_from_slice(&1_u64.to_le_bytes());
        p.extend_from_slice(&0_u32.to_le_bytes()); // deadline_us
        p.push(9);
        assert!(matches!(decode(&p), Err(FrameError::Malformed(_))));

        // Huge dim on a short payload: checked_mul + length comparison
        // rejects before any data vector exists.
        let mut p = vec![OP_INFER];
        p.extend_from_slice(&1_u64.to_le_bytes());
        p.extend_from_slice(&0_u32.to_le_bytes()); // deadline_us
        p.push(2);
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&p), Err(FrameError::Malformed(_))));

        // Truncated: rank says 2 dims but only one is present.
        let mut p = vec![OP_INFER];
        p.extend_from_slice(&1_u64.to_le_bytes());
        p.extend_from_slice(&0_u32.to_le_bytes()); // deadline_us
        p.push(2);
        p.extend_from_slice(&4_u32.to_le_bytes());
        assert!(matches!(decode(&p), Err(FrameError::Malformed(_))));

        // Trailing garbage after a well-formed PING body.
        assert!(matches!(decode(&[OP_PING, 0xff]), Err(FrameError::Malformed(_))));

        // Unknown opcode.
        assert!(matches!(decode(&[0x7f]), Err(FrameError::UnknownOpcode(0x7f))));

        // Error message that is not UTF-8.
        let mut p = vec![OP_INFER_ERR];
        p.extend_from_slice(&1_u64.to_le_bytes());
        p.push(ErrCode::Protocol as u8);
        p.extend_from_slice(&0_u32.to_le_bytes()); // retry_after_us
        p.extend_from_slice(&2_u16.to_le_bytes());
        p.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(decode(&p), Err(FrameError::Malformed(_))));

        // Data length disagrees with dims.
        let mut p = vec![OP_INFER];
        p.extend_from_slice(&1_u64.to_le_bytes());
        p.extend_from_slice(&0_u32.to_le_bytes()); // deadline_us
        p.push(1);
        p.extend_from_slice(&2_u32.to_le_bytes());
        p.extend_from_slice(&1.0_f32.to_le_bytes()); // dims say 2 floats
        assert!(matches!(decode(&p), Err(FrameError::Malformed(_))));
    }
}
