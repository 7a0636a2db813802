//! Binary [`CheckEvent`] traces — format **v4**,
//! the archive format for full-scale runs (`.sbt`, "sharc binary
//! trace").
//!
//! The v3 text format ([`crate::trace`]) spends ~14 bytes per
//! event; at the 10⁷–10⁸ events of a stunnel-fleet run that is
//! gigabytes of decimal digits, most of them repeating the same tid
//! and nearly the same granule line after line. v4 stores the same
//! linearization bit-exactly in a fraction of the space:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SBT4"
//! 4       1     version (4)
//! 5       3     reserved (zero)
//! 8       4     max tid              (little-endian u32)
//! 12      4     shard count          (of the max tid; not read back)
//! 16      8     event count          (little-endian u64)
//! 24      8     granule span         (little-endian u64)
//! 32      …     per-thread blocks
//! …       …     block index footer
//! end-12  8     footer offset        (little-endian u64)
//! end-4   4     end magic  b"4TBS"
//! ```
//!
//! **Per-thread blocks.** The event stream is cut into maximal runs
//! of events with the same [`recording_tid`] — the bursts a real
//! workload emits — so the tid is paid once per run, not once per
//! event. A block is `uleb(tid) uleb(count)` followed by `count`
//! events; blocks in file order concatenate to exactly the recorded
//! linearization, which is what keeps replay verdicts bit-identical
//! to the text file (no per-event sequence numbers, no reordering).
//!
//! **Per-event encoding.** One opcode byte, then LEB128 varint
//! operands. Granules are delta-encoded: each block carries a granule
//! register (starting at 0) and every granule operand is the
//! zigzag-LEB128 difference from the previous granule in the same
//! block — a thread sweeping a buffer pays one byte per event.
//! Lengths, refcounts, lock ids, and fork/join child tids are plain
//! LEB128 (they are small in practice). `exit` is the opcode alone
//! and `fork`/`join` spell only the child: the block tid already
//! names the event's own tid, exactly as [`recording_tid`] defines
//! it.
//!
//! **Block index footer.** `uleb(n)` then one `uleb(offset-delta)
//! uleb(tid) uleb(count)` triple per block, offsets relative to the
//! previous block's start (the first is absolute), so a reader could
//! jump to any block without decoding its predecessors; the trailer
//! locates the footer from the end of the file alone. The decoder
//! reads the blocks in file order and holds the index to them: as it
//! enters block *k* it checks triple *k*'s offset, tid and count
//! against the block, and after the last block no triple and no footer
//! byte may remain.
//!
//! [`events`] is zero-copy: it borrows the byte slice (read, mapped,
//! or in memory), validates the framing once, and decodes events on
//! demand, refusing — naming the block — any event the replay fold
//! could not survive (a tid outside `1..=`[`crate::MAX_TID`], an
//! overflowing range, a shadow over [`crate::MAX_TRACE_SHADOW_BYTES`]),
//! exactly as the text parser does, and ending with an error if the
//! blocks do not hold the event count the header promises.
//! Round-tripping is exact in both directions and pinned by the
//! property tests below: `parse_binary ∘ to_binary` is the identity
//! on any event vector, and text→binary→text reproduces the v3 file
//! byte-for-byte.
//!
//! [`recording_tid`]: crate::sink::recording_tid

use crate::backend::{max_trace_tid, trace_granule_span, CheckEvent};
use crate::geometry::ShadowGeometry;
use crate::sink::recording_tid;
use crate::trace::{collect, Admission};

/// Leading magic of a v4 binary trace (`sharc trace` and `sharc
/// replay` sniff this to tell binary from text).
pub const BTRACE_MAGIC: [u8; 4] = *b"SBT4";
/// Trailing magic, after the footer-offset word.
pub const BTRACE_END_MAGIC: [u8; 4] = *b"4TBS";
/// The format version this module reads and writes.
pub const BTRACE_VERSION: u8 = 4;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;
/// Fixed trailer size in bytes (footer offset + end magic).
pub const TRAILER_LEN: usize = 12;

// Opcodes, one byte per event. The numbering is part of the on-disk
// format: append only, never renumber.
const OP_READ: u8 = 0;
const OP_WRITE: u8 = 1;
const OP_RANGE_READ: u8 = 2;
const OP_RANGE_WRITE: u8 = 3;
const OP_LOCKED: u8 = 4;
const OP_CAST: u8 = 5;
const OP_RANGE_CAST: u8 = 6;
const OP_RANGE_FREE: u8 = 7;
const OP_ACQUIRE: u8 = 8;
const OP_RELEASE: u8 = 9;
const OP_FORK: u8 = 10;
const OP_JOIN: u8 = 11;
const OP_EXIT: u8 = 12;
const OP_ALLOC: u8 = 13;

/// True if `bytes` starts like a v4 binary trace. A text trace can
/// never collide: its first byte is `#`, a keyword letter, or
/// whitespace, none of which is `S` followed by `BT4`… within the
/// trace vocabulary.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == BTRACE_MAGIC
}

/// Where the encoder writes: the output buffer, or a [`Tally`] that
/// sizes it first.
trait ByteOut {
    fn push(&mut self, byte: u8);
    fn extend_from_slice(&mut self, bytes: &[u8]);
    fn len(&self) -> usize;

    /// Writes `v` as unsigned LEB128.
    fn uleb(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.push(byte);
                return;
            }
            self.push(byte | 0x80);
        }
    }
}

impl ByteOut for Vec<u8> {
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
    fn len(&self) -> usize {
        Vec::len(self)
    }
}

/// Counts the bytes an encoding would write, and writes none.
struct Tally(usize);

impl ByteOut for Tally {
    fn push(&mut self, _: u8) {
        self.0 += 1;
    }
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    fn len(&self) -> usize {
        self.0
    }
    fn uleb(&mut self, v: u64) {
        // Seven payload bits a byte, and at least one byte.
        self.0 += (64 - (v | 1).leading_zeros() as usize).div_ceil(7);
    }
}

fn write_granule_delta(out: &mut impl ByteOut, prev: &mut i64, granule: usize) {
    let g = granule as i64;
    let delta = g.wrapping_sub(*prev);
    *prev = g;
    // Zigzag: small negative deltas stay one byte.
    out.uleb(((delta << 1) ^ (delta >> 63)) as u64);
}

fn read_uleb(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| format!("truncated varint at byte {}", *pos))?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err(format!("varint overflow at byte {}", *pos - 1));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn read_granule_delta(bytes: &[u8], pos: &mut usize, prev: &mut i64) -> Result<usize, String> {
    let z = read_uleb(bytes, pos)?;
    let delta = ((z >> 1) as i64) ^ -((z & 1) as i64);
    let g = prev.wrapping_add(delta);
    if g < 0 {
        return Err(format!("granule delta underflows below zero at byte {pos}"));
    }
    *prev = g;
    Ok(g as usize)
}

/// Encodes `events` in the v4 binary framing. Deterministic: the
/// same event vector always produces the same bytes, so
/// binary→text→binary round trips are byte-identical (`cmp`-clean),
/// not merely event-identical.
///
/// The buffer is sized exactly before it is written — one counting
/// pass of the same encoder — so it never grows: no reallocation ever
/// copies the encoded bytes while both copies are alive.
pub fn to_binary(events: &[CheckEvent]) -> Vec<u8> {
    let header = header(events);
    let mut size = Tally(0);
    encode(events, &header, &mut size);
    let mut out = Vec::with_capacity(size.0);
    encode(events, &header, &mut out);
    debug_assert_eq!(out.len(), size.0);
    out
}

/// The fixed header: the fields that take a pass over the events.
fn header(events: &[CheckEvent]) -> [u8; HEADER_LEN] {
    let max_tid = max_trace_tid(events);
    let shards = ShadowGeometry::for_threads(max_tid as usize).shards();
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&BTRACE_MAGIC);
    header[4] = BTRACE_VERSION;
    header[8..12].copy_from_slice(&max_tid.to_le_bytes());
    header[12..16].copy_from_slice(&(shards as u32).to_le_bytes());
    header[16..24].copy_from_slice(&(events.len() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(trace_granule_span(events) as u64).to_le_bytes());
    header
}

fn encode(events: &[CheckEvent], header: &[u8; HEADER_LEN], out: &mut impl ByteOut) {
    out.extend_from_slice(header);

    // (absolute offset, tid, event count) per block, for the footer.
    let mut index: Vec<(u64, u32, u64)> = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let tid = recording_tid(&events[i]);
        let mut end = i + 1;
        while end < events.len() && recording_tid(&events[end]) == tid {
            end += 1;
        }
        index.push((out.len() as u64, tid, (end - i) as u64));
        out.uleb(u64::from(tid));
        out.uleb((end - i) as u64);
        let mut prev: i64 = 0;
        for e in &events[i..end] {
            match *e {
                CheckEvent::Read { granule, .. } => {
                    out.push(OP_READ);
                    write_granule_delta(out, &mut prev, granule);
                }
                CheckEvent::Write { granule, .. } => {
                    out.push(OP_WRITE);
                    write_granule_delta(out, &mut prev, granule);
                }
                CheckEvent::RangeRead { granule, len, .. } => {
                    out.push(OP_RANGE_READ);
                    write_granule_delta(out, &mut prev, granule);
                    out.uleb(len as u64);
                }
                CheckEvent::RangeWrite { granule, len, .. } => {
                    out.push(OP_RANGE_WRITE);
                    write_granule_delta(out, &mut prev, granule);
                    out.uleb(len as u64);
                }
                CheckEvent::LockedAccess { lock, .. } => {
                    out.push(OP_LOCKED);
                    out.uleb(lock as u64);
                }
                CheckEvent::SharingCast { granule, refs, .. } => {
                    out.push(OP_CAST);
                    write_granule_delta(out, &mut prev, granule);
                    out.uleb(refs);
                }
                CheckEvent::RangeCast {
                    granule, len, refs, ..
                } => {
                    out.push(OP_RANGE_CAST);
                    write_granule_delta(out, &mut prev, granule);
                    out.uleb(len as u64);
                    out.uleb(refs);
                }
                CheckEvent::RangeFree { granule, len } => {
                    out.push(OP_RANGE_FREE);
                    write_granule_delta(out, &mut prev, granule);
                    out.uleb(len as u64);
                }
                CheckEvent::Acquire { lock, .. } => {
                    out.push(OP_ACQUIRE);
                    out.uleb(lock as u64);
                }
                CheckEvent::Release { lock, .. } => {
                    out.push(OP_RELEASE);
                    out.uleb(lock as u64);
                }
                CheckEvent::Fork { child, .. } => {
                    out.push(OP_FORK);
                    out.uleb(u64::from(child));
                }
                CheckEvent::Join { child, .. } => {
                    out.push(OP_JOIN);
                    out.uleb(u64::from(child));
                }
                CheckEvent::ThreadExit { .. } => out.push(OP_EXIT),
                CheckEvent::Alloc { granule } => {
                    out.push(OP_ALLOC);
                    write_granule_delta(out, &mut prev, granule);
                }
            }
        }
        i = end;
    }

    let footer_off = out.len() as u64;
    out.uleb(index.len() as u64);
    let mut prev_off = 0u64;
    for &(off, tid, count) in &index {
        out.uleb(off - prev_off);
        prev_off = off;
        out.uleb(u64::from(tid));
        out.uleb(count);
    }
    out.extend_from_slice(&footer_off.to_le_bytes());
    out.extend_from_slice(&BTRACE_END_MAGIC);
}

/// Validates the framing of the v4 trace in `data` (magic, version,
/// trailer, footer offset) and returns a lazy decoder over its events,
/// in linearization order. Zero-copy: it borrows the bytes (heap buffer
/// or memory-mapped file alike) and materializes one event at a time.
/// Each item is `Ok(event)` or the first error: corruption inside a
/// block surfaces when the block is decoded, and a header whose event
/// count the blocks do not hold is an error after the last event.
pub fn events(data: &[u8]) -> Result<EventIter<'_>, String> {
    if !is_binary(data) {
        return Err("not a binary trace (missing SBT4 magic)".to_string());
    }
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err(format!(
            "binary trace truncated: {} bytes is shorter than header + trailer",
            data.len()
        ));
    }
    if data[4] != BTRACE_VERSION {
        return Err(format!(
            "unsupported binary trace version {} (this reader speaks v{BTRACE_VERSION})",
            data[4]
        ));
    }
    let end = data.len();
    if data[end - 4..] != BTRACE_END_MAGIC {
        return Err("binary trace truncated: end magic missing".to_string());
    }
    let fixed = |at: usize| -> [u8; 8] { data[at..at + 8].try_into().expect("8 bytes") };
    let footer_off = u64::from_le_bytes(fixed(end - TRAILER_LEN)) as usize;
    if footer_off < HEADER_LEN || footer_off > end - TRAILER_LEN {
        return Err(format!(
            "binary trace footer offset {footer_off} out of bounds"
        ));
    }
    let mut footer = footer_off;
    let indexed = read_uleb(&data[..end - TRAILER_LEN], &mut footer)
        .map_err(|why| format!("binary trace footer: {why}"))?;
    Ok(EventIter {
        data,
        pos: HEADER_LEN,
        end: footer_off,
        footer,
        indexed,
        block_start: 0,
        block_tid: 0,
        block_no: 0,
        left_in_block: 0,
        prev_granule: 0,
        decoded: 0,
        promised: u64::from_le_bytes(fixed(16)),
        admission: Admission::default(),
        failed: false,
    })
}

/// The binary decoder; see [`events`].
#[derive(Debug)]
pub struct EventIter<'a> {
    data: &'a [u8],
    pos: usize,
    end: usize,
    /// The next unread byte of the block index footer, and the number
    /// of its triples not yet matched to a block.
    footer: usize,
    indexed: u64,
    /// Where the block being decoded starts: the base of the next
    /// triple's offset delta.
    block_start: usize,
    block_tid: u32,
    /// 1-based index of the block being decoded, for error messages.
    block_no: u64,
    left_in_block: u64,
    prev_granule: i64,
    /// Events decoded so far, and the header's count they must reach.
    decoded: u64,
    promised: u64,
    /// The same per-event checks the text parser applies: a binary
    /// file is no more trusted than a text one.
    admission: Admission,
    failed: bool,
}

impl EventIter<'_> {
    /// The events a collector reserves room for before decoding: the
    /// header's count, but never more than the payload bytes could
    /// encode (every event is at least its opcode byte), so a lying
    /// header cannot reserve gigabytes.
    pub fn capacity(&self) -> usize {
        let payload_bytes = self.end - self.pos;
        usize::try_from(self.promised).map_or(payload_bytes, |n| n.min(payload_bytes))
    }

    fn decode_next(&mut self) -> Result<Option<CheckEvent>, String> {
        if self.left_in_block == 0 {
            // Block boundary (or clean end of the block region).
            if self.pos == self.end {
                if self.decoded != self.promised {
                    return Err(format!(
                        "binary trace decoded {} events but the header promises {}",
                        self.decoded, self.promised
                    ));
                }
                let left = self.data.len() - TRAILER_LEN - self.footer;
                if self.indexed != 0 || left != 0 {
                    return Err(format!(
                        "binary trace footer indexes {} blocks past the last, in {left} bytes",
                        self.indexed
                    ));
                }
                return Ok(None);
            }
            let start = self.pos;
            let bytes = &self.data[..self.end];
            let tid = read_uleb(bytes, &mut self.pos)?;
            self.block_tid =
                u32::try_from(tid).map_err(|_| format!("block tid {tid} overflows u32"))?;
            self.left_in_block = read_uleb(bytes, &mut self.pos)?;
            self.block_no += 1;
            self.prev_granule = 0;
            if self.left_in_block == 0 {
                return Err("empty block in binary trace".to_string());
            }
            self.check_index(start, tid)
                .map_err(|why| format!("block {}: {why}", self.block_no))?;
        }
        let event = self
            .decode_event()
            .map_err(|why| format!("block {} (tid {}): {why}", self.block_no, self.block_tid))?;
        self.left_in_block -= 1;
        self.decoded += 1;
        Ok(Some(event))
    }

    /// Holds the footer's next `(offset, tid, count)` triple to the
    /// block just entered, which starts at `start`.
    fn check_index(&mut self, start: usize, tid: u64) -> Result<(), String> {
        self.indexed = self
            .indexed
            .checked_sub(1)
            .ok_or("the footer indexes no more blocks")?;
        let footer = &self.data[..self.data.len() - TRAILER_LEN];
        let mut field =
            || read_uleb(footer, &mut self.footer).map_err(|why| format!("footer triple: {why}"));
        let indexed = [
            (self.block_start as u64).wrapping_add(field()?),
            field()?,
            field()?,
        ];
        self.block_start = start;
        let block = [start as u64, tid, self.left_in_block];
        for ((what, footer), block) in ["offset", "tid", "count"].iter().zip(indexed).zip(block) {
            if footer != block {
                return Err(format!(
                    "the footer's {what} {footer} is not the block's {block}"
                ));
            }
        }
        Ok(())
    }

    /// Decodes the next event of the current block, admitting each
    /// tid and granule run as it is read.
    fn decode_event(&mut self) -> Result<CheckEvent, String> {
        use CheckEvent as E;
        let op = *self.data[..self.end]
            .get(self.pos)
            .ok_or_else(|| "truncated block: opcode missing".to_string())?;
        self.pos += 1;
        Ok(match op {
            OP_READ => E::Read {
                tid: self.own_tid()?,
                granule: self.granule()?,
            },
            OP_WRITE => E::Write {
                tid: self.own_tid()?,
                granule: self.granule()?,
            },
            OP_RANGE_READ => {
                let (granule, len) = self.granule_run()?;
                E::RangeRead {
                    tid: self.own_tid()?,
                    granule,
                    len,
                }
            }
            OP_RANGE_WRITE => {
                let (granule, len) = self.granule_run()?;
                E::RangeWrite {
                    tid: self.own_tid()?,
                    granule,
                    len,
                }
            }
            OP_LOCKED => E::LockedAccess {
                tid: self.own_tid()?,
                lock: self.size()?,
            },
            OP_CAST => E::SharingCast {
                tid: self.own_tid()?,
                granule: self.granule()?,
                refs: self.uleb()?,
            },
            OP_RANGE_CAST => {
                let (granule, len) = self.granule_run()?;
                E::RangeCast {
                    tid: self.own_tid()?,
                    granule,
                    len,
                    refs: self.uleb()?,
                }
            }
            OP_RANGE_FREE => {
                let (granule, len) = self.granule_run()?;
                E::RangeFree { granule, len }
            }
            OP_ACQUIRE => E::Acquire {
                tid: self.own_tid()?,
                lock: self.size()?,
            },
            OP_RELEASE => E::Release {
                tid: self.own_tid()?,
                lock: self.size()?,
            },
            OP_FORK => E::Fork {
                parent: self.own_tid()?,
                child: self.other_tid("fork child")?,
            },
            OP_JOIN => E::Join {
                parent: self.own_tid()?,
                child: self.other_tid("join child")?,
            },
            OP_EXIT => E::ThreadExit {
                tid: self.own_tid()?,
            },
            OP_ALLOC => E::Alloc {
                granule: self.granule()?,
            },
            other => return Err(format!("unknown opcode {other} at byte {}", self.pos - 1)),
        })
    }

    fn uleb(&mut self) -> Result<u64, String> {
        read_uleb(&self.data[..self.end], &mut self.pos)
    }

    /// A length or lock id: a varint that must fit `usize`.
    fn size(&mut self) -> Result<usize, String> {
        usize::try_from(self.uleb()?).map_err(|_| "operand overflows usize".to_string())
    }

    /// The block's tid, as the tid of an event that carries one.
    fn own_tid(&mut self) -> Result<u32, String> {
        self.admission.tid(self.block_tid)?;
        Ok(self.block_tid)
    }

    /// A second tid spelled in the event itself.
    fn other_tid(&mut self, what: &str) -> Result<u32, String> {
        let tid = u32::try_from(self.uleb()?).map_err(|_| format!("{what} overflows u32"))?;
        self.admission.tid(tid)?;
        Ok(tid)
    }

    /// A point event's granule, off the block's delta register.
    fn granule(&mut self) -> Result<usize, String> {
        let bytes = &self.data[..self.end];
        let granule = read_granule_delta(bytes, &mut self.pos, &mut self.prev_granule)?;
        self.admission.run(granule, 1)?;
        Ok(granule)
    }

    /// A range event's `(granule, len)`.
    fn granule_run(&mut self) -> Result<(usize, usize), String> {
        let bytes = &self.data[..self.end];
        let granule = read_granule_delta(bytes, &mut self.pos, &mut self.prev_granule)?;
        let len = self.size()?;
        self.admission.run(granule, len)?;
        Ok((granule, len))
    }
}

impl Iterator for EventIter<'_> {
    type Item = Result<CheckEvent, String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let item = self.decode_next().transpose();
        self.failed = matches!(item, Some(Err(_)));
        item
    }
}

/// [`events`], collected: the binary twin of
/// [`crate::trace::parse_text`].
pub fn parse_binary(bytes: &[u8]) -> Result<Vec<CheckEvent>, String> {
    let events = events(bytes)?;
    let capacity = events.capacity();
    collect(events, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{parse_text, to_text};
    use sharc_testkit::{forall, gen, prop_assert_eq, Gen};

    /// The full 14-variant vocabulary, wide tids included (the
    /// cross-shard boundary matters: the header records the shard
    /// geometry of the widest tid).
    fn event_gen() -> Gen<CheckEvent> {
        gen::pair(
            gen::u32_range(0..14),
            gen::triple(
                gen::u32_range(1..300),
                gen::usize_range(0..4096),
                gen::u64_range(1..5),
            ),
        )
        .map(|&(kind, (tid, granule, refs))| {
            let lock = granule % 8;
            let len = (granule % 7) + 1;
            match kind {
                0 => CheckEvent::Read { tid, granule },
                1 => CheckEvent::Write { tid, granule },
                2 => CheckEvent::LockedAccess { tid, lock },
                3 => CheckEvent::SharingCast { tid, granule, refs },
                4 => CheckEvent::Acquire { tid, lock },
                5 => CheckEvent::Release { tid, lock },
                6 => CheckEvent::Fork {
                    parent: tid,
                    child: tid + 1,
                },
                7 => CheckEvent::Join {
                    parent: tid,
                    child: tid + 1,
                },
                8 => CheckEvent::ThreadExit { tid },
                9 => CheckEvent::RangeRead { tid, granule, len },
                10 => CheckEvent::RangeWrite { tid, granule, len },
                11 => CheckEvent::RangeCast {
                    tid,
                    granule,
                    len,
                    refs,
                },
                12 => CheckEvent::RangeFree { granule, len },
                _ => CheckEvent::Alloc { granule },
            }
        })
    }

    #[test]
    fn round_trip_is_identity_over_the_whole_vocabulary() {
        forall!(
            "btrace_round_trip_is_identity",
            gen::vec_of(event_gen(), 0..96),
            |events| {
                let bytes = to_binary(events);
                let parsed = parse_binary(&bytes).expect("well-formed");
                prop_assert_eq!(&parsed, events);
            }
        );
    }

    #[test]
    fn text_to_binary_to_text_is_the_identity_on_the_file() {
        // The tentpole round trip at the *file* level: any v3 text
        // file survives text→binary→text byte-for-byte, so archiving
        // a text trace as .sbt and later exporting it back is
        // lossless on the artifact, not merely on the event vector.
        forall!(
            "btrace_text_binary_text_identity",
            gen::vec_of(event_gen(), 0..96),
            |events| {
                let text = to_text(events);
                let via_binary = to_text(
                    &parse_binary(&to_binary(&parse_text(&text).expect("v3 parses")))
                        .expect("v4 parses"),
                );
                prop_assert_eq!(&via_binary, &text);
            }
        );
    }

    #[test]
    fn encoding_a_spine_shaped_trace_never_grows_the_buffer() {
        // The shape a native fleet records: 128 workers on private
        // bands of 512 granules, in bursts of 16-63 events, with the
        // write / read / range / lock / cast mix of a server. Such a
        // trace encodes to just over 3 bytes an event.
        use sharc_testkit::rng::{Rng, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(0x5b7);
        let mut events: Vec<CheckEvent> = (2..130)
            .map(|child| CheckEvent::Fork { parent: 1, child })
            .collect();
        while events.len() < 200_000 {
            let tid = rng.gen_range(2..130u32);
            let band = (tid as usize - 2) * 512;
            for _ in 0..rng.gen_range(16..64usize) {
                let (granule, len) = (band + rng.gen_range(0..500usize), rng.gen_range(1..8usize));
                events.push(match rng.gen_range(0..100u32) {
                    0..=54 => CheckEvent::Write { tid, granule },
                    55..=84 => CheckEvent::Read { tid, granule },
                    85..=93 => CheckEvent::RangeWrite { tid, granule, len },
                    94..=97 => CheckEvent::LockedAccess {
                        tid,
                        lock: tid as usize,
                    },
                    _ => CheckEvent::SharingCast {
                        tid,
                        granule,
                        refs: 1,
                    },
                });
            }
        }
        let bytes = to_binary(&events);
        assert!(bytes.len() > 3 * events.len(), "{} bytes", bytes.len());
        assert_eq!(bytes.capacity(), bytes.len(), "the buffer grew");
        assert_eq!(parse_binary(&bytes).expect("parses"), events);
        forall!(
            "btrace_buffer_is_sized_exactly",
            gen::vec_of(event_gen(), 0..96),
            |events| {
                let bytes = to_binary(events);
                prop_assert_eq!(bytes.capacity(), bytes.len());
            }
        );
    }

    #[test]
    fn binary_re_encode_is_byte_identical() {
        // Determinism at the byte level: decode→encode reproduces
        // the exact file (blocking is a pure function of the event
        // sequence), which is what `ci/check.sh` pins with `cmp` on
        // the CLI convert round trip.
        forall!(
            "btrace_re_encode_byte_identical",
            gen::vec_of(event_gen(), 0..96),
            |events| {
                let a = to_binary(events);
                let b = to_binary(&parse_binary(&a).expect("parses"));
                prop_assert_eq!(&a, &b);
            }
        );
    }

    #[test]
    fn header_records_geometry_and_counts() {
        let events = vec![
            CheckEvent::Fork {
                parent: 1,
                child: 200,
            },
            CheckEvent::Write {
                tid: 200,
                granule: 4095,
            },
            CheckEvent::RangeWrite {
                tid: 200,
                granule: 4096,
                len: 8,
            },
        ];
        let bytes = to_binary(&events);
        assert_eq!(bytes[8..12], 200u32.to_le_bytes(), "max tid");
        assert_eq!(
            bytes[12..16],
            (ShadowGeometry::for_threads(200).shards() as u32).to_le_bytes(),
            "the header still records the shard count"
        );
        assert_eq!(bytes[16..24], 3u64.to_le_bytes(), "event count");
        assert_eq!(bytes[24..32], 4104u64.to_le_bytes(), "granule span");
        assert_eq!(
            block_index(&bytes),
            // The first block: tid, count, opcode, a two-byte child.
            vec![(HEADER_LEN, 1, 1), (HEADER_LEN + 5, 200, 2)],
            "blocks are maximal same-recording-tid runs"
        );
    }

    /// The footer's `(offset, tid, events)` per block, checking that it
    /// fills the space before the trailer exactly.
    fn block_index(bytes: &[u8]) -> Vec<(usize, u32, u64)> {
        let end = bytes.len() - TRAILER_LEN;
        let mut pos = u64::from_le_bytes(bytes[end..end + 8].try_into().unwrap()) as usize;
        let mut uleb = || read_uleb(&bytes[..end], &mut pos).expect("footer varint");
        let (n, mut offset) = (uleb(), 0);
        let index = (0..n)
            .map(|_| {
                offset += uleb() as usize;
                (offset, uleb() as u32, uleb())
            })
            .collect();
        assert_eq!(pos, end, "footer bytes left over");
        index
    }

    #[test]
    fn per_thread_blocks_preserve_the_interleaving() {
        // Alternating tids force one block per event; the decoded
        // order must still be the recorded linearization exactly.
        let mut events = Vec::new();
        for i in 0..10usize {
            let tid = 1 + (i % 2) as u32;
            events.push(CheckEvent::Write { tid, granule: i });
        }
        assert_eq!(parse_binary(&to_binary(&events)).unwrap(), events);
    }

    #[test]
    fn corrupt_framing_is_rejected_loudly() {
        let good = to_binary(&[CheckEvent::Read { tid: 1, granule: 7 }]);
        // Text input.
        assert!(events(b"# sharc-trace v3\n").unwrap_err().contains("magic"));
        // Truncation that loses the trailer.
        assert!(events(&good[..good.len() - 3])
            .unwrap_err()
            .contains("end magic"));
        // A version bump fails loudly instead of misparsing.
        let mut v5 = good.clone();
        v5[4] = 5;
        assert!(events(&v5).unwrap_err().contains("version 5"));
        // An unknown opcode inside a block surfaces from decode.
        let mut bad_op = good.clone();
        bad_op[HEADER_LEN + 2] = 0x7e; // the event's opcode byte
        assert!(parse_binary(&bad_op).unwrap_err().contains("opcode"));
        // A lying header count is the decoder's last item, so a fold
        // over the events meets it too.
        let mut short_count = good;
        short_count[16] = 2;
        assert!(parse_binary(&short_count)
            .unwrap_err()
            .contains("promises 2"));
        let items: Vec<_> = events(&short_count).expect("framing is intact").collect();
        assert_eq!(items.len(), 2, "the event, then the count error");
        assert!(items[1].as_ref().unwrap_err().contains("decoded 1 events"));
    }

    /// `bytes` with its footer rewritten: `n` as the block count, then
    /// `index`'s triples, then `extra` bytes before the trailer.
    fn with_index(bytes: &[u8], n: u64, index: &[(usize, u32, u64)], extra: &[u8]) -> Vec<u8> {
        let end = bytes.len() - TRAILER_LEN;
        let footer_off = u64::from_le_bytes(bytes[end..end + 8].try_into().unwrap());
        let mut out = bytes[..footer_off as usize].to_vec();
        out.uleb(n);
        let mut prev = 0;
        for &(offset, tid, count) in index {
            out.uleb((offset - prev) as u64);
            prev = offset;
            out.uleb(u64::from(tid));
            out.uleb(count);
        }
        out.extend_from_slice(extra);
        out.extend_from_slice(&footer_off.to_le_bytes());
        out.extend_from_slice(&BTRACE_END_MAGIC);
        out
    }

    #[test]
    fn a_footer_that_lies_about_a_block_is_refused_naming_it() {
        let trace: Vec<_> = (0..6usize)
            .map(|i| CheckEvent::Write {
                tid: 1 + (i / 2) as u32,
                granule: i,
            })
            .collect();
        let good = to_binary(&trace);
        let index = block_index(&good);
        assert_eq!(index.len(), 3, "three tids, two events each");
        let n = index.len() as u64;
        assert_eq!(
            with_index(&good, n, &index, &[]),
            good,
            "re-encodes exactly"
        );
        let lie = |k: usize, f: &dyn Fn(&mut (usize, u32, u64))| {
            let mut index = index.clone();
            f(&mut index[k]);
            parse_binary(&with_index(&good, n, &index, &[])).unwrap_err()
        };
        let refused = lie(1, &|t| t.0 += 1);
        assert!(
            refused.contains("block 2: the footer's offset"),
            "{refused}"
        );
        let refused = lie(1, &|t| t.1 = 9);
        assert!(refused.contains("block 2: the footer's tid 9"), "{refused}");
        let refused = lie(2, &|t| t.2 = 3);
        assert!(
            refused.contains("block 3: the footer's count 3"),
            "{refused}"
        );
        // A triple too few, a triple too many, a byte after the last.
        let refused = parse_binary(&with_index(&good, n - 1, &index[..2], &[])).unwrap_err();
        assert!(
            refused.contains("block 3: the footer indexes no more"),
            "{refused}"
        );
        let mut more = index.clone();
        more.push((index[2].0 + 4, 4, 1));
        let refused = parse_binary(&with_index(&good, n + 1, &more, &[])).unwrap_err();
        assert!(
            refused.contains("1 blocks past the last, in 3 bytes"),
            "{refused}"
        );
        let refused = parse_binary(&with_index(&good, n, &index, &[0])).unwrap_err();
        assert!(
            refused.contains("0 blocks past the last, in 1 bytes"),
            "{refused}"
        );
        // A block count whose varint runs into the trailer fails the
        // framing itself.
        let mut cut = with_index(&good, n, &[], &[]);
        let count_byte = cut.len() - TRAILER_LEN - 1;
        cut[count_byte] = 0x80;
        let refused = events(&cut).unwrap_err();
        assert!(refused.contains("footer: truncated varint"), "{refused}");
    }

    #[test]
    fn lying_event_count_cannot_reserve_past_the_payload() {
        // A valid one-block trace whose header claims u64::MAX events:
        // decode fails on the count, having reserved no more than the
        // four payload bytes could encode.
        let mut lying = to_binary(&[CheckEvent::Read { tid: 1, granule: 7 }]);
        lying[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let r = events(&lying).expect("framing is intact");
        assert_eq!(r.capacity(), 4, "tid, count, opcode, delta");
        assert!(parse_binary(&lying).unwrap_err().contains("promises"));
    }

    #[test]
    fn fleet_shaped_trace_is_at_most_a_quarter_of_its_text_form() {
        // The archive claim where it is deterministic: a fixed-seed
        // trace shaped like a recorded server fleet (128 wide tids,
        // each emitting bursts of sweeps that advance through its own
        // buffer band). On a *recorded* run the ratio follows how the
        // scheduler cuts the per-thread blocks; here it cannot move.
        use sharc_testkit::rng::{Rng, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(0x5B74);
        let mut cursor = [0usize; 128];
        let mut events = Vec::new();
        while events.len() < 50_000 {
            let worker = rng.gen_range(0..128usize);
            let tid = worker as u32 + 2;
            for _ in 0..rng.gen_range(8..32usize) {
                let granule = worker * 4096 + cursor[worker] % 4096;
                let len = rng.gen_range(1..17usize);
                cursor[worker] += len;
                events.push(match rng.gen_range(0..4u32) {
                    0 => CheckEvent::RangeWrite { tid, granule, len },
                    1 => CheckEvent::RangeRead { tid, granule, len },
                    2 => CheckEvent::Write { tid, granule },
                    _ => CheckEvent::Read { tid, granule },
                });
            }
        }
        let (binary, text) = (to_binary(&events), to_text(&events));
        assert_eq!(parse_binary(&binary).expect("parses"), events);
        assert!(
            binary.len() * 4 <= text.len(),
            "binary must be at most 1/4 the bytes of text ({} vs {})",
            binary.len(),
            text.len()
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = to_binary(&[]);
        assert_eq!(bytes[16..24], 0u64.to_le_bytes());
        assert_eq!(block_index(&bytes), vec![]);
        assert_eq!(parse_binary(&bytes).unwrap(), vec![]);
    }
}
