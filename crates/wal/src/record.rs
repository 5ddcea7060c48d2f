//! On-disk record framing: length-prefixed, CRC-checksummed binary
//! records.
//!
//! Every record in a segment is framed as
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload]
//! ```
//!
//! and the payload is one of
//!
//! ```text
//! interns = 0x01 | base: varint | paths: [String]
//! batch   = 0x02 | generation: varint | the wire's binary events payload
//! ```
//!
//! Both are built from [`seer_trace::codec`], which defines varints,
//! strings, and the event encoding. A batch's events are stored exactly
//! as a binary events frame carries them
//! ([`seer_trace::wire::put_events_payload`], without a trace id), so
//! the log and the socket share one codec and one decoder.
//!
//! The checksum covers only the payload; a flipped bit anywhere in the
//! frame fails either the length sanity check, the CRC, or the payload
//! decode, and decoding classifies the damage as *incomplete* (a torn
//! tail — more bytes might have made it whole) or *corrupt* (no suffix
//! could repair it). Recovery truncates at the first record that is
//! either, so a crash mid-`write` never poisons earlier records.

pub use seer_trace::codec::crc32;
use seer_trace::codec::{put_varint, Codec, DecodeError, Reader};
use seer_trace::wire;
use seer_trace::TraceEvent;

/// Upper bound on a single record's payload. A length prefix above this
/// is treated as corruption rather than an allocation request — a torn
/// header bit-flipped into a huge length must not wedge recovery — and
/// an append that would exceed it is refused.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// Bytes of framing overhead per record (length + checksum).
pub const RECORD_HEADER_BYTES: usize = 8;

/// Payload tag of a [`WalRecord::Interns`] record.
const TAG_INTERNS: u8 = 0x01;
/// Payload tag of a [`WalRecord::Batch`] record.
const TAG_BATCH: u8 = 0x02;

/// One logical entry in the log.
///
/// The two variants mirror the daemon's wire protocol split between
/// intern declarations and event batches: `Interns` extends the global
/// string table with dense ids starting at `base`, and `Batch` carries
/// events whose raw-path ids refer to previously declared strings.
/// `generation` is the engine's total applied-event count *after* the
/// batch — the same generation clusterings and snapshots are tagged
/// with, which is what makes point-in-time restore line up with live
/// query answers.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Declares global string ids `base..base + paths.len()`, in order.
    ///
    /// The first record of every segment is an `Interns { base: 0, .. }`
    /// carrying the *entire* table at segment-creation time, which makes
    /// each segment self-contained: compaction can drop any prefix of
    /// sealed segments without losing id→path mappings.
    Interns {
        /// First id being declared.
        base: u32,
        /// The strings, dense from `base`.
        paths: Vec<String>,
    },
    /// One applied event batch, raw-path ids in the global space.
    Batch {
        /// Total events applied *after* this batch.
        generation: u64,
        /// The events, in application order.
        events: Vec<TraceEvent>,
    },
}

impl WalRecord {
    /// The batch generation, if this is a batch record.
    #[must_use]
    pub fn generation(&self) -> Option<u64> {
        match self {
            WalRecord::Batch { generation, .. } => Some(*generation),
            WalRecord::Interns { .. } => None,
        }
    }
}

/// Frames a record for appending: header + binary payload.
///
/// # Panics
///
/// If the payload exceeds [`MAX_RECORD_BYTES`].
#[must_use]
pub fn encode(record: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    match record {
        WalRecord::Interns { base, paths } => {
            put_interns(&mut buf, *base, paths.iter().map(String::as_str))
        }
        WalRecord::Batch { generation, events } => put_batch(&mut buf, *generation, events),
    }
    .expect("record within MAX_RECORD_BYTES");
    buf
}

/// Appends a framed `Interns` record declaring `paths` from id `base`.
/// On error `buf` is left as it was.
pub(crate) fn put_interns<'a>(
    buf: &mut Vec<u8>,
    base: u32,
    paths: impl ExactSizeIterator<Item = &'a str>,
) -> std::io::Result<()> {
    let start = begin_frame(buf);
    buf.push(TAG_INTERNS);
    base.encode(buf);
    put_varint(buf, paths.len() as u64);
    for path in paths {
        path.encode(buf);
    }
    end_frame(buf, start)
}

/// Appends a framed `Batch` record. On error `buf` is left as it was.
pub(crate) fn put_batch(
    buf: &mut Vec<u8>,
    generation: u64,
    events: &[TraceEvent],
) -> std::io::Result<()> {
    let start = begin_frame(buf);
    buf.push(TAG_BATCH);
    generation.encode(buf);
    wire::put_events_payload(buf, events, None);
    end_frame(buf, start)
}

/// Reserves a record header at the end of `buf`, returning its offset.
fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; RECORD_HEADER_BYTES]);
    start
}

/// Fills in the header reserved at `start` for the payload after it, or
/// drops the record when the payload is too large to ever decode.
fn end_frame(buf: &mut Vec<u8>, start: usize) -> std::io::Result<()> {
    let body = start + RECORD_HEADER_BYTES;
    let len = buf.len() - body;
    if len > MAX_RECORD_BYTES {
        buf.truncate(start);
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("a {len}-byte record exceeds the {MAX_RECORD_BYTES}-byte cap"),
        ));
    }
    let crc = crc32(&buf[body..]);
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    buf[start + 4..body].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Outcome of decoding one record from the front of `buf`.
#[derive(Debug)]
pub enum Decoded {
    /// A complete, valid record occupying `consumed` bytes.
    Record {
        /// The decoded record.
        record: WalRecord,
        /// Frame size in bytes (header + payload).
        consumed: usize,
    },
    /// The buffer ends mid-record: a torn tail, not damage.
    Incomplete,
    /// The front of the buffer can never decode, whatever follows.
    Corrupt(&'static str),
}

/// Decodes the record at the front of `buf`.
///
/// Never panics and never allocates more than [`MAX_RECORD_BYTES`]:
/// arbitrary garbage classifies as [`Decoded::Incomplete`] or
/// [`Decoded::Corrupt`].
#[must_use]
pub fn decode(buf: &[u8]) -> Decoded {
    if buf.len() < RECORD_HEADER_BYTES {
        return Decoded::Incomplete;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len == 0 || len > MAX_RECORD_BYTES {
        return Decoded::Corrupt("implausible record length");
    }
    let Some(total) = len.checked_add(RECORD_HEADER_BYTES) else {
        return Decoded::Corrupt("record length overflows");
    };
    if buf.len() < total {
        return Decoded::Incomplete;
    }
    let expected = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let payload = &buf[RECORD_HEADER_BYTES..total];
    if crc32(payload) != expected {
        return Decoded::Corrupt("checksum mismatch");
    }
    match decode_payload(payload) {
        Ok(record) => Decoded::Record {
            record,
            consumed: total,
        },
        Err(why) => Decoded::Corrupt(why.0),
    }
}

/// Decodes a checksummed payload through one [`Reader`], which bounds
/// every count and length by the bytes left before anything is
/// allocated for it.
fn decode_payload(payload: &[u8]) -> Result<WalRecord, DecodeError> {
    let mut r = Reader::new(payload);
    let record = match r.byte()? {
        TAG_INTERNS => WalRecord::Interns {
            base: Codec::decode(&mut r)?,
            paths: Codec::decode(&mut r)?,
        },
        TAG_BATCH => {
            let generation = r.varint()?;
            match wire::decode_events_payload(&mut r)? {
                (events, None) => WalRecord::Batch { generation, events },
                (_, Some(_)) => return Err(DecodeError("batch carries a trace id")),
            }
        }
        _ => return Err(DecodeError("unknown record tag")),
    };
    r.finish()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_trace::{ErrorKind, EventKind, Fd, OpenMode, Pid, RawPathId, Seq, Timestamp};

    fn sample_batch() -> WalRecord {
        WalRecord::Batch {
            generation: 42,
            events: vec![TraceEvent {
                seq: Seq(1),
                time: Timestamp::from_millis(5),
                pid: Pid(9),
                root: false,
                kind: EventKind::Open {
                    path: RawPathId(0),
                    mode: OpenMode::Read,
                    fd: Fd(3),
                },
                error: None,
            }],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_round_trips() {
        for rec in [
            WalRecord::Interns {
                base: 0,
                paths: vec!["/a".into(), "/b".into()],
            },
            sample_batch(),
        ] {
            let buf = encode(&rec);
            match decode(&buf) {
                Decoded::Record { record, consumed } => {
                    assert_eq!(record, rec);
                    assert_eq!(consumed, buf.len());
                }
                other => panic!("expected record, got {other:?}"),
            }
        }
    }

    /// Lowercase hex, two digits a byte.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// An interns record and a batch record with failed, root and
    /// multi-field events, captured when the socket and the log switched
    /// to one codec: a log written before must replay unchanged.
    const INTERNS_RECORD: &str = "1800000010d7ab3101ac02030c2f686f6d652f752fc3a92e63000572656c2f78";
    const BATCH_RECORD: &str = concat!(
        "3e00000051b9088f0280808080800100054001c3843df1a204ac020204140286",
        "897af2a204012903c98db701f3a204ad02ae0246048c92f401f4a204093505cf",
        "96b102f5a204",
    );

    #[test]
    fn records_match_golden_bytes() {
        let ev = |seq: u64, root: bool, kind: EventKind, error: Option<ErrorKind>| TraceEvent {
            seq: Seq(seq),
            time: Timestamp(seq * 1_000_003),
            pid: Pid(70_000 + seq as u32),
            root,
            kind,
            error,
        };
        let interns = WalRecord::Interns {
            base: 300,
            paths: vec!["/home/u/é.c".into(), String::new(), "rel/x".into()],
        };
        let batch = WalRecord::Batch {
            generation: 1 << 35,
            events: vec![
                ev(
                    1,
                    true,
                    EventKind::Open {
                        path: RawPathId(300),
                        mode: OpenMode::ReadWrite,
                        fd: Fd(4),
                    },
                    None,
                ),
                ev(
                    2,
                    false,
                    EventKind::Exec { path: RawPathId(1) },
                    Some(ErrorKind::NotFound),
                ),
                ev(
                    3,
                    false,
                    EventKind::Rename {
                        from: RawPathId(301),
                        to: RawPathId(302),
                    },
                    Some(ErrorKind::NotHoarded),
                ),
                ev(4, true, EventKind::Fork { child: Pid(9) }, None),
                ev(5, false, EventKind::Exit, Some(ErrorKind::Other)),
            ],
        };
        for (record, golden) in [(interns, INTERNS_RECORD), (batch, BATCH_RECORD)] {
            let buf = encode(&record);
            assert_eq!(hex(&buf), golden);
            match decode(&buf) {
                Decoded::Record {
                    record: back,
                    consumed,
                } => {
                    assert_eq!(back, record);
                    assert_eq!(consumed, buf.len());
                }
                other => panic!("expected record, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_frames_are_incomplete() {
        let buf = encode(&sample_batch());
        for cut in 0..buf.len() {
            match decode(&buf[..cut]) {
                Decoded::Incomplete => {}
                other => panic!("cut at {cut}: expected incomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_payload_bit_is_corrupt() {
        let mut buf = encode(&sample_batch());
        let mid = RECORD_HEADER_BYTES + 3;
        buf[mid] ^= 0x10;
        assert!(matches!(decode(&buf), Decoded::Corrupt(_)));
    }

    #[test]
    fn absurd_length_is_corrupt_not_an_allocation() {
        let mut buf = encode(&sample_batch());
        buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&buf), Decoded::Corrupt(_)));
        buf[..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(decode(&buf), Decoded::Corrupt(_)));
    }

    #[test]
    fn decode_consumes_exactly_one_record() {
        let a = encode(&WalRecord::Interns {
            base: 0,
            paths: vec!["/x".into()],
        });
        let b = encode(&sample_batch());
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        match decode(&joined) {
            Decoded::Record { consumed, .. } => assert_eq!(consumed, a.len()),
            other => panic!("expected record, got {other:?}"),
        }
    }
}
