//! Property tests: record decoding must survive arbitrary damage —
//! torn writes, bit flips, truncated tails — without panicking,
//! over-allocating, or mis-decoding, and a segment torn anywhere must
//! reopen with exactly the records that were whole before the tear.

#[path = "../../trace/tests/strategies/mod.rs"]
mod strategies;

use proptest::prelude::*;
use seer_wal::{
    decode, encode, replay_dir, Decoded, Wal, WalConfig, WalRecord, RECORD_HEADER_BYTES,
    SEGMENT_MAGIC,
};
use std::sync::atomic::{AtomicU64, Ordering};
use strategies::event_strategy;

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (
            0..=u32::MAX,
            prop::collection::vec("[a-z/._é€😀 -]{0,24}", 0..8)
        )
            .prop_map(|(base, paths)| WalRecord::Interns { base, paths }),
        (0..=u64::MAX, prop::collection::vec(event_strategy(), 0..32))
            .prop_map(|(generation, events)| WalRecord::Batch { generation, events }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup never panics and never claims a record.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        match decode(&bytes) {
            Decoded::Record { consumed, .. } => prop_assert!(consumed <= bytes.len()),
            Decoded::Incomplete | Decoded::Corrupt(_) => {}
        }
    }

    /// Every well-formed record round-trips exactly.
    #[test]
    fn round_trip(rec in arb_record()) {
        let buf = encode(&rec);
        match decode(&buf) {
            Decoded::Record { record, consumed } => {
                prop_assert_eq!(record, rec);
                prop_assert_eq!(consumed, buf.len());
            }
            other => prop_assert!(false, "expected record, got {:?}", other),
        }
    }

    /// Any truncation of a valid frame is Incomplete — a torn tail,
    /// never a phantom record and never corruption that would make
    /// recovery distrust the preceding (valid) log.
    #[test]
    fn truncation_is_always_incomplete(rec in arb_record(), keep_frac in 0.0f64..1.0) {
        let buf = encode(&rec);
        let keep = (((buf.len() as f64) * keep_frac) as usize).min(buf.len() - 1);
        prop_assert!(matches!(decode(&buf[..keep]), Decoded::Incomplete));
    }

    /// A flipped bit anywhere in a frame is detected: decode yields the
    /// original record only from undamaged bytes, otherwise classifies
    /// as Incomplete/Corrupt — it never produces a *different* record.
    #[test]
    fn bit_flips_never_mis_decode(rec in arb_record(), byte_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut buf = encode(&rec);
        let idx = ((buf.len() as f64) * byte_frac) as usize % buf.len();
        buf[idx] ^= 1 << bit;
        match decode(&buf) {
            Decoded::Record { record, .. } => {
                // A flip in the length prefix can shorten the frame so a
                // prefix still decodes; CRC makes that astronomically
                // unlikely, and the payload flip case must checksum-fail.
                prop_assert_eq!(record, rec, "damaged frame decoded to a different record");
            }
            Decoded::Incomplete | Decoded::Corrupt(_) => {}
        }
    }

    /// Garbage appended after a valid frame never disturbs decoding the
    /// frame itself, and `consumed` points exactly past it.
    #[test]
    fn trailing_garbage_is_ignored(rec in arb_record(), junk in prop::collection::vec(0u8..=255, 0..64)) {
        let mut buf = encode(&rec);
        let frame = buf.len();
        buf.extend_from_slice(&junk);
        match decode(&buf) {
            Decoded::Record { record, consumed } => {
                prop_assert_eq!(record, rec);
                prop_assert_eq!(consumed, frame);
            }
            other => prop_assert!(false, "expected record, got {:?}", other),
        }
    }

    /// A header whose length field points past the buffer is Incomplete
    /// (could be torn) unless implausibly large (Corrupt) — and in
    /// neither case does decoding allocate the claimed length.
    #[test]
    fn huge_lengths_are_rejected_cheaply(len in 0u32..=u32::MAX, crc in 0u32..=u32::MAX) {
        let mut buf = Vec::with_capacity(RECORD_HEADER_BYTES);
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        match decode(&buf) {
            Decoded::Record { .. } => prop_assert!(false, "header alone cannot be a record"),
            Decoded::Incomplete | Decoded::Corrupt(_) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A segment of random records cut at any byte offset — a crash
    /// mid-`write` — reopens holding exactly the records that ended at
    /// or before the cut, truncated to the last of them.
    #[test]
    fn torn_segment_reopens_with_its_whole_record_prefix(
        records in prop::collection::vec(arb_record(), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "seer-wal-torn-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut segment = SEGMENT_MAGIC.to_vec();
        let mut ends = Vec::new();
        for record in &records {
            segment.extend_from_slice(&encode(record));
            ends.push(segment.len());
        }
        let cut = (((segment.len() + 1) as f64) * cut_frac) as usize;
        let path = dir.join("wal-00000000.seg");
        std::fs::write(&path, &segment[..cut]).expect("write segment");

        let whole = ends.iter().filter(|&&end| end <= cut).count();
        let (_wal, report) = Wal::open(WalConfig::new(&dir)).expect("reopen");
        let mut replayed = Vec::new();
        let stats = replay_dir(&dir, |r| {
            replayed.push(r);
            true
        })
        .expect("replay");
        prop_assert!(!stats.damaged, "the tear survived reopening");
        prop_assert_eq!(&replayed[..], &records[..whole]);
        prop_assert_eq!(report.records, whole as u64);
        if whole > 0 {
            // Truncated right after the last whole record.
            let on_disk = std::fs::metadata(&path).expect("segment kept").len();
            prop_assert_eq!(on_disk as usize, ends[whole - 1]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
