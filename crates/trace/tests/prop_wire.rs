//! Property tests for the wire protocol: arbitrary event batches survive
//! a binary events frame unchanged, and damaged binary frames always
//! error cleanly — truncation and corruption must never panic.

mod strategies;

use proptest::prelude::*;
use seer_trace::wire::{decode_events_binary, encode_events_binary, read_binary_events, WireError};
use seer_trace::TraceEvent;
use strategies::event_strategy;

fn batch_strategy() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec(event_strategy(), 0..64)
}

fn trace_id_strategy() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0..=u64::MAX).prop_map(Some)]
}

proptest! {
    /// A batch written as a binary frame decodes to identical events
    /// and trace id, and the frame is self-delimiting.
    #[test]
    fn binary_framing_round_trips(
        events in batch_strategy(),
        trace_id in trace_id_strategy(),
    ) {
        let frame = encode_events_binary(&events, trace_id);
        let mut r = frame.as_slice();
        let mut scratch = Vec::new();
        let (decoded, decoded_trace) =
            read_binary_events(&mut r, &mut scratch).expect("binary decode");
        prop_assert!(r.is_empty());
        prop_assert_eq!(decoded, events);
        prop_assert_eq!(decoded_trace, trace_id);
    }

    /// Any truncation of a valid binary frame errors cleanly.
    #[test]
    fn truncated_binary_frames_error_cleanly(
        events in batch_strategy(),
        trace_id in trace_id_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = encode_events_binary(&events, trace_id);
        let cut = (((frame.len() - 1) as f64) * cut_frac) as usize;
        let mut scratch = Vec::new();
        let err = read_binary_events(&mut &frame[..cut], &mut scratch)
            .expect_err("truncated frame must not decode");
        prop_assert!(matches!(err, WireError::Io(_) | WireError::Format(_)));
    }

    /// Arbitrary byte flips in the payload never panic: the decoder
    /// either rejects the frame or yields some batch of events, but it
    /// must always return.
    #[test]
    fn corrupted_binary_payloads_never_panic(
        events in prop::collection::vec(event_strategy(), 1..32),
        flips in prop::collection::vec((0..=u16::MAX, 1..=u8::MAX), 1..8),
    ) {
        let frame = encode_events_binary(&events, Some(9));
        let mut payload = frame[5..].to_vec();
        for (pos, val) in flips {
            let i = pos as usize % payload.len();
            payload[i] ^= val;
        }
        let _ = decode_events_binary(&payload);
    }

    /// Arbitrary raw bytes fed straight to the payload decoder never
    /// panic either.
    #[test]
    fn random_bytes_never_panic(payload in prop::collection::vec(0..=u8::MAX, 0..512)) {
        let _ = decode_events_binary(&payload);
    }
}
