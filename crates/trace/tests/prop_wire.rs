//! Property tests for the wire protocol: arbitrary event batches survive
//! a binary events frame unchanged, damaged binary frames always error
//! cleanly — truncation and corruption must never panic — and no control
//! line, however deeply nested, badly escaped, or cut short, takes more
//! than a small thread stack to refuse.

mod strategies;

use proptest::prelude::*;
use seer_trace::wire::{
    decode_events_binary, encode_events_binary, read_binary_events, read_frame, ClientFrame,
    WireError,
};
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

/// One piece of a hostile control line: runs of openers, closers, or
/// string escapes that are valid, malformed, or a surrogate pair with a
/// bad low half.
fn json_token() -> impl Strategy<Value = String> {
    let escapes = vec![
        r#""\ud800\u0041""#,
        r#""\ud800\ud800""#,
        r#""\ud800""#,
        r#""\udc00""#,
        r#""\ud83d\ude80""#,
        r#""\u00""#,
        r#""\x""#,
        r#"{"Flush":null}"#,
        "\"",
        "\\",
        ",",
        ":",
        "1e400",
        "null",
    ];
    prop_oneof![
        (1..3000usize).prop_map(|n| "[".repeat(n)),
        (1..600usize).prop_map(|n| r#"{"Query":"#.repeat(n)),
        (1..300usize).prop_map(|n| "]".repeat(n)),
        (1..300usize).prop_map(|n| "}".repeat(n)),
        prop::sample::select(escapes).prop_map(str::to_owned),
    ]
}

/// A control line of random tokens, truncated at a random point.
fn hostile_line() -> impl Strategy<Value = String> {
    let tokens = prop::collection::vec(json_token(), 1..12);
    (tokens, 0.0f64..1.0).prop_map(|(tokens, keep)| {
        let mut line = tokens.concat();
        line.truncate(1 + ((line.len() - 1) as f64 * keep) as usize);
        line.push('\n');
        line
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `read_frame` answers every hostile line with `Ok` or `Err`.
    fn hostile_lines_return(line in hostile_line()) {
        let _ = read_frame::<_, ClientFrame>(&mut line.as_bytes());
    }
}

/// The parser bounds its nesting, so refusing any line fits in a 256 KiB
/// stack, an eighth of a default thread's. An overflow would abort the
/// whole test binary, not fail one test.
#[test]
fn read_frame_refuses_hostile_lines_on_a_small_stack() {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(hostile_lines_return)
        .expect("spawn")
        .join()
        .expect("every line returned");
}
