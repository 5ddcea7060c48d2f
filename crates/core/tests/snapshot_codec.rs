//! The binary snapshot codec: every engine state round-trips bit-exact,
//! and damaged input is an error — never a panic, and never an
//! allocation sized by a count the input did not back.
//!
//! Round trips cover engines built from short traces of the nine
//! calibrated machines (A–I) and from random event sequences. Damage
//! covers every truncation and every single-bit flip of a whole file,
//! random bytes with and without a valid frame around them, and damaged
//! payloads handed straight to the decoder past the checksum.

use proptest::prelude::*;
use seer_core::persist::{frame, unframe, ENGINE_MAGIC};
use seer_core::{SeerEngine, SeerSnapshot};
use seer_trace::codec::decode_all;
use seer_trace::{Fd, OpenMode, Pid, Trace, TraceBuilder};
use seer_workload::{generate, MachineProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest single allocation the current thread requests
/// while tracking is on, so a test can bound what a decode allocated.
struct PeakAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = TRACKING.try_with(|on| {
        if on.get() {
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
        }
    });
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping only touches this thread's const-initialized cells, which
// never allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation
/// it requested on this thread.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, PEAK.with(Cell::get))
}

/// The most a decode may allocate at once for `input` bytes. Every
/// collection is bounded by the bytes left, each item taking at least
/// one of them; the largest allocation per item is a path's slot in the
/// path table's lookup index, under 80 bytes with the hash table's
/// spare capacity.
fn alloc_bound(input: usize) -> usize {
    80 * input + 4096
}

fn save(engine: &SeerEngine) -> Vec<u8> {
    let mut buf = Vec::new();
    engine.snapshot().save(&mut buf).expect("save to memory");
    buf
}

fn load(bytes: &[u8]) -> Result<SeerSnapshot, seer_core::PersistError> {
    SeerSnapshot::load(&mut &bytes[..])
}

fn engine_from(trace: &Trace) -> SeerEngine {
    let mut engine = SeerEngine::default();
    trace.replay(&mut engine);
    engine
}

/// `save`, `load`, `from_snapshot`, `snapshot`, `save` reproduces the
/// bytes, and the restored engine reclusters and hoards exactly as one
/// restored in memory does.
fn assert_round_trip(engine: &SeerEngine, what: &str) {
    let bytes = save(engine);
    let back = load(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut restored = SeerEngine::from_snapshot(back);
    assert!(save(&restored) == bytes, "{what}: re-saved bytes differ");
    let mut in_memory = SeerEngine::from_snapshot(engine.snapshot());
    assert_eq!(
        restored.recluster().clusters,
        in_memory.recluster().clusters,
        "{what}: clusters"
    );
    for budget in [8 * 1024, 1 << 20] {
        let a = restored.choose_hoard(budget, &|_| 1024);
        let b = in_memory.choose_hoard(budget, &|_| 1024);
        assert_eq!(a.files, b.files, "{what}: hoard at {budget}");
        assert_eq!(a.bytes, b.bytes, "{what}: hoard bytes at {budget}");
    }
}

/// A small engine whose every byte the exhaustive damage tests visit.
fn small_engine() -> SeerEngine {
    let mut b = TraceBuilder::new();
    for round in 0..6u32 {
        let pid = Pid(10 + round);
        b.exec(pid, "/usr/bin/cc");
        let files = ["/p/a.c", "/p/b.h", "/p/c.c", "/p/.d"];
        let first = b.open(pid, files[round as usize % 4], OpenMode::Read);
        for k in 1..4 {
            b.touch(pid, files[(round as usize + k) % 4], OpenMode::Read);
        }
        b.close(pid, first);
        b.unlink(pid, "/p/c.c");
        b.exit(pid);
    }
    let mut engine = engine_from(&b.build());
    engine.recluster();
    engine
}

#[test]
fn machine_traces_round_trip() {
    for name in ["A", "B", "C", "D", "E", "F", "G", "H", "I"] {
        // Four days: the lightest machines (B, E) generate no events on
        // shorter horizons.
        let profile = MachineProfile {
            days: 4,
            ..MachineProfile::by_name(name).expect("known machine")
        };
        let trace = generate(&profile, 11).trace;
        assert!(!trace.events.is_empty(), "machine {name} is idle");
        assert_round_trip(&engine_from(&trace), &format!("machine {name}"));
    }
}

#[test]
fn empty_engine_round_trips() {
    assert_round_trip(&SeerEngine::default(), "empty engine");
}

/// One step of a random workload over a small path pool.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    pid: u32,
    path: usize,
    other: usize,
}

const POOL: [&str; 10] = [
    "/p/a.c",
    "/p/b.h",
    "/p/sub/c.c",
    "/q/d.txt",
    "/q/e.txt",
    "/etc/rc",
    "/tmp/scratch",
    "/home/user/.login",
    "rel/f.c",
    "/dev/null",
];

fn op_strategy() -> impl Strategy<Value = Op> {
    (0..12u8, 1..5u32, 0..POOL.len(), 0..POOL.len()).prop_map(|(kind, pid, path, other)| Op {
        kind,
        pid,
        path,
        other,
    })
}

/// Builds the trace a random op list describes; descriptors stay valid
/// per process, so opens and closes pair up the way a real trace's do.
fn trace_of(ops: &[Op]) -> Trace {
    let mut b = TraceBuilder::new();
    let mut open: Vec<(Pid, Fd)> = Vec::new();
    for op in ops {
        let pid = Pid(op.pid);
        let (path, other) = (POOL[op.path], POOL[op.other]);
        b.advance(seer_trace::Timestamp::from_secs(u64::from(op.kind) + 1));
        match op.kind {
            0 | 1 => b.touch(pid, path, OpenMode::Read),
            2 => open.push((pid, b.open(pid, path, OpenMode::ReadWrite))),
            3 => {
                if let Some(i) = open.iter().position(|(p, _)| *p == pid) {
                    let (_, fd) = open.remove(i);
                    b.close(pid, fd);
                }
            }
            4 => b.exec(pid, path),
            5 => b.fork(pid, Pid(op.pid + 10)),
            6 => {
                open.retain(|(p, _)| *p != pid);
                b.exit(pid);
            }
            7 => b.unlink(pid, path),
            8 => b.rename(pid, path, other),
            9 => b.create(pid, path),
            10 => b.stat(pid, path),
            _ => {
                let fd = b.opendir(pid, "/p");
                b.readdir(pid, fd, 3);
                b.close(pid, fd);
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random event sequences, reclustered or not, round-trip exactly.
    #[test]
    fn random_engines_round_trip(
        ops in prop::collection::vec(op_strategy(), 0..160),
        recluster in prop::bool::ANY,
    ) {
        let mut engine = engine_from(&trace_of(&ops));
        if recluster {
            engine.recluster();
        }
        assert_round_trip(&engine, "random engine");
    }

    /// Random bytes are never a snapshot, framed or not.
    #[test]
    fn random_bytes_are_errors(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        prop_assert!(load(&bytes).is_err());
        let framed = frame(&ENGINE_MAGIC, |buf| buf.extend_from_slice(&bytes));
        let (result, peak) = peak_alloc(|| load(&framed).map(drop));
        prop_assert!(result.is_err(), "random payload decoded");
        prop_assert!(peak <= alloc_bound(framed.len()) + framed.len(), "allocated {peak}");
    }
}

#[test]
fn every_truncation_is_an_error() {
    let bytes = save(&small_engine());
    for cut in 0..bytes.len() {
        assert!(load(&bytes[..cut]).is_err(), "truncated to {cut} bytes");
    }
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(load(&extended).is_err(), "a trailing byte");
}

#[test]
fn every_single_bit_flip_is_an_error() {
    let bytes = save(&small_engine());
    let mut damaged = bytes.clone();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            damaged[i] ^= 1 << bit;
            assert!(load(&damaged).is_err(), "bit {bit} of byte {i} flipped");
            damaged[i] ^= 1 << bit;
        }
    }
}

/// Past the checksum the decoder itself bounds what it reads: every
/// truncated payload is an error, and no flipped bit panics or
/// allocates more than the payload can back.
#[test]
fn damaged_payloads_never_panic_or_overallocate() {
    for engine in [small_engine(), engine_from(&trace_of(&[]))] {
        let bytes = save(&engine);
        let payload = unframe(&ENGINE_MAGIC, &bytes).expect("whole frame");
        for cut in 0..payload.len() {
            assert!(
                decode_all::<SeerSnapshot>(&payload[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut damaged = payload.to_vec();
        for i in 0..damaged.len() {
            for bit in 0..8 {
                damaged[i] ^= 1 << bit;
                let (_, peak) = peak_alloc(|| decode_all::<SeerSnapshot>(&damaged).map(drop));
                assert!(
                    peak <= alloc_bound(damaged.len()),
                    "bit {bit} of byte {i}: allocated {peak}"
                );
                damaged[i] ^= 1 << bit;
            }
        }
    }
}

#[test]
fn foreign_files_are_format_errors() {
    let bytes = save(&small_engine());
    assert!(bytes.starts_with(&ENGINE_MAGIC));
    let json = br#"{"engine":{"observer":{}},"events_applied":3}"#;
    match load(json) {
        Err(seer_core::PersistError::Format(m)) => assert!(m.contains("JSON"), "{m}"),
        other => panic!("a JSON snapshot loaded: {other:?}"),
    }
    let daemon = frame(b"SEERSNP1", |buf| buf.extend_from_slice(&bytes[16..]));
    assert!(matches!(
        load(&daemon),
        Err(seer_core::PersistError::Format(_))
    ));
}

/// A snapshot naming a file its own path table lacks would size the
/// restored engine's dense arrays from that id; it is refused.
#[test]
fn file_ids_outside_the_path_table_are_refused() {
    let mut snap = small_engine().snapshot();
    snap.observer.always_hoard.push(seer_trace::FileId(1 << 30));
    let mut bytes = Vec::new();
    snap.save(&mut bytes).expect("save");
    assert!(load(&bytes).is_err());
}
