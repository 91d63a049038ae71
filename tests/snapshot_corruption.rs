//! Property tests for the `TMLS` snapshot envelope: every way a
//! checkpoint file can be damaged on disk — truncation from a torn
//! write, a flipped bit from the storage layer, an envelope from a
//! different format version — must surface as a typed
//! [`SnapshotError`], never a panic and never silently-wrong state.

#![allow(clippy::unwrap_used)]

use std::io::Cursor;

use proptest::prelude::*;
use treadmill::sim::snapshot::{
    open, seal, SnapshotError, SnapshotWriter, ENVELOPE_BYTES, SNAPSHOT_VERSION,
};

/// A payload of `len` bytes drawn from `seed` — long enough to cross
/// the streaming writer's staging buffer several times.
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.to_le_bytes()[0]
        })
        .collect()
}

/// Streams `payload` the way a checkpoint is streamed into its tmp
/// file: odd-sized pieces through the staging buffer, header last.
fn streamed(payload: &[u8]) -> Vec<u8> {
    let mut sink = Cursor::new(Vec::new());
    let mut w = SnapshotWriter::streaming(&mut sink).unwrap();
    for piece in payload.chunks(1_021) {
        w.put_raw(piece);
    }
    w.finish_streamed().unwrap();
    sink.into_inner()
}

proptest! {
    /// Intact envelopes round-trip to the exact payload.
    #[test]
    fn seal_open_roundtrips(payload in proptest::collection::vec(0u8..=255, 0..512)) {
        let sealed = seal(&payload);
        prop_assert_eq!(open(&sealed).unwrap(), payload.as_slice());
    }

    /// Truncation at any byte — header or payload — is typed.
    #[test]
    fn truncation_is_typed(
        payload in proptest::collection::vec(0u8..=255, 0..256),
        cut in 0usize..512,
    ) {
        let sealed = seal(&payload);
        let cut = cut % sealed.len(); // strictly shorter than intact
        match open(&sealed[..cut]) {
            Err(SnapshotError::Truncated) => {}
            other => prop_assert!(false, "truncated at {}: {:?}", cut, other),
        }
    }

    /// A single flipped bit anywhere in the envelope is caught: bad
    /// magic, bad version, length mismatch, or checksum mismatch —
    /// never a clean open of corrupted bytes.
    #[test]
    fn bit_flip_is_detected(
        payload in proptest::collection::vec(0u8..=255, 0..256),
        at in 0usize..512,
        bit in 0u8..8,
    ) {
        let mut sealed = seal(&payload);
        let at = at % sealed.len();
        sealed[at] ^= 1 << bit;
        match open(&sealed) {
            Err(
                SnapshotError::BadMagic
                | SnapshotError::BadVersion { .. }
                | SnapshotError::Truncated
                | SnapshotError::ChecksumMismatch,
            ) => {}
            Ok(_) => prop_assert!(false, "flip at byte {} bit {} opened cleanly", at, bit),
            Err(e) => prop_assert!(false, "unexpected error class: {}", e),
        }
    }

    /// Envelopes stamped with any other format version are refused
    /// with the version they carried (even when the checksum is valid
    /// for the payload).
    #[test]
    fn wrong_version_is_refused(
        payload in proptest::collection::vec(0u8..=255, 0..128),
        version in 0u32..=u32::MAX,
    ) {
        let version = if version == SNAPSHOT_VERSION { version + 1 } else { version };
        let mut sealed = seal(&payload);
        sealed[4..8].copy_from_slice(&version.to_le_bytes());
        match open(&sealed) {
            Err(SnapshotError::BadVersion { found }) => prop_assert_eq!(found, version),
            other => prop_assert!(false, "version {}: {:?}", version, other),
        }
    }

    /// A streamed envelope is the sealed one, so a file torn anywhere
    /// or flipped at any bit is refused exactly as a sealed one is.
    #[test]
    fn streamed_envelope_rejects_tears_and_flips(
        seed in 0u64..u64::MAX,
        len in 0usize..200_000,
        at in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let payload = payload(seed, len);
        let file = streamed(&payload);
        prop_assert_eq!(&file, &seal(&payload));
        prop_assert_eq!(open(&file).unwrap(), payload.as_slice());
        let cut = at % file.len();
        prop_assert_eq!(open(&file[..cut]), Err(SnapshotError::Truncated));
        let at = at % file.len();
        let mut flipped = file;
        flipped[at] ^= 1 << bit;
        prop_assert!(open(&flipped).is_err(), "flip at byte {} bit {}", at, bit);
    }

    /// Arbitrary bytes — not even an envelope — are always typed.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        match open(&bytes) {
            Ok(payload) => {
                // Only a genuine envelope may open.
                prop_assert!(bytes.len() >= ENVELOPE_BYTES);
                prop_assert_eq!(&bytes[..4], b"TMLS");
                prop_assert_eq!(payload.len(), bytes.len() - ENVELOPE_BYTES);
            }
            Err(e) => { let _ = e.to_string(); }
        }
    }
}
