//! I/O and format interchange: `.tns` round trips preserve MTTKRP
//! results end-to-end, the engines accept file-loaded tensors
//! identically to generated ones, and the parser survives arbitrary
//! malformed byte streams with typed errors — never a panic, never a
//! silently corrupted tensor.

use linalg::assert_mat_approx_eq;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sptensor::io::{read_tns, write_tns, TnsError};
use stef::{init_factors, MttkrpEngine, Stef, StefOptions};
use workloads::power_law_tensor;

#[test]
fn tns_round_trip_preserves_mttkrp() {
    let t = power_law_tensor(&[40, 30, 20], 2_000, &[0.6, 0.3, 0.0], 1);
    let mut buf = Vec::new();
    write_tns(&t, &mut buf).unwrap();
    let loaded = read_tns(buf.as_slice()).unwrap();
    // Dims may shrink-wrap to max coordinates; re-embed to the original.
    assert!(loaded.dims().iter().zip(t.dims()).all(|(&a, &b)| a <= b));
    let rank = 4;
    // Compare on the shrink-wrapped dims: rebuild the original in the
    // same dims for a like-for-like factor shape.
    let mut reshaped = sptensor::CooTensor::new(loaded.dims().to_vec());
    for e in 0..t.nnz() {
        reshaped.push(&t.coord(e), t.values()[e]);
    }
    let factors = init_factors(loaded.dims(), rank, 2);
    let mut e1 = Stef::prepare(&reshaped, StefOptions::new(rank));
    let mut e2 = Stef::prepare(&loaded, StefOptions::new(rank));
    for mode in e1.sweep_order() {
        assert_mat_approx_eq(
            &e1.mttkrp(&factors, mode),
            &e2.mttkrp(&factors, mode),
            1e-12,
        );
    }
}

#[test]
fn tns_file_round_trip_on_disk() {
    let t = power_law_tensor(&[10, 12, 8, 6], 500, &[0.4; 4], 3);
    let dir = std::env::temp_dir().join("stef-io-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.tns");
    sptensor::io::write_tns_file(&t, &path).unwrap();
    let loaded = sptensor::io::read_tns_file(&path).unwrap();
    assert_eq!(loaded.nnz(), t.nnz());
    let mut sorted_orig = t.clone();
    sorted_orig.sort_dedup();
    let mut sorted_loaded = loaded;
    sorted_loaded.sort_dedup();
    for e in (0..sorted_orig.nnz()).step_by(7) {
        assert_eq!(sorted_orig.coord(e), sorted_loaded.coord(e));
        assert!((sorted_orig.values()[e] - sorted_loaded.values()[e]).abs() < 1e-12);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn alto_and_csf_engines_agree_on_loaded_file() {
    let t = power_law_tensor(&[25, 25, 25], 1_500, &[0.5; 3], 4);
    let mut buf = Vec::new();
    write_tns(&t, &mut buf).unwrap();
    let loaded = read_tns(buf.as_slice()).unwrap();
    let rank = 4;
    let factors = init_factors(loaded.dims(), rank, 5);
    let mut alto = baselines::Alto::prepare(&loaded, rank, 2, &stef::Executor::new(2));
    let mut stef_engine = Stef::prepare(&loaded, StefOptions::new(rank));
    for mode in stef_engine.sweep_order() {
        assert_mat_approx_eq(
            &alto.mttkrp(&factors, mode),
            &stef_engine.mttkrp(&factors, mode),
            1e-9,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stream cut off at any byte (a crashed writer, a truncated
    /// download) must load as a shorter-but-valid tensor or fail with a
    /// typed error — the parser must never panic or wrap around.
    #[test]
    fn truncated_tns_streams_fail_typed_or_load_clean(
        entries in pvec((1u32..40, 1u32..40, 1u32..40, -5.0f64..5.0), 1..30),
        cut_permille in 0usize..=1000,
    ) {
        let mut text = String::new();
        for (i, j, k, v) in &entries {
            text += &format!("{i} {j} {k} {v}\n");
        }
        let cut = text.len() * cut_permille / 1000;
        match read_tns(&text.as_bytes()[..cut]) {
            // A cut at a line boundary can leave a valid prefix.
            Ok(t) => prop_assert!(t.nnz() <= entries.len()),
            // Random coordinate triples can collide, and a truncated
            // final line can change the apparent arity or leave a bad
            // value; all of those must surface as typed errors.
            Err(TnsError::Parse { .. } | TnsError::Empty | TnsError::Duplicate { .. }) => {}
            Err(other) => panic!("unexpected error class for truncation at {cut}: {other:?}"),
        }
    }

    /// 1-based indices above 2^32 cannot be represented in the u32
    /// coordinate storage; they must be rejected on the offending line,
    /// not silently wrapped into an aliasing small coordinate.
    #[test]
    fn oversized_indices_are_rejected_not_wrapped(
        small in 1u64..1000,
        excess in 0u64..1_000_000,
        mode_pos in 0usize..3,
    ) {
        let big = (1u64 << 32) + 1 + excess;
        let mut fields = [small.to_string(), small.to_string(), small.to_string()];
        fields[mode_pos] = big.to_string();
        let text = format!("1 1 1 1.0\n{} {} {} 2.0\n", fields[0], fields[1], fields[2]);
        match read_tns(text.as_bytes()) {
            Err(TnsError::Parse { line: 2, msg }) => {
                prop_assert!(msg.contains("exceeds"), "{msg}");
            }
            other => panic!("expected Parse on line 2, got {other:?}"),
        }
    }

    /// Coordinate tokens too large even for u64 hit the integer parser
    /// instead; same contract: typed rejection.
    #[test]
    fn absurdly_long_digit_strings_are_rejected(digits in pvec(0u8..10, 21..60)) {
        let tok: String = digits.iter().map(|d| char::from(b'0' + d)).collect();
        // 21+ digits always overflows u64 once the leading digit is
        // forced nonzero.
        let tok = format!("9{tok}");
        let text = format!("{tok} 1 1.0\n");
        match read_tns(text.as_bytes()) {
            Err(TnsError::Parse { line: 1, .. }) => {}
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    /// Arbitrary byte soup — including invalid UTF-8 — must never panic;
    /// invalid encodings surface as typed I/O errors.
    #[test]
    fn arbitrary_byte_streams_never_panic(bytes in pvec(any::<u8>(), 0..300)) {
        match read_tns(bytes.as_slice()) {
            Ok(_) | Err(_) => {}
        }
    }

    /// Directed non-UTF8: a valid line followed by an invalid sequence.
    #[test]
    fn non_utf8_tails_yield_io_errors(garbage in pvec(128u8..=255, 1..20)) {
        let mut bytes = b"1 1 1.0\n\xff\xfe".to_vec();
        bytes.extend_from_slice(&garbage);
        match read_tns(bytes.as_slice()) {
            Err(TnsError::Io(_)) => {}
            other => panic!("expected Io for invalid UTF-8, got {other:?}"),
        }
    }
}
