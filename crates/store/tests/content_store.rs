//! End-to-end lifecycle of the content store on real encoded payloads:
//! ingest → dedup → grouping → cold recompression → ledger identity.

use bees_image::codec::{self, progressive};
use bees_image::{Rgb, RgbImage};
use bees_store::{ContentStore, Fidelity, InsertOutcome, StorageConfig, StorePayload};

/// A deterministic synthetic photo (no dataset dependency).
fn photo(seed: u64, shift: u32) -> RgbImage {
    RgbImage::from_fn(96, 72, |x, y| {
        let x = x + shift;
        let v = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(((x / 8) as u64) << 32 | (y / 8) as u64)
            .wrapping_mul(1442695040888963407);
        Rgb::new((v >> 40) as u8, (v >> 48) as u8, (v >> 56) as u8)
    })
}

fn permissive() -> StorageConfig {
    StorageConfig {
        recompress_min_age_s: 0.0,
        ..StorageConfig::default()
    }
}

#[test]
fn full_lifecycle_holds_the_ledger_identity() {
    let mut store = ContentStore::new();
    // Three near-duplicate views of one subject, encoded at camera quality,
    // plus a byte-identical re-upload of the lead view.
    let payloads: Vec<Vec<u8>> = (0..3)
        .map(|v| codec::encode_rgb(&photo(9, v), 85).unwrap())
        .collect();
    for (i, p) in payloads.iter().enumerate() {
        let out = store.insert(
            i as u64,
            StorePayload::Bytes(p.clone()),
            Fidelity::Full,
            i as f64,
        );
        assert_eq!(out, InsertOutcome::Stored { len: p.len() });
    }
    let dup = store.insert(
        3,
        StorePayload::Bytes(payloads[0].clone()),
        Fidelity::Full,
        3.0,
    );
    assert_eq!(dup, InsertOutcome::DedupHit);
    assert_eq!(store.image_count(), 4);
    assert_eq!(store.blob_count(), 3);
    assert_eq!(store.ledger().dedup_hits, 1);

    // The epoch-commit grouping found the views similar.
    store.merge_groups(0, 1);
    store.merge_groups(2, 1);
    assert_eq!(store.group_of(2), &[0, 1, 2, 3]);
    assert_eq!(store.group_count(), 1);
    store.commit_epoch();
    assert_eq!(store.ledger().epochs.len(), 1);

    let stored = store.ledger().stored_bytes;
    assert_eq!(store.live_bytes(), stored);

    // The cold pass re-encodes the redundant members, never the reference.
    let reference = store.reference_member(0).unwrap();
    let ref_len_before = store.blob_of(reference).unwrap().len;
    let report = store.run_recompression(1_000.0, &permissive());
    assert!(report.recompressed >= 1, "{report:?}");
    assert!(report.bytes_reclaimed > 0);
    assert!(report.mean_ssim() > 0.5 && report.mean_ssim() <= 1.0);
    assert_eq!(store.blob_of(reference).unwrap().len, ref_len_before);

    // Ledger identity survives the pass; a second pass is a no-op.
    assert_eq!(
        store.live_bytes(),
        store.ledger().stored_bytes - store.ledger().reclaimed_bytes
    );
    let digest = store.layout_digest();
    let second = store.run_recompression(2_000.0, &permissive());
    assert_eq!(second.recompressed, 0);
    assert_eq!(second.bytes_reclaimed, 0);
    assert_eq!(store.layout_digest(), digest);
}

#[test]
fn catalog_entries_fulfill_and_partials_upgrade_into_real_bytes() {
    let mut store = ContentStore::new();
    // A catalog record holds no physical bytes until the pull-down.
    store.insert(
        0,
        StorePayload::Size {
            size: 32_000,
            fingerprint: 7,
        },
        Fidelity::OnDevice,
        0.0,
    );
    assert_eq!(store.live_bytes(), 0);
    store.fulfill(0, 32_000, 5.0);
    assert_eq!(store.live_bytes(), 32_000);
    assert_eq!(store.blob_of(0).unwrap().fidelity, Fidelity::Full);

    // A salvaged partial accounts its prefix now and its tail later.
    store.insert(
        1,
        StorePayload::Size {
            size: 6_000,
            fingerprint: 8,
        },
        Fidelity::Partial,
        6.0,
    );
    store.upgrade(1, 4_000, 7.0);
    assert_eq!(store.blob_of(1).unwrap().len, 10_000);
    assert_eq!(store.blob_of(1).unwrap().fidelity, Fidelity::Full);
    assert_eq!(store.ledger().stored_bytes, 42_000);
    assert_eq!(store.live_bytes(), 42_000);

    // Neither synthetic blob carries real bytes, so the cold pass must
    // leave both untouched even with every gate wide open.
    let report = store.run_recompression(1e9, &permissive());
    assert_eq!(report.recompressed, 0);
    assert_eq!(store.ledger().reclaimed_bytes, 0);
}

/// Five groups and a singleton covering every way the cold pass can treat
/// a blob: re-encoded from a baseline or a complete progressive colour
/// bitstream, marked but kept (foreign bytes, a re-encode that is not
/// smaller), and spared (reference members, a hot member, a thumbnail, a
/// singleton, the reference's byte-identical re-upload).
fn golden_store() -> ContentStore {
    let baseline = |seed, shift, quality| codec::encode_rgb(&photo(seed, shift), quality).unwrap();
    let progressive = progressive::encode_progressive_rgb(&photo(1, 3), 85).unwrap();
    let foreign = b"\x89PNG\r\n\x1a\n not one of our bitstreams".to_vec();
    let mut store = ContentStore::new();
    let mut put = |id: u64, bytes: Vec<u8>, fidelity, t| {
        store.insert(id, StorePayload::Bytes(bytes), fidelity, t);
    };
    // Group 0: baseline members and a complete progressive one.
    put(0, baseline(1, 0, 85), Fidelity::Full, 0.0);
    put(1, baseline(1, 1, 85), Fidelity::Full, 10.0);
    put(2, baseline(1, 2, 85), Fidelity::Full, 20.0);
    put(3, progressive, Fidelity::Full, 30.0);
    put(4, baseline(1, 4, 85), Fidelity::Full, 40.0);
    // Group 10: a member whose bytes are no bitstream of ours.
    put(10, baseline(2, 0, 80), Fidelity::Full, 0.0);
    put(11, baseline(2, 1, 80), Fidelity::Full, 0.0);
    put(12, foreign, Fidelity::Full, 0.0);
    put(13, baseline(2, 2, 70), Fidelity::Full, 0.0);
    // Group 20: a member already encoded below the pass's quality.
    put(20, baseline(3, 0, 90), Fidelity::Full, 0.0);
    put(21, baseline(3, 1, 20), Fidelity::Full, 0.0);
    put(22, baseline(3, 2, 90), Fidelity::Full, 0.0);
    // Group 30: a hot member and a dedup hit on the reference's blob.
    put(30, baseline(4, 0, 85), Fidelity::Full, 0.0);
    put(31, baseline(4, 1, 85), Fidelity::Full, 950.0);
    put(32, baseline(4, 2, 85), Fidelity::Full, 0.0);
    put(33, baseline(4, 0, 85), Fidelity::Full, 5.0);
    // Group 40: a thumbnail at the lowest id, so the reference is id 41.
    put(40, baseline(5, 0, 60), Fidelity::Thumbnail, 0.0);
    put(41, baseline(5, 1, 85), Fidelity::Full, 0.0);
    put(42, baseline(5, 2, 85), Fidelity::Full, 0.0);
    put(43, baseline(5, 3, 75), Fidelity::Full, 0.0);
    // A cold singleton.
    put(50, baseline(6, 0, 85), Fidelity::Full, 0.0);
    for members in [
        &[0, 1, 2, 3, 4][..],
        &[10, 11, 12, 13],
        &[20, 21, 22],
        &[30, 31, 32],
    ] {
        for pair in members.windows(2) {
            store.merge_groups(pair[0], pair[1]);
        }
    }
    // Group 40 forms from two two-member groups.
    for (a, b) in [(41, 40), (42, 43), (43, 40)] {
        store.merge_groups(a, b);
    }
    store
}

const GOLDEN_IDS: [u64; 21] = [
    0, 1, 2, 3, 4, 10, 11, 12, 13, 20, 21, 22, 30, 31, 32, 33, 40, 41, 42, 43, 50,
];

#[test]
fn cold_pass_is_pinned_at_every_worker_count() {
    let config = StorageConfig {
        recompress_min_age_s: 100.0,
        ..StorageConfig::default()
    };
    for threads in [1usize, 2, 8] {
        bees_runtime::set_threads(threads);
        let mut store = golden_store();
        assert_eq!(store.reference_member(40), Some(41));
        let report = store.run_recompression(1_000.0, &config);
        let marked: Vec<u64> = GOLDEN_IDS
            .iter()
            .copied()
            .filter(|&id| store.blob_of(id).is_some_and(|b| b.recompressed))
            .collect();
        let got = (
            report.scanned,
            report.recompressed,
            report.bytes_reclaimed,
            report.ssim_sum.to_bits(),
            store.layout_digest(),
            marked,
        );
        // ssim_sum is 9.709992767188574; ten re-encodes are enough that
        // summing their scores in another order changes its bits. Ids 12
        // (foreign bytes) and 21 (a re-encode no smaller than its payload)
        // are marked but reclaim nothing.
        let want = (
            20,
            10,
            9_904,
            0x4023_6b84_2c06_f164,
            0xedd6_5aec_7a89_c802,
            vec![1, 2, 3, 4, 11, 12, 13, 21, 22, 32, 42, 43],
        );
        bees_runtime::set_threads(0);
        assert_eq!(
            got, want,
            "cold pass moved at {threads} threads (ssim_sum {})",
            report.ssim_sum
        );
        assert_eq!(
            store.live_bytes(),
            store.ledger().stored_bytes - store.ledger().reclaimed_bytes
        );
    }
}
