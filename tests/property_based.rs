//! Property tests on the core invariants spanning crates.

use bees::core::retrieval::haversine_km;
use bees::core::{BeesConfig, RetrievalQuery, Server};
use bees::energy::{Battery, EnergyLedger, LinearScheme};
use bees::features::descriptor::BinaryDescriptor;
use bees::features::matcher::{match_binary, MatchConfig};
use bees::features::similarity::{jaccard_similarity, SimilarityConfig};
use bees::features::{DescriptorBlock, Descriptors, ImageFeatures, Keypoint};
use bees::image::{codec, GrayImage};
use bees::net::{BandwidthTrace, Channel};
use bees::submodular::{partition_by_threshold, SimilarityGraph, Ssmm};
use bees_rng::{check, ChaCha8Rng};

const CASES: u64 = 32;
/// The store properties are cheap, so they draw more cases.
const STORE_CASES: u64 = 64;

fn arb_gray_image(rng: &mut ChaCha8Rng) -> GrayImage {
    let w = rng.gen_range(8u32..64);
    let h = rng.gen_range(8u32..48);
    let seed: u64 = rng.gen();
    GrayImage::from_fn(w, h, |x, y| {
        let v = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add((x as u64) << 32 | y as u64)
            .wrapping_mul(1442695040888963407);
        (v >> 56) as u8
    })
}

fn arb_descriptor(rng: &mut ChaCha8Rng) -> BinaryDescriptor {
    let mut bytes = [0u8; 32];
    rng.fill(&mut bytes);
    BinaryDescriptor::from_bytes(bytes)
}

/// A vector of `len` draws of `draw`, with `len` drawn from `len`.
fn arb_vec<T>(
    rng: &mut ChaCha8Rng,
    len: std::ops::Range<usize>,
    mut draw: impl FnMut(&mut ChaCha8Rng) -> T,
) -> Vec<T> {
    (0..rng.gen_range(len)).map(|_| draw(rng)).collect()
}

fn features(descs: Vec<BinaryDescriptor>) -> ImageFeatures {
    ImageFeatures {
        keypoints: descs.iter().map(|_| Keypoint::default()).collect(),
        descriptors: Descriptors::Binary(DescriptorBlock::from_descriptors(&descs)),
    }
}

#[test]
fn codec_roundtrip_preserves_dimensions_and_bounds() {
    check(CASES, |rng| {
        let img = arb_gray_image(rng);
        let q = rng.gen_range(1u8..=100);
        let encoded = codec::encode_gray(&img, q).unwrap();
        let decoded = codec::decode_gray(&encoded).unwrap();
        assert_eq!(decoded.dimensions(), img.dimensions());
        // High quality must be nearly lossless.
        if q >= 95 {
            let err = bees::image::metrics::mse(&img, &decoded).unwrap();
            assert!(err < 400.0, "mse {err} at q {q}");
        }
    });
}

#[test]
fn codec_decoding_never_panics_on_corruption() {
    check(CASES, |rng| {
        let img = arb_gray_image(rng);
        let (at, flip): (usize, u8) = (rng.gen(), rng.gen());
        let mut encoded = codec::encode_gray(&img, 50).unwrap();
        if !encoded.is_empty() {
            let idx = at % encoded.len();
            encoded[idx] ^= flip | 1;
        }
        // Must return Ok or Err, never panic.
        let _ = codec::decode_gray(&encoded);
    });
}

#[test]
fn jaccard_is_bounded_and_symmetric() {
    check(CASES, |rng| {
        let fa = features(arb_vec(rng, 0..30, arb_descriptor));
        let fb = features(arb_vec(rng, 0..30, arb_descriptor));
        let cfg = SimilarityConfig::default();
        let s1 = jaccard_similarity(&fa, &fb, &cfg);
        let s2 = jaccard_similarity(&fb, &fa, &cfg);
        assert!((0.0..=1.0).contains(&s1));
        assert!((s1 - s2).abs() < 1e-12);
        // Self-similarity of a non-empty set is 1.
        if !fa.is_empty() {
            assert!((jaccard_similarity(&fa, &fa, &cfg) - 1.0).abs() < 1e-12);
        }
    });
}

#[test]
fn cross_checked_matches_are_one_to_one() {
    check(CASES, |rng| {
        let a = DescriptorBlock::from_descriptors(&arb_vec(rng, 0..25, arb_descriptor));
        let b = DescriptorBlock::from_descriptors(&arb_vec(rng, 0..25, arb_descriptor));
        let matches = match_binary(&a, &b, &MatchConfig::default());
        let mut q: Vec<usize> = matches.iter().map(|m| m.query_idx).collect();
        let mut t: Vec<usize> = matches.iter().map(|m| m.train_idx).collect();
        let (ql, tl) = (q.len(), t.len());
        q.sort_unstable();
        q.dedup();
        t.sort_unstable();
        t.dedup();
        assert_eq!(q.len(), ql, "duplicate query index");
        assert_eq!(t.len(), tl, "duplicate train index");
    });
}

#[test]
fn partition_count_is_monotone_in_threshold() {
    check(CASES, |rng| {
        let n = rng.gen_range(2usize..12);
        let seed: u64 = rng.gen();
        let t1 = rng.gen_range(0.0..1.0);
        let t2 = rng.gen_range(0.0..1.0);
        let g = SimilarityGraph::from_pairwise(n, |i, j| {
            let h = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((i * 31 + j) as u64)
                .wrapping_mul(0xBF58476D1CE4E5B9);
            ((h >> 11) as f64 / (1u64 << 53) as f64).min(1.0)
        });
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        assert!(partition_by_threshold(&g, lo).len() <= partition_by_threshold(&g, hi).len());
    });
}

#[test]
fn ssmm_summary_obeys_budget_and_uniqueness() {
    check(CASES, |rng| {
        let n = rng.gen_range(1usize..14);
        let seed: u64 = rng.gen();
        let tw = rng.gen_range(0.0..1.0);
        let g = SimilarityGraph::from_pairwise(n, |i, j| {
            let h = seed
                .wrapping_add((i * 131 + j * 17) as u64)
                .wrapping_mul(0x94D049BB133111EB);
            ((h >> 11) as f64 / (1u64 << 53) as f64).min(1.0)
        });
        let s = Ssmm.summarize(&g, tw);
        assert!(s.selected.len() <= s.budget);
        assert!(s.budget <= n);
        let mut sel = s.selected.clone();
        sel.sort_unstable();
        sel.dedup();
        assert_eq!(sel.len(), s.selected.len(), "duplicate selections");
        // Every partition with a member selected is represented at most...
        // and the union of partitions is the ground set.
        let covered: usize = s.partitions.iter().map(|p| p.len()).sum();
        assert_eq!(covered, n);
    });
}

#[test]
fn transfer_duration_is_monotone_in_bytes() {
    check(CASES, |rng| {
        let seed = rng.gen();
        let b1 = rng.gen_range(0..200_000usize);
        let b2 = rng.gen_range(0..200_000usize);
        let ch = Channel::new(BandwidthTrace::fluctuating(seed, 32_000.0, 512_000.0, 2.0).unwrap());
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let d_lo = ch.transfer_duration(0.0, lo).unwrap();
        let d_hi = ch.transfer_duration(0.0, hi).unwrap();
        assert!(d_lo <= d_hi + 1e-9);
    });
}

#[test]
fn resumable_transfer_completes_or_errors_with_monotone_ledger() {
    use bees::core::{Client, CoreError, ResumableOutcome};
    use bees::energy::EnergyCategory;
    use bees::net::{FaultModel, NetError};

    check(CASES, |rng| {
        let seed = rng.gen();
        let drop_p = rng.gen_range(0.0..0.9);
        let payloads = arb_vec(rng, 1..6, |rng| rng.gen_range(1..100_000usize));
        let config = BeesConfig {
            trace: BandwidthTrace::constant(256_000.0).unwrap(),
            fault: FaultModel::new(seed, drop_p, 0.2, 20.0, 6.0).unwrap(),
            battery: Battery::from_joules(1e9),
            ..BeesConfig::default()
        };
        let mut client = Client::try_new(0, &config).unwrap();
        let mut last_total = 0.0f64;
        let mut last_battery = client.battery().remaining_joules();
        for bytes in payloads {
            match client.transmit_resumable(EnergyCategory::ImageUpload, bytes, false) {
                // Either every byte is confirmed...
                Ok(ResumableOutcome::Complete(summary)) => {
                    assert_eq!(summary.delivered_bytes, bytes)
                }
                // ...or the typed retry-exhaustion error reports a strict
                // partial delivery.
                Err(CoreError::Net(NetError::RetriesExhausted {
                    delivered_bytes,
                    total_bytes,
                    ..
                })) => {
                    assert!(delivered_bytes < total_bytes);
                    assert_eq!(total_bytes, bytes);
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
            // Energy only accrues and the battery only drains, success or not.
            let total = client.ledger().total();
            let battery = client.battery().remaining_joules();
            assert!(total >= last_total - 1e-9, "ledger went backwards");
            assert!(battery <= last_battery + 1e-9, "battery recharged itself");
            last_total = total;
            last_battery = battery;
        }
    });
}

#[test]
fn faulty_channel_progress_is_monotone_across_retries() {
    use bees::net::{FaultModel, FaultyChannel};

    check(CASES, |rng| {
        let seed: u64 = rng.gen();
        let drop_p = rng.gen_range(0.0..1.0);
        let bytes = rng.gen_range(1..200_000usize);
        let trace = BandwidthTrace::fluctuating(seed ^ 0xABCD, 32_000.0, 512_000.0, 2.0).unwrap();
        let ch = Channel::new(trace).with_stall_limit(60.0).unwrap();
        let faults = FaultModel::new(seed, drop_p, 0.3, 15.0, 5.0).unwrap();
        let mut fc = FaultyChannel::new(ch, faults);
        let mut now = 0.0f64;
        let mut remaining = bytes;
        for _ in 0..32 {
            let out = fc.transfer(now, remaining, 10.0);
            assert!(out.delivered_bytes <= remaining, "over-delivered");
            assert!(out.elapsed_s >= 0.0);
            remaining -= out.delivered_bytes;
            now += out.elapsed_s + 1.0;
            if out.completed() {
                assert_eq!(remaining, 0, "completed with bytes left over");
                break;
            }
        }
    });
}

#[test]
fn battery_never_goes_negative() {
    check(CASES, |rng| {
        let mut b = Battery::from_joules(rng.gen_range(1.0..1000.0));
        for _ in 0..rng.gen_range(0..20) {
            b.drain(rng.gen_range(0.0..500.0));
            assert!(b.remaining_joules() >= 0.0);
            assert!(b.fraction() >= 0.0 && b.fraction() <= 1.0);
        }
    });
}

#[test]
fn linear_schemes_respect_clamps() {
    check(CASES, |rng| {
        let ebat = rng.gen_range(-1.0..2.0);
        for scheme in [
            LinearScheme::eac(),
            LinearScheme::eau(),
            LinearScheme::edr(0.1, 0.05),
        ] {
            let v = scheme.value(ebat);
            assert!(v >= scheme.min && v <= scheme.max);
        }
    });
}

#[test]
fn ledger_total_equals_sum_of_categories() {
    use bees::energy::EnergyCategory;
    check(CASES, |rng| {
        let mut ledger = EnergyLedger::new();
        let mut expected = 0.0;
        for _ in 0..rng.gen_range(0..30) {
            let c = rng.gen_range(0usize..7);
            let j = rng.gen_range(0.0..100.0);
            ledger.record(EnergyCategory::ALL[c], j);
            expected += j;
        }
        assert!((ledger.total() - expected).abs() < 1e-9);
    });
}

#[test]
fn haversine_is_symmetric_bounded_and_zero_on_identity() {
    check(CASES, |rng| {
        let a = (rng.gen_range(-180.0..180.0), rng.gen_range(-90.0..90.0));
        let b = (rng.gen_range(-180.0..180.0), rng.gen_range(-90.0..90.0));
        let d_ab = haversine_km(a, b);
        let d_ba = haversine_km(b, a);
        assert!(d_ab.is_finite() && d_ab >= 0.0);
        assert!((d_ab - d_ba).abs() < 1e-9, "asymmetric: {d_ab} vs {d_ba}");
        // Half the great circle is the farthest two points can be.
        assert!(d_ab <= std::f64::consts::PI * 6371.0088 + 1e-6);
        assert!(haversine_km(a, a) < 1e-9);
    });
}

#[test]
fn haversine_handles_antimeridian_and_poles() {
    check(CASES, |rng| {
        let lat = rng.gen_range(-85.0..85.0);
        let lon = rng.gen_range(-180.0..180.0);
        let eps = rng.gen_range(0.0..0.25);
        // Wrapping the antimeridian is a short hop, not a lap around the
        // globe: ±(180 − ε) at the same latitude are 2ε of longitude apart.
        let east = (180.0 - eps, lat);
        let west = (-(180.0 - eps), lat);
        let wrapped = haversine_km(east, west);
        let local = haversine_km((0.0 - eps, lat), (0.0 + eps, lat));
        assert!(
            (wrapped - local).abs() < 1e-6,
            "wrap {wrapped} vs local {local}"
        );
        // A full revolution of longitude is the same point.
        assert!(haversine_km((lon, lat), (lon + 360.0, lat)) < 1e-6);
        // Every longitude at a pole is the same point; pole to pole is half
        // the great circle.
        assert!(haversine_km((lon, 90.0), (0.0, 90.0)) < 1e-6);
        let pole_to_pole = haversine_km((lon, 90.0), (lon, -90.0));
        assert!((pole_to_pole - std::f64::consts::PI * 6371.0088).abs() < 1e-6);
    });
}

#[test]
fn radius_zero_matches_exactly_the_query_point() {
    check(CASES, |rng| {
        let lon = rng.gen_range(-180.0..180.0);
        let lat = rng.gen_range(-85.0..85.0);
        let dlon = rng.gen_range(0.001..1.0);
        let dlat = rng.gen_range(0.001..1.0);
        let q = RetrievalQuery::new().near(lon, lat, 0.0);
        assert!(q.passes_filters(Some((lon, lat)), None));
        assert!(!q.passes_filters(Some((lon + dlon, lat)), None));
        assert!(!q.passes_filters(Some((lon, (lat + dlat).min(89.9))), None));
        assert!(!q.passes_filters(None, None));
    });
}

#[test]
fn composed_retrieval_equals_sequential_filtering() {
    check(CASES, |rng| {
        let sets = arb_vec(rng, 2..8, |rng| arb_vec(rng, 0..16, arb_descriptor));
        let geos: Vec<(f64, f64)> = (0..8)
            .map(|_| (rng.gen_range(-170.0..170.0), rng.gen_range(-80.0..80.0)))
            .collect();
        let times: Vec<f64> = (0..8).map(|_| rng.gen_range(0.0..100.0)).collect();
        let radius_km = rng.gen_range(100.0..8000.0);
        let t_lo = rng.gen_range(0.0..50.0);
        let span = rng.gen_range(0.0..60.0);
        // Composing geo + time + similarity in one RetrievalQuery must
        // return exactly what querying by similarity alone and then
        // filtering hit by hit returns, in the same order.
        let config = BeesConfig::default();
        let mut server = Server::try_new(&config).unwrap();
        let mut side = Vec::new();
        for (i, descs) in sets.iter().enumerate() {
            let geo = geos[i % geos.len()];
            let t = times[i % times.len()];
            server.set_time(t);
            server.ingest(
                bees::core::IngestRequest::full(1000)
                    .with_features(features(descs.clone()))
                    .with_geotag(geo),
            );
            side.push((geo, t));
        }
        let probe = features(sets[0].clone());
        let center = geos[0];
        let (t0, t1) = (t_lo, t_lo + span);

        let composed = server.answer(
            &RetrievalQuery::new()
                .near(center.0, center.1, radius_km)
                .within_time(t0, t1)
                .similar_to(&probe),
        );
        let unfiltered = server.answer(&RetrievalQuery::new().similar_to(&probe));
        let sequential: Vec<_> = unfiltered
            .hits
            .iter()
            .filter(|h| {
                let (geo, t) = side[h.id.0 as usize];
                haversine_km(center, geo) <= radius_km && t >= t0 && t <= t1
            })
            .map(|h| (h.id, h.score))
            .collect();
        let composed_pairs: Vec<_> = composed.hits.iter().map(|h| (h.id, h.score)).collect();
        assert_eq!(composed_pairs, sequential);
    });
}

fn store_fidelity(n: u8) -> bees::store::Fidelity {
    use bees::store::Fidelity;
    match n % 4 {
        0 => Fidelity::OnDevice,
        1 => Fidelity::Thumbnail,
        2 => Fidelity::Partial,
        _ => Fidelity::Full,
    }
}

/// A size-only insert: `(size, fingerprint, fidelity code)`.
fn arb_stub_insert(rng: &mut ChaCha8Rng) -> (usize, u64, u8) {
    (
        rng.gen_range(1..5000),
        rng.gen_range(0..6),
        rng.gen_range(0..4),
    )
}

#[test]
fn store_ledger_counts_every_insert() {
    use bees::store::{ContentStore, InsertOutcome, StorePayload};
    check(STORE_CASES, |rng| {
        let ops = arb_vec(rng, 1..40, arb_stub_insert);
        let mut store = ContentStore::new();
        let mut stored = 0usize;
        let mut hits = 0usize;
        for (i, &(size, fingerprint, f)) in ops.iter().enumerate() {
            let payload = StorePayload::Size { size, fingerprint };
            match store.insert(i as u64, payload, store_fidelity(f), i as f64) {
                InsertOutcome::Stored { len } => stored += len,
                InsertOutcome::DedupHit => hits += 1,
            }
        }
        // Every image is filed, every byte is accounted exactly once, and
        // the ledger identity holds with no recompression pass run.
        assert_eq!(store.image_count(), ops.len());
        assert_eq!(store.blob_count() + hits, ops.len());
        assert_eq!(store.ledger().stored_bytes, stored);
        assert_eq!(store.ledger().dedup_hits, hits);
        assert_eq!(store.ledger().reclaimed_bytes, 0);
        assert_eq!(
            store.live_bytes(),
            store.ledger().stored_bytes - store.ledger().reclaimed_bytes
        );
        // Each image resolves to a blob that counts it, and sits in its own
        // group (grouping is the server's job, not insert's).
        for i in 0..ops.len() as u64 {
            let blob = store.blob_of(i).expect("inserted image resolves");
            assert!(blob.refs >= 1);
            assert!(store.group_of(i).contains(&i));
        }
        // Two identical replays lay out identically.
        let mut replay = ContentStore::new();
        for (i, &(size, fingerprint, f)) in ops.iter().enumerate() {
            let payload = StorePayload::Size { size, fingerprint };
            replay.insert(i as u64, payload, store_fidelity(f), i as f64);
        }
        assert_eq!(store.layout_digest(), replay.layout_digest());
    });
}

#[test]
fn store_dedup_keeps_the_best_fidelity_copy() {
    use bees::store::{ContentStore, Fidelity, StorePayload};
    use std::collections::HashMap;
    check(STORE_CASES, |rng| {
        let ops = arb_vec(rng, 1..30, |rng| {
            let bytes = arb_vec(rng, 1..6, |rng| rng.gen_range(0u8..4));
            (bytes, rng.gen_range(0u8..4))
        });
        let mut store = ContentStore::new();
        let mut best: HashMap<Vec<u8>, Fidelity> = HashMap::new();
        for (i, (bytes, f)) in ops.iter().enumerate() {
            let fid = store_fidelity(*f);
            store.insert(i as u64, StorePayload::Bytes(bytes.clone()), fid, 0.0);
            let e = best.entry(bytes.clone()).or_insert(fid);
            if fid > *e {
                *e = fid;
            }
            // A dedup hit must never downgrade the shared blob's fidelity.
            assert_eq!(
                store.blob_of(i as u64).expect("stored").fidelity,
                best[bytes]
            );
        }
    });
}

#[test]
fn store_group_merges_are_order_invariant() {
    use bees::store::{ContentStore, Fidelity, StorePayload};
    check(STORE_CASES, |rng| {
        let n = rng.gen_range(2usize..12);
        let edges = arb_vec(rng, 0..20, |rng| {
            (rng.gen_range(0usize..12), rng.gen_range(0usize..12))
        });
        let build = |order: &[(usize, usize)]| {
            let mut store = ContentStore::new();
            for i in 0..n as u64 {
                let payload = StorePayload::Size {
                    size: 100,
                    fingerprint: i,
                };
                store.insert(i, payload, Fidelity::Full, 0.0);
            }
            for &(a, b) in order {
                store.merge_groups((a % n) as u64, (b % n) as u64);
            }
            let groups: Vec<Vec<u64>> = (0..n as u64).map(|i| store.group_of(i).to_vec()).collect();
            (groups, store.layout_digest())
        };
        let forward = build(&edges);
        let mut reversed = edges.clone();
        reversed.reverse();
        // The final partition (and the canonical digest) depends only on
        // which merges happened, never on their order, and membership stays
        // ascending.
        assert_eq!(&forward, &build(&reversed));
        for members in &forward.0 {
            assert!(members.windows(2).all(|w| w[0] < w[1]), "{members:?}");
        }
    });
}

#[test]
fn store_recompression_skips_stubs_and_is_idempotent() {
    use bees::store::{ContentStore, StorageConfig, StorePayload};
    check(STORE_CASES, |rng| {
        let ops = arb_vec(rng, 1..30, arb_stub_insert);
        let mut store = ContentStore::new();
        for (i, &(size, fingerprint, f)) in ops.iter().enumerate() {
            let payload = StorePayload::Size { size, fingerprint };
            store.insert(i as u64, payload, store_fidelity(f), 0.0);
        }
        // Fully permissive gates: only the no-real-bytes gate can hold.
        let cfg = StorageConfig {
            recompress_min_age_s: 0.0,
            ..StorageConfig::default()
        };
        let before = store.layout_digest();
        let first = store.run_recompression(1e9, &cfg);
        // Size-only stubs carry no bytes: nothing to re-encode, nothing
        // marked, nothing reclaimed — and a second pass changes nothing.
        assert_eq!(first.recompressed, 0);
        assert_eq!(first.bytes_reclaimed, 0);
        assert_eq!(store.layout_digest(), before);
        let second = store.run_recompression(1e9, &cfg);
        assert_eq!(second.recompressed, 0);
        assert_eq!(store.layout_digest(), before);
        assert_eq!(store.ledger().reclaimed_bytes, 0);
    });
}
