//! Property tests of the energy substrate: battery conservation,
//! adaptive-scheme monotonicity, and cost-model linearity.

use bees_energy::{model, Battery, EnergyCategory, EnergyLedger, LinearScheme};
use bees_features::{ExtractionStats, ExtractorKind};
use bees_rng::{check, ChaCha8Rng};

const CASES: u64 = 64;

/// Up to 19 `(category index, joules)` entries.
fn arb_entries(rng: &mut ChaCha8Rng) -> Vec<(u8, f64)> {
    (0..rng.gen_range(0..20))
        .map(|_| (rng.gen_range(0u8..8), rng.gen_range(0.0..50.0)))
        .collect()
}

#[test]
fn battery_conserves_energy() {
    check(CASES, |rng| {
        let capacity = rng.gen_range(1.0..10_000.0);
        let mut b = Battery::from_joules(capacity);
        let mut total_drained = 0.0;
        for _ in 0..rng.gen_range(0..30) {
            total_drained += b.drain(rng.gen_range(0.0..1_000.0));
        }
        assert!((b.remaining_joules() + total_drained - capacity).abs() < 1e-6);
    });
}

#[test]
fn eac_and_eau_fall_with_battery_edr_rises() {
    check(CASES, |rng| {
        let e1 = rng.gen_range(0.0..1.0);
        let e2 = rng.gen_range(0.0..1.0);
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        // More battery -> less compression.
        assert!(LinearScheme::eac().value(hi) <= LinearScheme::eac().value(lo) + 1e-12);
        assert!(LinearScheme::eau().value(hi) <= LinearScheme::eau().value(lo) + 1e-12);
        // More battery -> higher (stricter) redundancy threshold.
        let edr = LinearScheme::edr(0.12, 0.03);
        assert!(edr.value(hi) >= edr.value(lo) - 1e-12);
    });
}

#[test]
fn extraction_energy_is_linear_in_work() {
    check(CASES, |rng| {
        let pixels = rng.gen_range(0..10_000_000usize);
        let kps = rng.gen_range(0..5_000usize);
        for kind in [
            ExtractorKind::Orb,
            ExtractorKind::Sift,
            ExtractorKind::PcaSift,
        ] {
            let one = ExtractionStats {
                pixels_processed: pixels,
                keypoints_described: kps,
                descriptor_bytes: 0,
            };
            let double = ExtractionStats {
                pixels_processed: pixels * 2,
                keypoints_described: kps * 2,
                descriptor_bytes: 0,
            };
            let e1 = model::extraction_energy(kind, &one);
            let e2 = model::extraction_energy(kind, &double);
            assert!((e2 - 2.0 * e1).abs() < 1e-9 * (1.0 + e2), "{kind:?}");
            assert!(e1 >= 0.0);
        }
    });
}

#[test]
fn orb_is_cheapest_for_any_workload() {
    check(CASES, |rng| {
        let stats = ExtractionStats {
            pixels_processed: rng.gen_range(1..10_000_000),
            keypoints_described: rng.gen_range(1..5_000),
            descriptor_bytes: 0,
        };
        let orb = model::extraction_energy(ExtractorKind::Orb, &stats);
        let sift = model::extraction_energy(ExtractorKind::Sift, &stats);
        let pca = model::extraction_energy(ExtractorKind::PcaSift, &stats);
        assert!(orb < sift);
        assert!(sift <= pca);
    });
}

#[test]
fn ledger_merge_is_additive() {
    check(CASES, |rng| {
        let fill = |entries: &[(u8, f64)]| {
            let mut l = EnergyLedger::new();
            for &(c, j) in entries {
                l.record(EnergyCategory::ALL[c as usize], j);
            }
            l
        };
        let la = fill(&arb_entries(rng));
        let lb = fill(&arb_entries(rng));
        let mut merged = la.clone();
        merged.merge(&lb);
        assert!((merged.total() - la.total() - lb.total()).abs() < 1e-9);
        for cat in EnergyCategory::ALL {
            assert!((merged.get(cat) - la.get(cat) - lb.get(cat)).abs() < 1e-9);
            assert_eq!(merged.count(cat), la.count(cat) + lb.count(cat));
        }
    });
}

#[test]
fn radio_energy_scales_with_time() {
    check(CASES, |rng| {
        let t = rng.gen_range(0.0..100_000.0);
        assert!((model::radio_tx_energy(t) - t * model::RADIO_TX_WATTS).abs() < 1e-9);
        assert!(model::radio_rx_energy(t) <= model::radio_tx_energy(t));
    });
}
