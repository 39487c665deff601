//! The energy cost model: joules per unit of simulated work.
//!
//! Coefficients are calibrated to published smartphone measurements rather
//! than to the paper's absolute numbers (which depend on its specific
//! handset): ORB on a ~1 MPix image costs a few tenths of a joule, SIFT
//! roughly two orders of magnitude more (the paper's stated ratio), WiFi
//! transmission draws well under a watt, and a bright screen about one watt.
//! What the experiments depend on is the *relative ordering* these
//! coefficients preserve. Every client runs the same model, so each
//! coefficient is a constant.

use bees_features::{ExtractionStats, ExtractorKind};

/// Joules per pixel of ORB detection work (pyramid + FAST + Harris): ~0.3 J
/// for a 1 MPix image with a ~1.9 MPix pyramid.
pub const ORB_JOULES_PER_PIXEL: f64 = 1.5e-7;
/// Joules per keypoint for the BRIEF descriptor.
pub const ORB_JOULES_PER_KEYPOINT: f64 = 6.0e-5;
/// Joules per scale-space pixel of SIFT work (DoG + extrema): roughly two
/// orders of magnitude above ORB per unit work (paper §III-D: "ORB is
/// about two orders faster than SIFT").
pub const SIFT_JOULES_PER_PIXEL: f64 = 6.0e-6;
/// Joules per keypoint for the 128-d SIFT descriptor.
pub const SIFT_JOULES_PER_KEYPOINT: f64 = 2.0e-3;
/// Joules per scale-space pixel for PCA-SIFT (same detector as SIFT).
pub const PCA_SIFT_JOULES_PER_PIXEL: f64 = 6.0e-6;
/// Joules per keypoint for the PCA projection (patch + 162→36 matmul);
/// more than SIFT's descriptor, reflecting "PCA-SIFT ... increasing the
/// time of computing features".
pub const PCA_SIFT_JOULES_PER_KEYPOINT: f64 = 3.2e-3;
/// Joules per pixel of global-feature (color histogram) computation — the
/// cheap extraction PhotoNet-style schemes use.
pub const HISTOGRAM_JOULES_PER_PIXEL: f64 = 8.0e-9;
/// Joules per pixel of bitmap resize work.
pub const RESIZE_JOULES_PER_PIXEL: f64 = 2.0e-8;
/// Joules per pixel of DCT encode work.
pub const ENCODE_JOULES_PER_PIXEL: f64 = 6.0e-8;
/// Joules per descriptor pair compared during in-batch matching.
pub const MATCHING_JOULES_PER_PAIR: f64 = 2.0e-8;
/// Sustained CPU power while computing, in watts — converts CPU joules into
/// CPU seconds for the delay model (Fig. 11 includes extraction time in the
/// upload delay).
pub const CPU_WATTS: f64 = 2.0;
/// Radio power while transmitting, in watts.
pub const RADIO_TX_WATTS: f64 = 0.8;
/// Radio power while receiving, in watts.
pub const RADIO_RX_WATTS: f64 = 0.5;
/// Baseline power (screen bright + system) in watts, drawn for the whole
/// wall-clock duration of a session.
pub const IDLE_WATTS: f64 = 1.0;

/// Energy to extract features given the extractor kind and the work it
/// reported.
pub fn extraction_energy(kind: ExtractorKind, stats: &ExtractionStats) -> f64 {
    let (per_pixel, per_keypoint) = match kind {
        ExtractorKind::Orb => (ORB_JOULES_PER_PIXEL, ORB_JOULES_PER_KEYPOINT),
        ExtractorKind::Sift => (SIFT_JOULES_PER_PIXEL, SIFT_JOULES_PER_KEYPOINT),
        ExtractorKind::PcaSift => (PCA_SIFT_JOULES_PER_PIXEL, PCA_SIFT_JOULES_PER_KEYPOINT),
    };
    stats.pixels_processed as f64 * per_pixel + stats.keypoints_described as f64 * per_keypoint
}

/// Energy to compute a color histogram over `pixels` pixels.
pub fn histogram_energy(pixels: usize) -> f64 {
    pixels as f64 * HISTOGRAM_JOULES_PER_PIXEL
}

/// Energy to resize `pixels` source pixels.
pub fn resize_energy(pixels: usize) -> f64 {
    pixels as f64 * RESIZE_JOULES_PER_PIXEL
}

/// Energy to DCT-encode `pixels` pixels.
pub fn encode_energy(pixels: usize) -> f64 {
    pixels as f64 * ENCODE_JOULES_PER_PIXEL
}

/// Energy to brute-force match two descriptor sets of the given sizes
/// (cross-check costs both directions; the constant absorbs the 2×).
pub fn matching_energy(n_query: usize, n_train: usize) -> f64 {
    (n_query * n_train) as f64 * MATCHING_JOULES_PER_PAIR
}

/// CPU seconds corresponding to `joules` of computation — the delay
/// contribution of on-phone work.
pub fn cpu_seconds(joules: f64) -> f64 {
    joules / CPU_WATTS
}

/// Radio energy for `seconds` of transmission.
pub fn radio_tx_energy(seconds: f64) -> f64 {
    seconds * RADIO_TX_WATTS
}

/// Radio energy for `seconds` of reception.
pub fn radio_rx_energy(seconds: f64) -> f64 {
    seconds * RADIO_RX_WATTS
}

/// Baseline (screen/system) energy over `seconds` of wall-clock time.
pub fn idle_energy(seconds: f64) -> f64 {
    seconds * IDLE_WATTS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mpix_stats() -> ExtractionStats {
        ExtractionStats {
            pixels_processed: 1_900_000, // ~1 MPix image pyramid
            keypoints_described: 500,
            descriptor_bytes: 16_000,
        }
    }

    #[test]
    fn sift_costs_orders_more_than_orb() {
        let orb = extraction_energy(ExtractorKind::Orb, &mpix_stats());
        let sift = extraction_energy(ExtractorKind::Sift, &mpix_stats());
        assert!(sift / orb > 20.0, "sift {sift} orb {orb}");
        assert!(orb > 0.0);
    }

    #[test]
    fn pca_sift_costs_more_than_sift() {
        let sift = extraction_energy(ExtractorKind::Sift, &mpix_stats());
        let pca = extraction_energy(ExtractorKind::PcaSift, &mpix_stats());
        assert!(pca > sift);
    }

    #[test]
    fn orb_on_megapixel_image_is_subjoule() {
        let e = extraction_energy(ExtractorKind::Orb, &mpix_stats());
        assert!(e > 0.05 && e < 1.0, "got {e}");
    }

    #[test]
    fn radio_energy_is_power_times_time() {
        assert!((radio_tx_energy(10.0) - 8.0).abs() < 1e-9);
        assert!((radio_rx_energy(10.0) - 5.0).abs() < 1e-9);
        assert!((idle_energy(60.0) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_seconds_inverts_power() {
        assert!((cpu_seconds(4.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn matching_energy_scales_with_pairs() {
        assert_eq!(matching_energy(0, 100), 0.0);
        assert!((matching_energy(500, 500) - 250_000.0 * MATCHING_JOULES_PER_PAIR).abs() < 1e-12);
    }

    #[test]
    fn resize_is_cheaper_than_extraction_per_pixel() {
        let cheaper = |per_pixel: f64| per_pixel < ORB_JOULES_PER_PIXEL;
        assert!(cheaper(RESIZE_JOULES_PER_PIXEL));
        assert!(cheaper(ENCODE_JOULES_PER_PIXEL));
        // Global features are the cheapest extraction of all (the paper's
        // related work uses them for exactly that reason).
        assert!(cheaper(HISTOGRAM_JOULES_PER_PIXEL));
    }
}
