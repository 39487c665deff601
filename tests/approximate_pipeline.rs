//! Integration tests of the Approximate Image Sharing stages across
//! crates: AFE (bitmap compression + ORB), ARD (EDR thresholds + SSMM),
//! and AIU (resolution + quality compression) behave as the paper claims.

use bees::datasets::{Scene, SceneConfig, ViewJitter};
use bees::energy::LinearScheme;
use bees::features::orb::Orb;
use bees::features::similarity::{jaccard_similarity, SimilarityConfig};
use bees::features::FeatureExtractor;
use bees::image::{codec, metrics, resize};
use bees::submodular::{SimilarityGraph, Ssmm};

fn scene_pair(seed: u64) -> (bees::image::GrayImage, bees::image::GrayImage) {
    let scene = Scene::new(seed, SceneConfig::default());
    let views = scene.render_views(seed + 1, 2);
    (views[0].to_gray(), views[1].to_gray())
}

#[test]
fn afe_compression_preserves_similarity_ranking() {
    // The Fig. 3 claim is about *precision* (ranking), not absolute
    // scores: under every EAC compression level the battery can choose, a
    // compressed query must still score its true partner above unrelated
    // scenes. Absolute scores do attenuate with C — that is the "slight
    // loss in detection precision" the paper trades for energy.
    let orb = Orb::default();
    let cfg = SimilarityConfig::default();
    let pairs: Vec<_> = (0..5u64).map(|s| scene_pair(10 + s)).collect();
    let partners: Vec<_> = pairs.iter().map(|(_, p)| orb.extract(p)).collect();
    let strangers: Vec<_> = (0..3u64)
        .map(|s| {
            let (img, _) = scene_pair(100 + s);
            orb.extract(&img)
        })
        .collect();
    for (ebat, allowed_failures) in [(1.0, 0usize), (0.5, 1), (0.05, 2)] {
        let c = LinearScheme::eac().value(ebat);
        let mut failures = 0usize;
        for ((a, _), f_partner) in pairs.iter().zip(&partners) {
            let compressed = resize::compress_bitmap(a, c).unwrap();
            let query = orb.extract(&compressed);
            let to_partner = jaccard_similarity(&query, f_partner, &cfg);
            let beats_all = strangers
                .iter()
                .all(|s| to_partner > jaccard_similarity(&query, s, &cfg));
            if !beats_all {
                failures += 1;
            }
        }
        assert!(
            failures <= allowed_failures,
            "Ebat {ebat} (C = {c}): ranking failed on {failures}/{} scenes",
            pairs.len()
        );
    }
}

#[test]
fn edr_threshold_still_separates_at_every_battery_level() {
    // The threshold band [T(0), T(1)] must sit between the dissimilar and
    // similar score populations.
    let orb = Orb::default();
    let cfg = SimilarityConfig::default();
    let edr = bees::core::schemes::EDR;
    let (a1, a2) = scene_pair(20);
    let (b1, _) = scene_pair(21);
    let similar = jaccard_similarity(&orb.extract(&a1), &orb.extract(&a2), &cfg);
    let dissimilar = jaccard_similarity(&orb.extract(&a1), &orb.extract(&b1), &cfg);
    for ebat in [0.0, 0.3, 0.7, 1.0] {
        let t = edr.value(ebat);
        assert!(similar > t, "Ebat {ebat}: similar {similar} <= T {t}");
        assert!(
            dissimilar < t,
            "Ebat {ebat}: dissimilar {dissimilar} >= T {t}"
        );
    }
}

#[test]
fn ssmm_budget_shrinks_with_battery() {
    // Lower Ebat -> lower Tw -> more images in each subgraph -> smaller
    // summaries (more elimination), the EDR story applied in-batch.
    let orb = Orb::default();
    let cfg = SimilarityConfig::default();
    let scene_cfg = SceneConfig {
        width: 128,
        height: 96,
        n_shapes: 12,
        texture_amp: 8.0,
    };
    // Six images: three pairs of views.
    let mut features = Vec::new();
    for s in 0..3u64 {
        let scene = Scene::new(30 + s, scene_cfg);
        for img in scene.render_views(s, 2) {
            features.push(orb.extract(&img.to_gray()));
        }
    }
    let graph = SimilarityGraph::from_pairwise(features.len(), |i, j| {
        jaccard_similarity(&features[i], &features[j], &cfg)
    });
    let ssmm = Ssmm;
    let tw = bees::core::schemes::EDR;
    let low = ssmm.summarize(&graph, tw.value(0.0));
    let high = ssmm.summarize(&graph, tw.value(1.0));
    assert!(low.budget <= high.budget);
    // The three view-pairs must collapse to three representatives.
    assert_eq!(low.budget, 3, "partitions: {:?}", low.partitions);
    assert_eq!(low.selected.len(), 3);
}

#[test]
fn aiu_trades_ssim_for_bytes_monotonically() {
    let img = Scene::new(40, SceneConfig::default()).render(&ViewJitter::identity());
    let gray = img.to_gray();
    let mut last_bytes = usize::MAX;
    for (proportion, min_ssim) in [(0.1, 0.85), (0.5, 0.7), (0.85, 0.5)] {
        let q = bees::core::BeesConfig::quality_for_proportion(proportion);
        let encoded = codec::encode_rgb(&img, q).unwrap();
        let decoded = codec::decode_rgb(&encoded).unwrap();
        let ssim = metrics::ssim(&gray, &decoded.to_gray()).unwrap();
        assert!(
            encoded.len() <= last_bytes,
            "bytes must shrink at proportion {proportion}"
        );
        assert!(
            ssim > min_ssim,
            "ssim {ssim} too low at proportion {proportion}"
        );
        last_bytes = encoded.len();
    }
}

#[test]
fn eau_resolution_tracks_battery() {
    let img = Scene::new(41, SceneConfig::default()).render(&ViewJitter::identity());
    let eau = LinearScheme::eau();
    let mut last_pixels = usize::MAX;
    for ebat in [1.0, 0.6, 0.2, 0.0] {
        let cr = eau.value(ebat);
        let shrunk = resize::compress_resolution_rgb(&img, cr).unwrap();
        assert!(shrunk.pixel_count() <= last_pixels, "Ebat {ebat}");
        last_pixels = shrunk.pixel_count();
    }
    // The paper's example: even at 5% battery the image keeps >= (1-0.8)^2
    // of its pixels.
    let cr = eau.value(0.05);
    let shrunk = resize::compress_resolution_rgb(&img, cr).unwrap();
    assert!(shrunk.pixel_count() as f64 >= 0.03 * img.pixel_count() as f64);
}

#[test]
fn server_side_extraction_matches_client_side() {
    // CBRD only works because both sides extract comparable features; the
    // preloaded (server-extracted) features must match a client query of a
    // similar view.
    use bees::core::{BeesConfig, RetrievalQuery, Server};
    let config = BeesConfig::default();
    let mut server = Server::try_new(&config).unwrap();
    let scene = Scene::new(50, SceneConfig::default());
    server.preload(bees::core::PreloadBatch::new(&[
        scene.render(&ViewJitter::identity())
    ]));
    let other_view = scene.render(&ViewJitter {
        dx: 3.0,
        dy: -2.0,
        brightness: 8,
        ..ViewJitter::identity()
    });
    let orb = Orb::new(config.orb);
    let query = orb.extract(&other_view.to_gray());
    let result = server.answer(&RetrievalQuery::new().similar_to(&query).top_k(1));
    let hit = result.hits.first().expect("indexed image");
    assert!(
        hit.score > bees::core::schemes::EDR.value(1.0),
        "similarity {}",
        hit.score
    );
}
