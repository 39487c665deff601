//! Fig. 12: situation-awareness coverage — unique geotagged locations the
//! server receives from a fleet of phones before their batteries die,
//! Direct Upload vs BEES.
//!
//! Paper shape: BEES uploads moderately more images but covers far more
//! *unique locations* (+97 % in the paper) because it spends no energy on
//! redundant photos of popular spots.

use crate::args::ExpArgs;
use crate::table::{pct, Table};
use bees_core::schemes::{Bees, DirectUpload, CAMERA_QUALITY};
use bees_core::sessions::{run_coverage, CoverageConfig, CoverageResult};
use bees_core::BeesConfig;
use bees_datasets::ParisConfig;
use bees_energy::{model, Battery};
use bees_net::BandwidthTrace;

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Direct Upload's run.
    pub direct: CoverageResult,
    /// BEES' run.
    pub bees: CoverageResult,
}

impl Fig12Result {
    /// Prints the paper-style comparison.
    pub fn print(&self) {
        println!("\n== Fig. 12: coverage (unique locations received) ==");
        let mut t = Table::new(vec![
            "scheme",
            "images uploaded",
            "unique locations",
            "corpus locations",
        ]);
        for r in [&self.direct, &self.bees] {
            t.row(vec![
                r.scheme.clone(),
                r.images_received.to_string(),
                r.unique_locations.to_string(),
                r.corpus_locations.to_string(),
            ]);
        }
        t.print();
        let d = self.direct.unique_locations.max(1) as f64;
        println!(
            "BEES uploads {} vs {} images and covers {} more unique locations",
            self.bees.images_received,
            self.direct.images_received,
            pct(self.bees.unique_locations as f64 / d - 1.0)
        );
    }
}

/// Runs the fleet session for both schemes.
pub fn run(args: &ExpArgs) -> Fig12Result {
    let mut config = BeesConfig {
        trace: BandwidthTrace::constant(256_000.0).expect("constant trace is valid"),
        ..BeesConfig::default()
    };

    let n_phones = args.scaled(10, 2);
    let n_images = args.scaled(1200, 60);
    let group_size = args.scaled(20, 3);
    let scene = bees_datasets::SceneConfig::default();
    // As in the paper's setup, a Direct Upload group nearly fills the
    // interval (40 x ~22 s of a 20-minute slot), so transmission energy is
    // a first-class cost, not a rounding error next to the screen.
    let probe = bees_datasets::Scene::new(args.seed ^ 0xF112, scene)
        .render(&bees_datasets::ViewJitter::identity());
    let camera_bytes = bees_image::codec::encoded_rgb_size(&probe, CAMERA_QUALITY)
        .expect("valid camera quality") as f64;
    let upload_s = camera_bytes * 8.0 / 256_000.0;
    let interval_s = (group_size as f64 * upload_s * 1.35).max(10.0);
    // Budget each phone about a third of the intervals it would need to
    // drain its whole slice with Direct Upload, so batteries are the
    // binding constraint (as in the paper).
    let per_phone = n_images / n_phones;
    let intervals_needed = (per_phone as f64 / group_size as f64).ceil();
    let per_interval =
        interval_s * model::IDLE_WATTS + group_size as f64 * upload_s * model::RADIO_TX_WATTS;
    config.battery = Battery::from_joules(per_interval * intervals_needed / 3.0);

    let cov = CoverageConfig {
        n_phones,
        group_size,
        interval_s,
        paris: ParisConfig {
            n_locations: (n_images / 3).max(4),
            n_images,
            zipf_s: 1.0,
            scene,
            ..ParisConfig::default()
        },
        seed: args.seed,
    };

    let direct = run_coverage(&DirectUpload::new(&config), &config, &cov)
        .expect("constant trace cannot stall");
    let bees =
        run_coverage(&Bees::adaptive(&config), &config, &cov).expect("constant trace cannot stall");
    Fig12Result { direct, bees }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bees_covers_more_locations() {
        let args = ExpArgs {
            scale: 0.1,
            seed: 81,
            quick: true,
            ..ExpArgs::default()
        };
        let r = run(&args);
        // Both are battery-limited.
        assert!(r.direct.images_received < r.direct.corpus_images);
        // The headline: BEES covers at least as many unique locations.
        assert!(
            r.bees.unique_locations >= r.direct.unique_locations,
            "BEES {} vs Direct {}",
            r.bees.unique_locations,
            r.direct.unique_locations
        );
    }
}
