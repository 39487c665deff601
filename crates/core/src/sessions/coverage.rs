//! The multi-phone coverage session (paper Fig. 12).
//!
//! A fleet of phones shares one server. Each phone holds a contiguous
//! slice of a geotagged Paris-like corpus and uploads one group per
//! interval until its battery dies. The coverage metric is the number of
//! *unique locations* among the images the server received: by not wasting
//! energy on redundant photos, BEES covers far more ground with the same
//! batteries.

use crate::schemes::{BatchCtx, UploadScheme};
use crate::{BeesConfig, Client, CoreError, Result, Server};
use bees_datasets::{ParisConfig, ParisLike};
use bees_image::RgbImage;

/// Parameters of a coverage run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageConfig {
    /// Number of phones (paper: 25).
    pub n_phones: usize,
    /// Images per uploaded group (paper: 40).
    pub group_size: usize,
    /// Interval between group uploads in seconds (paper: 20 minutes).
    pub interval_s: f64,
    /// The geotagged corpus.
    pub paris: ParisConfig,
    /// Corpus seed.
    pub seed: u64,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        CoverageConfig {
            n_phones: 25,
            group_size: 40,
            interval_s: 1200.0,
            paris: ParisConfig::default(),
            seed: 0xC05E,
        }
    }
}

impl CoverageConfig {
    /// Rejects a run that would panic or never upload: no phones, an empty
    /// group, an upload interval that is negative or not finite, a corpus
    /// with no locations, a scene with a zero side or a bounding box that
    /// is not finite and strictly ordered, or fewer images than phones.
    fn validate(&self) -> Result<()> {
        super::check_counts_and_interval(
            "coverage",
            &[
                ("n_phones", self.n_phones),
                ("group_size", self.group_size),
                ("paris.n_locations", self.paris.n_locations),
            ],
            self.interval_s,
        )?;
        super::check_scene("coverage", "paris.scene", &self.paris.scene)?;
        let (lon0, lon1, lat0, lat1) = self.paris.bbox;
        let finite = [lon0, lon1, lat0, lat1].iter().all(|v| v.is_finite());
        if !(finite && lon0 < lon1 && lat0 < lat1) {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "coverage paris.bbox must be finite with lon_min < lon_max and \
                     lat_min < lat_max, got {:?}",
                    self.paris.bbox
                ),
            });
        }
        if self.paris.n_images < self.n_phones {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "coverage paris.n_images must be at least n_phones ({}), got {}",
                    self.n_phones, self.paris.n_images
                ),
            });
        }
        Ok(())
    }
}

/// Result of a coverage run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageResult {
    /// Scheme name.
    pub scheme: String,
    /// Total images in the corpus.
    pub corpus_images: usize,
    /// Unique locations present in the corpus slice the phones held.
    pub corpus_locations: usize,
    /// Images the server received before all batteries died.
    pub images_received: usize,
    /// Unique locations among the received images — the Fig. 12 metric.
    pub unique_locations: usize,
    /// Phones that exhausted their battery (vs ran out of images).
    pub phones_exhausted: usize,
}

/// Runs the coverage session: all phones share one server and upload in
/// lock-step intervals until every phone is dead or out of images.
///
/// # Errors
///
/// Returns a network error if a channel stalls beyond its limit, or an
/// invalid-config error from server/client construction or naming the
/// [`CoverageConfig`] field that is unusable: a zero `n_phones` or
/// `group_size`, an `interval_s` that is negative or not finite, or a
/// `paris.n_images` below `n_phones`.
pub fn run_coverage(
    scheme: &dyn UploadScheme,
    config: &BeesConfig,
    cov: &CoverageConfig,
) -> Result<CoverageResult> {
    cov.validate()?;
    let corpus = ParisLike::generate(cov.seed, cov.paris);
    let per_phone = corpus.len() / cov.n_phones;

    let mut server = Server::try_new(config)?;
    let mut clients: Vec<Client> = (0..cov.n_phones)
        .map(|i| Client::try_new(i as u64, config))
        .collect::<Result<_>>()?;
    // Next corpus index each phone will upload.
    let mut cursor: Vec<usize> = (0..cov.n_phones).map(|i| i * per_phone).collect();
    let limit: Vec<usize> = (0..cov.n_phones).map(|i| (i + 1) * per_phone).collect();
    let mut alive: Vec<bool> = vec![true; cov.n_phones];
    let mut phones_exhausted = 0usize;

    loop {
        let mut progressed = false;
        for p in 0..cov.n_phones {
            if !alive[p] || cursor[p] >= limit[p] {
                continue;
            }
            progressed = true;
            let interval_start = clients[p].now();
            let end = (cursor[p] + cov.group_size).min(limit[p]);
            let mut batch: Vec<RgbImage> = Vec::with_capacity(end - cursor[p]);
            let mut tags: Vec<(f64, f64)> = Vec::with_capacity(end - cursor[p]);
            for i in cursor[p]..end {
                let geo = corpus.image(i);
                tags.push((geo.lon, geo.lat));
                batch.push(geo.image);
            }
            cursor[p] = end;
            let mut ctx =
                BatchCtx::new(&mut clients[p], &mut server, &batch).with_geotags(&tags)?;
            let report = scheme.upload(&mut ctx)?;
            if report.exhausted {
                alive[p] = false;
                phones_exhausted += 1;
                continue;
            }
            let elapsed = clients[p].now() - interval_start;
            if elapsed < cov.interval_s && clients[p].idle(cov.interval_s - elapsed).is_err() {
                alive[p] = false;
                phones_exhausted += 1;
            }
        }
        if !progressed {
            break;
        }
    }

    // Count the corpus ground truth over the slices actually held by phones.
    let held: usize = limit.last().copied().unwrap_or(0);
    let mut locs: Vec<usize> = (0..held).map(|i| corpus.location_of(i)).collect();
    locs.sort_unstable();
    locs.dedup();

    Ok(CoverageResult {
        scheme: scheme.kind().to_string(),
        corpus_images: held,
        corpus_locations: locs.len(),
        images_received: server.received_images(),
        unique_locations: server.unique_locations(),
        phones_exhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{Bees, DirectUpload};
    use bees_datasets::SceneConfig;
    use bees_energy::Battery;
    use bees_net::BandwidthTrace;

    fn tiny_coverage() -> CoverageConfig {
        CoverageConfig {
            n_phones: 2,
            group_size: 3,
            interval_s: 120.0,
            paris: ParisConfig {
                n_locations: 8,
                n_images: 24,
                scene: SceneConfig {
                    width: 96,
                    height: 72,
                    n_shapes: 8,
                    texture_amp: 8.0,
                },
                ..ParisConfig::default()
            },
            seed: 3,
        }
    }

    fn config(battery_j: f64) -> BeesConfig {
        BeesConfig {
            trace: BandwidthTrace::constant(256_000.0).unwrap(),
            battery: Battery::from_joules(battery_j),
            ..BeesConfig::default()
        }
    }

    #[test]
    fn unbounded_battery_covers_all_locations() {
        let cfg = config(1e9);
        let res = run_coverage(&DirectUpload::new(&cfg), &cfg, &tiny_coverage()).unwrap();
        assert_eq!(res.images_received, res.corpus_images);
        // Direct upload with infinite battery receives every photo, hence
        // every location its slice contains.
        assert_eq!(res.unique_locations, res.corpus_locations);
        assert_eq!(res.phones_exhausted, 0);
    }

    #[test]
    fn limited_battery_limits_direct_upload() {
        // ~130 J lasts about one 120 s screen-on interval: phones die with
        // most of their slice un-uploaded.
        let cfg = config(130.0);
        let res = run_coverage(&DirectUpload::new(&cfg), &cfg, &tiny_coverage()).unwrap();
        assert!(res.images_received < res.corpus_images);
        assert_eq!(res.phones_exhausted, 2);
    }

    #[test]
    fn unusable_coverage_fields_are_typed_errors() {
        let cfg = config(130.0);
        let scheme = DirectUpload::new(&cfg);
        let with = |edit: fn(&mut CoverageConfig)| {
            let mut cov = tiny_coverage();
            edit(&mut cov);
            cov
        };
        for (field, cov) in [
            ("n_phones", with(|c| c.n_phones = 0)),
            ("group_size", with(|c| c.group_size = 0)),
            ("interval_s", with(|c| c.interval_s = f64::INFINITY)),
            ("paris.n_images", with(|c| c.paris.n_images = 1)),
            ("paris.n_locations", with(|c| c.paris.n_locations = 0)),
            ("paris.scene.width", with(|c| c.paris.scene.width = 0)),
            ("paris.scene.height", with(|c| c.paris.scene.height = 0)),
            ("paris.bbox", with(|c| c.paris.bbox.1 = c.paris.bbox.0)),
            (
                "paris.bbox",
                with(|c| c.paris.bbox.3 = c.paris.bbox.2 - 0.01),
            ),
            ("paris.bbox", with(|c| c.paris.bbox.0 = f64::NAN)),
            ("paris.bbox", with(|c| c.paris.bbox.3 = f64::INFINITY)),
        ] {
            match run_coverage(&scheme, &cfg, &cov) {
                Err(CoreError::InvalidConfig { detail }) => {
                    assert!(detail.contains(field), "{field}: {detail}")
                }
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn bees_covers_at_least_as_much_as_direct_on_same_battery() {
        let cfg = config(500.0);
        let direct = run_coverage(&DirectUpload::new(&cfg), &cfg, &tiny_coverage()).unwrap();
        let bees = run_coverage(&Bees::adaptive(&cfg), &cfg, &tiny_coverage()).unwrap();
        assert!(
            bees.unique_locations >= direct.unique_locations,
            "BEES {} vs Direct {}",
            bees.unique_locations,
            direct.unique_locations
        );
    }
}
