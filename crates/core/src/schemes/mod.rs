//! The six upload schemes of the paper's evaluation (§IV).
//!
//! | Scheme | Features | Cross-batch dedup | In-batch dedup | AIS | EAAS |
//! |---|---|---|---|---|---|
//! | Direct Upload | — | — | — | — | — |
//! | PhotoNet-like | color histogram | yes | — | — | — |
//! | SmartEye | PCA-SIFT | yes | — | — | — |
//! | MRC | ORB | yes (+ thumbnail feedback) | — | — | — |
//! | BEES-EA | ORB | yes | SSMM | yes | fixed at `Ebat = 1` |
//! | BEES | ORB | yes | SSMM | yes | adaptive |
//!
//! Every scheme is built from the same private stages. The four baselines
//! are the traditional architecture of Fig. 1: extract features, upload
//! them, get one verdict per image, then upload the unique images
//! verbatim. BEES shares the extraction and the feature query, then runs
//! SSMM and AIU's degradation ladder. The stages run against [`Client`]'s
//! power/clock primitives, and every transfer goes through one delivery
//! path that books its attempts and CRC-caught corrupt chunks into the
//! [`BatchReport`], so energy, bandwidth, delay, retry and corruption
//! accounting is directly comparable across schemes.

mod bees;
mod direct;
mod mrc;
mod photonet;
mod smarteye;
mod stages;

pub use bees::{Bees, EAC, EAU, EDR};
pub use direct::DirectUpload;
pub use mrc::Mrc;
pub use photonet::PhotoNetLike;
pub use smarteye::{SmartEye, PCA_BASIS_SEED, PCA_THRESHOLD};

use crate::{BatchReport, BeesConfig, Client, CoreError, Result, Server, UploadTier};
use bees_image::RgbImage;
use bees_telemetry::Telemetry;
use std::fmt;
use std::str::FromStr;

/// Codec quality of the photo files stored on the phone: what Direct
/// Upload, PhotoNet-like, SmartEye and MRC transmit verbatim, and what a
/// deferred BEES image is billed at when it is pulled down later. The
/// analogue of the paper's ~700 KB camera JPEGs.
pub const CAMERA_QUALITY: u8 = 90;

/// Identifies a scheme in reports and experiment output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Upload every image as-is.
    DirectUpload,
    /// SmartEye (INFOCOM'15): PCA-SIFT features, cross-batch dedup.
    SmartEye,
    /// PhotoNet-like (RTSS'11): global color-histogram dedup only.
    PhotoNetLike,
    /// MRC (CoNEXT'14): ORB features, cross-batch dedup, thumbnails.
    Mrc,
    /// BEES without energy-aware adaptation.
    BeesEa,
    /// Full BEES.
    Bees,
}

impl SchemeKind {
    /// Every scheme, in the canonical evaluation order (the row order of
    /// the experiment tables).
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::DirectUpload,
        SchemeKind::PhotoNetLike,
        SchemeKind::SmartEye,
        SchemeKind::Mrc,
        SchemeKind::BeesEa,
        SchemeKind::Bees,
    ];

    /// The paper's name for the scheme — the stable spelling used in
    /// reports, traces, and CLI arguments. Round-trips through
    /// [`FromStr`]: `kind.as_str().parse() == Ok(kind)`.
    pub fn as_str(&self) -> &'static str {
        match self {
            SchemeKind::DirectUpload => "Direct Upload",
            SchemeKind::SmartEye => "SmartEye",
            SchemeKind::PhotoNetLike => "PhotoNet-like",
            SchemeKind::Mrc => "MRC",
            SchemeKind::BeesEa => "BEES-EA",
            SchemeKind::Bees => "BEES",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The input did not name a scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeKindError {
    input: String,
}

impl fmt::Display for ParseSchemeKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scheme `{}` (expected one of: Direct Upload, PhotoNet-like, \
             SmartEye, MRC, BEES-EA, BEES)",
            self.input
        )
    }
}

impl std::error::Error for ParseSchemeKindError {}

impl FromStr for SchemeKind {
    type Err = ParseSchemeKindError;

    /// Parses a scheme name, tolerating the spelling drift that has shown
    /// up in bench arguments and reports: case, and `-`/`_`/space
    /// separators, are ignored, so `"BEES-EA"`, `"bees_ea"`, and `"BeesEa"`
    /// all parse to [`SchemeKind::BeesEa`].
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        let normalized: String = s
            .chars()
            .filter(|c| !matches!(c, '-' | '_' | ' '))
            .map(|c| c.to_ascii_lowercase())
            .collect();
        match normalized.as_str() {
            "directupload" | "direct" => Ok(SchemeKind::DirectUpload),
            "smarteye" => Ok(SchemeKind::SmartEye),
            "photonetlike" | "photonet" => Ok(SchemeKind::PhotoNetLike),
            "mrc" => Ok(SchemeKind::Mrc),
            "beesea" => Ok(SchemeKind::BeesEa),
            "bees" => Ok(SchemeKind::Bees),
            _ => Err(ParseSchemeKindError {
                input: s.to_owned(),
            }),
        }
    }
}

/// Constructs the scheme a [`SchemeKind`] names, boxed for the
/// `Vec<Box<dyn UploadScheme>>` experiment drivers.
pub fn make_scheme(kind: SchemeKind, config: &BeesConfig) -> Box<dyn UploadScheme> {
    match kind {
        SchemeKind::DirectUpload => Box::new(DirectUpload::new(config)),
        SchemeKind::SmartEye => Box::new(SmartEye::new(config)),
        SchemeKind::PhotoNetLike => Box::new(PhotoNetLike::new(config)),
        SchemeKind::Mrc => Box::new(Mrc::new(config)),
        SchemeKind::BeesEa => Box::new(Bees::without_adaptation(config)),
        SchemeKind::Bees => Box::new(Bees::adaptive(config)),
    }
}

/// Everything one batch upload needs, in one place.
///
/// Replaces the old positional `(client, server, batch, geotags)`
/// signature: the geotag/batch length invariant is validated by
/// [`with_geotags`](BatchCtx::with_geotags) before any scheme runs, and
/// the [`Telemetry`] handle rides along instead of being smuggled through
/// globals. `client`, `server`, and `batch` are public fields — scheme
/// bodies reborrow them directly.
pub struct BatchCtx<'a> {
    /// The uploading phone.
    pub client: &'a mut Client,
    /// The shared receiving server.
    pub server: &'a mut Server,
    /// The images to upload.
    pub batch: &'a [RgbImage],
    geotags: Option<&'a [(f64, f64)]>,
    tier: UploadTier,
    deferral_catalog: Option<u64>,
    /// Telemetry handle stage spans are emitted through. Defaults to the
    /// client's handle; override with
    /// [`with_telemetry`](BatchCtx::with_telemetry).
    pub telemetry: Telemetry,
}

impl<'a> BatchCtx<'a> {
    /// A context with no geotags, inheriting the client's telemetry
    /// handle.
    pub fn new(client: &'a mut Client, server: &'a mut Server, batch: &'a [RgbImage]) -> Self {
        let telemetry = client.telemetry().clone();
        BatchCtx {
            client,
            server,
            batch,
            geotags: None,
            tier: UploadTier::Full,
            deferral_catalog: None,
            telemetry,
        }
    }

    /// Attaches one geotag per batch image (the coverage experiment's
    /// input), enforcing the length invariant the old positional API
    /// documented but could not check until deep inside a scheme.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GeotagMismatch`] if the lengths differ.
    pub fn with_geotags(mut self, geotags: &'a [(f64, f64)]) -> Result<Self> {
        if geotags.len() != self.batch.len() {
            return Err(CoreError::GeotagMismatch {
                images: self.batch.len(),
                geotags: geotags.len(),
            });
        }
        self.geotags = Some(geotags);
        Ok(self)
    }

    /// Installs a telemetry handle on the context (stage spans), the client
    /// (`net.*` spans), and the server (`srv.*` events), so the whole batch
    /// reports into one stream.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.client.set_telemetry(telemetry.clone());
        self.server.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// Caps the upload tier for this batch — an airtime grant from the
    /// shared-cell scheduler. [`UploadTier::Full`] (the default) changes
    /// nothing; [`UploadTier::PartialScans`] makes the BEES scheme transmit
    /// only a progressive-scan prefix per image (ingested through the
    /// partial-image machinery, upgradeable later);
    /// [`UploadTier::Thumbnail`] sends every selected image straight down
    /// the thumbnail rung; [`UploadTier::Defer`] spends no radio energy at
    /// all — the whole batch (feature query included) defers.
    ///
    /// Schemes without a degradation ladder ignore the cap.
    #[must_use]
    pub fn with_tier(mut self, tier: UploadTier) -> Self {
        self.tier = tier;
        self
    }

    /// The upload-tier cap in force for this batch.
    pub fn tier(&self) -> UploadTier {
        self.tier
    }

    /// Tightens the tier cap in place: the batch keeps the *weaker* of its
    /// current cap and `tier`. Lets a wrapping scheme degrade a batch that
    /// already carries a scheduler grant (tiers order `Full <
    /// PartialScans < Thumbnail < Defer`, so weaker == larger).
    pub fn cap_tier(&mut self, tier: UploadTier) {
        self.tier = self.tier.max(tier);
    }

    /// Opts this batch into the server's on-device catalog: images the
    /// scheme ends up deferring are recorded (with their already-extracted
    /// features) as living on device `device_id`, so a later retrieval
    /// pull-down can fetch them on demand. Off by default — without it,
    /// deferred images simply vanish, as they always have.
    #[must_use]
    pub fn with_deferral_catalog(mut self, device_id: u64) -> Self {
        self.deferral_catalog = Some(device_id);
        self
    }

    /// The device id deferred images are cataloged under, if the batch
    /// opted in.
    pub fn deferral_catalog(&self) -> Option<u64> {
        self.deferral_catalog
    }

    /// The geotags, if attached (guaranteed to be `batch.len()` long).
    pub fn geotags(&self) -> Option<&'a [(f64, f64)]> {
        self.geotags
    }

    /// The geotag of batch image `i`, if geotags are attached.
    pub fn geotag(&self, i: usize) -> Option<(f64, f64)> {
        self.geotags.map(|tags| tags[i])
    }
}

/// An image-upload scheme.
///
/// Object-safe so experiment drivers can iterate over
/// `Vec<Box<dyn UploadScheme>>`.
pub trait UploadScheme {
    /// Which scheme this is.
    fn kind(&self) -> SchemeKind;

    /// Uploads the batch described by `ctx` (build one with
    /// [`BatchCtx::new`]; attach geotags or telemetry with its builder
    /// methods).
    ///
    /// If the client battery dies mid-batch the report of the completed
    /// prefix is returned with [`BatchReport::exhausted`] set.
    ///
    /// # Errors
    ///
    /// Returns a network error if the channel stalls beyond its limit.
    fn upload(&self, ctx: &mut BatchCtx<'_>) -> Result<BatchReport>;

    /// Pre-loads server-side images using this scheme's *own* feature kind,
    /// so staged cross-batch redundancy is detectable by the scheme. The
    /// default extracts ORB features (what the BEES/MRC servers store).
    fn preload_server(&self, server: &mut Server, images: &[RgbImage]) {
        server.preload(crate::PreloadBatch::new(images));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_displays_paper_names() {
        assert_eq!(SchemeKind::DirectUpload.to_string(), "Direct Upload");
        assert_eq!(SchemeKind::SmartEye.to_string(), "SmartEye");
        assert_eq!(SchemeKind::PhotoNetLike.to_string(), "PhotoNet-like");
        assert_eq!(SchemeKind::Mrc.to_string(), "MRC");
        assert_eq!(SchemeKind::BeesEa.to_string(), "BEES-EA");
        assert_eq!(SchemeKind::Bees.to_string(), "BEES");
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_s: &dyn UploadScheme) {}
    }

    #[test]
    fn kind_round_trips_through_from_str() {
        for kind in SchemeKind::ALL {
            assert_eq!(kind.as_str().parse::<SchemeKind>(), Ok(kind));
        }
    }

    #[test]
    fn from_str_tolerates_spelling_drift() {
        assert_eq!("BEES-EA".parse(), Ok(SchemeKind::BeesEa));
        assert_eq!("bees_ea".parse(), Ok(SchemeKind::BeesEa));
        assert_eq!("BeesEa".parse(), Ok(SchemeKind::BeesEa));
        assert_eq!("photonet".parse(), Ok(SchemeKind::PhotoNetLike));
        assert_eq!("PhotoNet-like".parse(), Ok(SchemeKind::PhotoNetLike));
        assert_eq!("direct".parse(), Ok(SchemeKind::DirectUpload));
        let err = "smarteyes".parse::<SchemeKind>().unwrap_err();
        assert!(err.to_string().contains("smarteyes"));
    }

    #[test]
    fn factory_builds_every_kind() {
        let cfg = BeesConfig::default();
        for kind in SchemeKind::ALL {
            assert_eq!(make_scheme(kind, &cfg).kind(), kind);
        }
    }

    #[test]
    fn geotag_length_mismatch_is_a_typed_error() {
        use bees_datasets::{Scene, SceneConfig, ViewJitter};
        let cfg = BeesConfig {
            trace: bees_net::BandwidthTrace::constant(256_000.0).unwrap(),
            ..BeesConfig::default()
        };
        let mut server = Server::try_new(&cfg).unwrap();
        let mut client = Client::try_new(0, &cfg).unwrap();
        let img = Scene::new(
            1,
            SceneConfig {
                width: 96,
                height: 72,
                n_shapes: 8,
                texture_amp: 8.0,
            },
        )
        .render(&ViewJitter::identity());
        let batch = [img];
        let bad = BatchCtx::new(&mut client, &mut server, &batch).with_geotags(&[]);
        assert!(matches!(bad, Err(CoreError::GeotagMismatch { .. })));
    }
}
