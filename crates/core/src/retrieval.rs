//! Responder-side retrieval: the unified read path over the fleet index.
//!
//! BEES' server only *ingests*; situation awareness also needs the read
//! half — a responder asking "show me images near (lat,lon) in the last
//! ten minutes" or "more views of this collapsed building". This module
//! provides the single query surface for that: a composable
//! [`RetrievalQuery`] builder (geo radius, virtual-time window,
//! query-by-descriptor, query-by-histogram, result budget) executed by
//! [`Server::retrieve`], returning relevance-ranked [`RetrievalHit`]s with
//! per-hit [`Provenance`].
//!
//! Geo and time predicates are *pushed below the shard merge*: the server
//! resolves them against its image records into a sorted id allow-list
//! attached to the index [`Query`](bees_index::Query), so every shard
//! drops disallowed images before ranking and the merged result equals
//! filtering an unsharded scan.
//!
//! The `OnDevice` provenance tier is the headline mechanic: images the
//! fleet deferred (or degraded) under contention never reached the server,
//! but their *features did* (uploaded for Cross-Batch Redundancy
//! Detection), so the server can still match them and report where the
//! full payload lives. The fleet session's pull-down path
//! (`sessions::run_fleet` with [`PulldownConfig`]) then fetches matches on
//! demand, charging the owning device's energy ledger and the shared
//! cell's airtime.
//!
//! [`Server::retrieve`]: crate::Server::retrieve
//! [`PulldownConfig`]: crate::sessions::PulldownConfig

use bees_features::global::ColorHistogram;
use bees_features::ImageFeatures;
use bees_index::ImageId;

/// Mean Earth radius in kilometres (IUGG R1).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Great-circle distance in kilometres between two `(lon, lat)` points in
/// degrees — the same coordinate order [`ImageRecord::geotag`] stores.
///
/// Uses the haversine formula, which is symmetric, zero iff the points
/// coincide (up to antipodal aliasing), and wraps the antimeridian
/// naturally: `sin²(Δλ/2)` is periodic, so longitudes −179.9° and +179.9°
/// are ~22 km apart at the equator, not ~39,969 km. A NaN coordinate gives
/// a NaN distance.
///
/// [`ImageRecord::geotag`]: crate::ImageRecord::geotag
///
/// # Examples
///
/// ```
/// use bees_core::retrieval::haversine_km;
///
/// let paris = (2.3522, 48.8566);
/// let london = (-0.1276, 51.5072);
/// let d = haversine_km(paris, london);
/// assert!((d - 343.5).abs() < 2.0, "got {d}");
/// assert_eq!(haversine_km(paris, paris), 0.0);
/// ```
pub fn haversine_km(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (lon1, lat1) = (a.0.to_radians(), a.1.to_radians());
    let (lon2, lat2) = (b.0.to_radians(), b.1.to_radians());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let s = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    // Clamp against float drift pushing sqrt's argument past 1. `clamp`,
    // unlike `min`, carries a NaN coordinate through as a NaN distance.
    2.0 * EARTH_RADIUS_KM * s.sqrt().clamp(0.0, 1.0).asin()
}

/// Where a retrieval hit's pixels actually live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// The server holds the full-fidelity payload.
    Full,
    /// The server holds a decodable scan prefix of a cut progressive
    /// upload (queryable, reduced fidelity).
    SalvagedPartial {
        /// Progressive scans fully received.
        scans_complete: usize,
        /// Scans a complete stream carries.
        scans_total: usize,
    },
    /// The server holds only the degraded thumbnail rung.
    ThumbnailOnly,
    /// The server holds the *features* only; the payload is still on the
    /// capturing device and must be pulled down to view.
    OnDevice {
        /// The device the payload lives on.
        device_id: u64,
    },
}

impl Provenance {
    /// Canonical compact string used by [`RetrievalResult::to_json`]:
    /// `full`, `partial:<done>/<total>`, `thumbnail`, `on-device:<id>`.
    pub fn as_canonical_string(&self) -> String {
        match self {
            Provenance::Full => "full".to_string(),
            Provenance::SalvagedPartial {
                scans_complete,
                scans_total,
            } => format!("partial:{scans_complete}/{scans_total}"),
            Provenance::ThumbnailOnly => "thumbnail".to_string(),
            Provenance::OnDevice { device_id } => format!("on-device:{device_id}"),
        }
    }
}

/// One relevance-ranked retrieval result.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalHit {
    /// Identifier of the matching image (server-side or on-device).
    pub id: ImageId,
    /// Relevance: descriptor or histogram similarity when the query
    /// carries a probe, otherwise geographic proximity (`1/(1+km)`), or
    /// `1.0` for pure time-window matches.
    pub score: f64,
    /// Where the pixels live.
    pub provenance: Provenance,
    /// The image's geotag, when one was attached at ingest.
    pub geotag: Option<(f64, f64)>,
    /// Virtual ingest/capture time, when known (received images only).
    pub time_s: Option<f64>,
}

/// The outcome of one [`Server::retrieve`] execution.
///
/// [`Server::retrieve`]: crate::Server::retrieve
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RetrievalResult {
    /// Relevance-ranked hits: descending score, ascending id tie-break —
    /// the same total order the feature index guarantees, so the list is
    /// unique and byte-stable across thread and shard counts.
    pub hits: Vec<RetrievalHit>,
    /// Images the query examined (allow-list size or full index, plus the
    /// on-device catalog when included).
    pub candidates_considered: usize,
    /// Hits whose payload still lives on a device (`OnDevice` provenance).
    pub on_device_matches: usize,
}

impl RetrievalResult {
    /// Serializes to a canonical single-line JSON string.
    ///
    /// Hand-rolled like [`FleetReport::to_json`] (fixed key order,
    /// shortest-roundtrip float formatting) so identical queries produce
    /// byte-identical output across `BEES_THREADS` and shard counts — this
    /// is what the retrieval determinism tests compare.
    ///
    /// [`FleetReport::to_json`]: crate::sessions::FleetReport::to_json
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 96 * self.hits.len());
        out.push_str("{\"hits\":[");
        for (i, h) in self.hits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"score\":{},\"provenance\":\"{}\"",
                h.id.0,
                h.score,
                h.provenance.as_canonical_string()
            ));
            match h.geotag {
                Some((lon, lat)) => out.push_str(&format!(",\"geotag\":[{lon},{lat}]")),
                None => out.push_str(",\"geotag\":null"),
            }
            match h.time_s {
                Some(t) => out.push_str(&format!(",\"time_s\":{t}}}")),
                None => out.push_str(",\"time_s\":null}"),
            }
        }
        out.push_str(&format!(
            "],\"candidates_considered\":{},\"on_device_matches\":{}}}",
            self.candidates_considered, self.on_device_matches
        ));
        out
    }
}

/// A composable responder query: predicates plus a result budget.
///
/// Predicates compose conjunctively — a hit must satisfy *all* of them.
/// At most one similarity probe ranks the results; geo/time predicates
/// filter. Built fluently:
///
/// ```
/// use bees_core::retrieval::RetrievalQuery;
/// use bees_features::ImageFeatures;
///
/// let probe = ImageFeatures::empty_binary();
/// let q = RetrievalQuery::new()
///     .near(2.35, 48.85, 5.0)
///     .within_time(0.0, 600.0)
///     .similar_to(&probe)
///     .top_k(10);
/// assert_eq!(q.k(), 10);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RetrievalQuery<'a> {
    pub(crate) geo: Option<((f64, f64), f64)>,
    pub(crate) time: Option<(f64, f64)>,
    pub(crate) features: Option<&'a ImageFeatures>,
    pub(crate) histogram: Option<&'a ColorHistogram>,
    pub(crate) top_k: usize,
    pub(crate) on_device: bool,
}

impl<'a> RetrievalQuery<'a> {
    /// An unconstrained query: every received image matches, unlimited
    /// results, on-device catalog excluded.
    pub fn new() -> Self {
        RetrievalQuery::default()
    }

    /// Keep only images geotagged within `radius_km` of `(lon, lat)`
    /// (haversine). `radius_km == 0.0` means exact-coordinate match.
    /// Images without a geotag never satisfy a geo predicate, and neither
    /// does any image when `lon`, `lat` or `radius_km` is NaN.
    #[must_use]
    pub fn near(mut self, lon: f64, lat: f64, radius_km: f64) -> Self {
        self.geo = Some(((lon, lat), radius_km));
        self
    }

    /// Keep only images whose virtual ingest time lies in
    /// `[start_s, end_s]` (inclusive). Images without a recorded time
    /// (preloads) never satisfy a time predicate, and neither does any
    /// image when `start_s` or `end_s` is NaN.
    #[must_use]
    pub fn within_time(mut self, start_s: f64, end_s: f64) -> Self {
        self.time = Some((start_s, end_s));
        self
    }

    /// Rank by descriptor similarity against `features` ("more views of
    /// this building"). Mutually exclusive with
    /// [`similar_to_histogram`](Self::similar_to_histogram) — the last
    /// probe set wins.
    #[must_use]
    pub fn similar_to(mut self, features: &'a ImageFeatures) -> Self {
        self.features = Some(features);
        self.histogram = None;
        self
    }

    /// Rank by histogram-intersection similarity against `histogram`
    /// (global-feature schemes). Mutually exclusive with
    /// [`similar_to`](Self::similar_to) — the last probe set wins.
    #[must_use]
    pub fn similar_to_histogram(mut self, histogram: &'a ColorHistogram) -> Self {
        self.histogram = Some(histogram);
        self.features = None;
        self
    }

    /// Caps the number of hits returned (`0` = unlimited, the default).
    #[must_use]
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Also match the on-device catalog: images whose features the server
    /// holds but whose payload was deferred and still lives on a device.
    /// Off by default — legacy query paths never see on-device entries.
    #[must_use]
    pub fn include_on_device(mut self, yes: bool) -> Self {
        self.on_device = yes;
        self
    }

    /// The result budget (`0` = unlimited).
    pub fn k(&self) -> usize {
        self.top_k
    }

    /// Whether any filtering predicate (geo or time) is present.
    pub fn has_filter(&self) -> bool {
        self.geo.is_some() || self.time.is_some()
    }

    /// Whether a similarity probe (descriptor or histogram) is present.
    pub fn has_probe(&self) -> bool {
        self.features.is_some() || self.histogram.is_some()
    }

    /// Evaluates the geo+time predicates against one image's geotag and
    /// time. The similarity probe is *not* consulted here.
    pub fn passes_filters(&self, geotag: Option<(f64, f64)>, time_s: Option<f64>) -> bool {
        // Each predicate accepts only on a true comparison, so a NaN bound
        // or distance matches nothing.
        let geo_ok = self.geo.is_none_or(|(center, radius_km)| {
            geotag.is_some_and(|g| haversine_km(center, g) <= radius_km)
        });
        let time_ok = self
            .time
            .is_none_or(|(start, end)| time_s.is_some_and(|t| start <= t && t <= end));
        geo_ok && time_ok
    }

    /// Relevance of a *predicate-only* match (no similarity probe):
    /// geographic proximity `1/(1+km)` when a geo predicate is present,
    /// otherwise `1.0` (chronological queries rank by ascending id).
    pub(crate) fn filter_score(&self, geotag: Option<(f64, f64)>) -> f64 {
        match (self.geo, geotag) {
            (Some((center, _)), Some(g)) => 1.0 / (1.0 + haversine_km(center, g)),
            _ => 1.0,
        }
    }
}

/// Sorts hits into the canonical total order (descending score, ascending
/// id) and truncates to the query's `top_k` budget (`0` = unlimited).
pub(crate) fn rank_retrieval_hits(hits: &mut Vec<RetrievalHit>, top_k: usize) {
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then(a.id.0.cmp(&b.id.0))
    });
    if top_k > 0 {
        hits.truncate(top_k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_is_symmetric_and_zero_on_identity() {
        let a = (2.3522, 48.8566);
        let b = (-0.1276, 51.5072);
        assert_eq!(haversine_km(a, b), haversine_km(b, a));
        assert_eq!(haversine_km(a, a), 0.0);
        assert_eq!(haversine_km(b, b), 0.0);
    }

    #[test]
    fn haversine_wraps_the_antimeridian() {
        // 0.2 degrees of longitude apart across the date line ~ 22 km at
        // the equator, nowhere near the 39,969 km a naive |Δλ| yields.
        let west = (179.9, 0.0);
        let east = (-179.9, 0.0);
        let d = haversine_km(west, east);
        assert!((d - 22.24).abs() < 0.1, "got {d}");
    }

    #[test]
    fn haversine_pole_distances_are_meridian_arcs() {
        // Any two longitudes coincide at the pole...
        let d = haversine_km((0.0, 90.0), (135.0, 90.0));
        assert!(d < 1e-6, "got {d}");
        // ...and pole-to-pole is half the great circle.
        let antipodal = haversine_km((0.0, 90.0), (0.0, -90.0));
        assert!(
            (antipodal - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1e-6,
            "got {antipodal}"
        );
    }

    #[test]
    fn haversine_carries_nan_through() {
        assert!(haversine_km((f64::NAN, 0.0), (0.0, 0.0)).is_nan());
        assert!(haversine_km((0.0, 0.0), (0.0, f64::NAN)).is_nan());
    }

    #[test]
    fn radius_zero_is_exact_match() {
        let q = RetrievalQuery::new().near(0.01, 0.0, 0.0);
        assert!(q.passes_filters(Some((0.01, 0.0)), None));
        assert!(!q.passes_filters(Some((0.010001, 0.0)), None));
        assert!(!q.passes_filters(None, None));
    }

    #[test]
    fn filters_compose_conjunctively() {
        let q = RetrievalQuery::new()
            .near(0.0, 0.0, 10.0)
            .within_time(5.0, 15.0);
        assert!(q.passes_filters(Some((0.01, 0.0)), Some(10.0)));
        assert!(!q.passes_filters(Some((0.01, 0.0)), Some(20.0)));
        assert!(!q.passes_filters(Some((5.0, 5.0)), Some(10.0)));
        assert!(!q.passes_filters(None, Some(10.0)));
        assert!(!q.passes_filters(Some((0.01, 0.0)), None));
        // Inclusive window boundaries.
        assert!(q.passes_filters(Some((0.0, 0.0)), Some(5.0)));
        assert!(q.passes_filters(Some((0.0, 0.0)), Some(15.0)));
    }

    #[test]
    fn probes_are_mutually_exclusive_last_wins() {
        let f = ImageFeatures::empty_binary();
        let h = ColorHistogram::from_image(&bees_image::RgbImage::from_fn(4, 4, |_, _| {
            bees_image::Rgb::new(10, 20, 30)
        }));
        let q = RetrievalQuery::new()
            .similar_to(&f)
            .similar_to_histogram(&h);
        assert!(q.features.is_none() && q.histogram.is_some());
        let q = RetrievalQuery::new()
            .similar_to_histogram(&h)
            .similar_to(&f);
        assert!(q.features.is_some() && q.histogram.is_none());
        assert!(q.has_probe());
        assert!(!q.has_filter());
    }

    #[test]
    fn ranking_is_total_and_budgeted() {
        let hit = |id: u64, score: f64| RetrievalHit {
            id: ImageId(id),
            score,
            provenance: Provenance::Full,
            geotag: None,
            time_s: None,
        };
        let mut hits = vec![hit(3, 0.5), hit(1, 0.9), hit(2, 0.5)];
        rank_retrieval_hits(&mut hits, 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, ImageId(1));
        assert_eq!(hits[1].id, ImageId(2), "tie breaks toward the lower id");
        let mut all = vec![hit(3, 0.5), hit(1, 0.9)];
        rank_retrieval_hits(&mut all, 0);
        assert_eq!(all.len(), 2, "0 means unlimited");
    }

    #[test]
    fn result_json_shape_is_stable() {
        let result = RetrievalResult {
            hits: vec![
                RetrievalHit {
                    id: ImageId(4),
                    score: 0.75,
                    provenance: Provenance::SalvagedPartial {
                        scans_complete: 2,
                        scans_total: 5,
                    },
                    geotag: Some((0.01, 0.0)),
                    time_s: Some(30.0),
                },
                RetrievalHit {
                    id: ImageId(9),
                    score: 0.5,
                    provenance: Provenance::OnDevice { device_id: 3 },
                    geotag: None,
                    time_s: None,
                },
            ],
            candidates_considered: 12,
            on_device_matches: 1,
        };
        assert_eq!(
            result.to_json(),
            "{\"hits\":[{\"id\":4,\"score\":0.75,\"provenance\":\"partial:2/5\",\
             \"geotag\":[0.01,0],\"time_s\":30},\
             {\"id\":9,\"score\":0.5,\"provenance\":\"on-device:3\",\
             \"geotag\":null,\"time_s\":null}],\
             \"candidates_considered\":12,\"on_device_matches\":1}"
        );
        assert_eq!(Provenance::Full.as_canonical_string(), "full");
        assert_eq!(Provenance::ThumbnailOnly.as_canonical_string(), "thumbnail");
    }
}
