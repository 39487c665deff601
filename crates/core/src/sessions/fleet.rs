//! Deterministic multi-device fleet simulation.
//!
//! `run_fleet` drives N devices against one shared (optionally sharded)
//! server on a single virtual clock. Devices are advanced by a
//! deterministic event queue ordered by upload time with device-id
//! tie-breaking, so the interleaving — and therefore every server verdict
//! and every byte of the report — is a pure function of the seeds. The
//! fleet determinism tests pin this down across `BEES_THREADS` 1/2/8 and
//! server shard counts 1/2/4.
//!
//! Each round shares a pool of scenes across the fleet: different devices
//! upload *different views of the same scenes*, so Cross-Batch Redundancy
//! Detection has real cross-device redundancy to eliminate. The rest of
//! each group is device-unique.
//!
//! # Shared-cell contention
//!
//! With [`BeesConfig::cell`] enabled the N-private-channels fiction is
//! replaced by one [`SharedCell`]: rounds landing in the same cell epoch
//! form a *cohort*, the server-side [`AirtimeScheduler`] ranks their
//! demands (SSMM novelty × battery state × geotag coverage gap) and issues
//! per-device grants under the epoch's airtime budget. Granted devices
//! upload at the cell's per-grant share with a virtual-time deadline at the
//! epoch end (a transfer that outlives its grant is abandoned, its airtime
//! booked to `Wasted` with the salvage ladder still applying); denied
//! devices defer to the next epoch *before* spending radio energy, with a
//! starvation bound forcing a thumbnail grant after too many consecutive
//! denials.
//!
//! # Phases
//!
//! The loop runs named phases over one state struct per device: the
//! **round** (capture and upload), the **tail upgrade** of freshly
//! salvaged partials, the **airtime epoch** (cohort, demands, plan,
//! verdicts), the **pull-down** (sweep, plan, fetch) and the **report**.
//! Each ledger has one writer, and every run ends by auditing the
//! report's ledger identities, panicking if one is broken.

use crate::scheduler::{AirtimeScheduler, DeviceDemand, EpochPlan, Grant};
use crate::schemes::{BatchCtx, UploadScheme};
use crate::{
    BeesConfig, Client, CoreError, ImageRecord, IngestRequest, Provenance, Result, RetrievalQuery,
    Server, UploadTier,
};
use bees_datasets::{Scene, SceneConfig, ViewJitter};
use bees_energy::EnergyCategory;
use bees_image::RgbImage;
use bees_index::ImageId;
use bees_net::{wire, NetError, SharedCell};
use bees_store::EpochStorage;
use bees_telemetry::{names, Telemetry};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Parameters of the post-run retrieval pull-down pass.
///
/// When attached to [`FleetConfig::pulldown`], each round's deferred
/// images are cataloged on the server as [on-device
/// entries](crate::OnDeviceImage), and the run ends with a responder
/// sweep: one geo retrieval per lattice site with the catalog included,
/// followed by a fetch of every on-device match the sweep surfaces.
/// Fetches drain the owning device's battery under
/// [`EnergyCategory::PullDown`] and, under a shared cell, occupy airtime
/// through the same [`AirtimeScheduler`] grants as any upload — a denied
/// or cut fetch leaves the image on the catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulldownConfig {
    /// Radius of each site query in kilometres.
    pub radius_km: f64,
}

impl Default for PulldownConfig {
    fn default() -> Self {
        PulldownConfig { radius_km: 5.0 }
    }
}

/// Parameters of a fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of simulated devices.
    pub n_devices: usize,
    /// Upload rounds each device attempts.
    pub rounds: usize,
    /// Images per uploaded group.
    pub group_size: usize,
    /// How many of each group's images are views of the round's *shared*
    /// scene pool (cross-device redundancy); the rest are device-unique.
    pub shared_per_group: usize,
    /// Interval between a device's group uploads in seconds.
    pub interval_s: f64,
    /// Scene generator settings.
    pub scene: SceneConfig,
    /// Master seed; every device/round/image seed derives from it.
    pub seed: u64,
    /// Retrieval pull-down pass; `None` (the default) skips the catalog
    /// and the sweep entirely, reproducing the pre-retrieval behavior.
    pub pulldown: Option<PulldownConfig>,
}

impl FleetConfig {
    /// Rejects a run that could not take a step: a zero device, round or
    /// group count, or an upload interval that is negative or not finite.
    fn validate(&self) -> Result<()> {
        for (name, value) in [
            ("n_devices", self.n_devices),
            ("rounds", self.rounds),
            ("group_size", self.group_size),
        ] {
            if value == 0 {
                return Err(CoreError::InvalidConfig {
                    detail: format!("fleet {name} must be positive, got 0"),
                });
            }
        }
        if !self.interval_s.is_finite() || self.interval_s < 0.0 {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "fleet interval_s must be finite and non-negative, got {}",
                    self.interval_s
                ),
            });
        }
        Ok(())
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_devices: 4,
            rounds: 3,
            group_size: 6,
            shared_per_group: 3,
            interval_s: 60.0,
            scene: SceneConfig::default(),
            seed: 0xF1EE7,
            pulldown: None,
        }
    }
}

/// Per-device outcome of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSummary {
    /// Device id (also the client id the seeds derive from).
    pub device: u64,
    /// Rounds the device completed (or died during).
    pub rounds: usize,
    /// Images this device actually transmitted.
    pub uploaded_images: usize,
    /// Bytes this device sent.
    pub uplink_bytes: usize,
    /// Airtime grants the shared-cell scheduler issued this device
    /// (0 when the cell is disabled).
    pub grants: usize,
    /// Epochs in which the scheduler denied this device airtime — its
    /// starvation count (0 when the cell is disabled).
    pub denied: usize,
    /// Transfers this device abandoned at a virtual-time deadline
    /// (0 when the cell is disabled and no policy deadline is set).
    pub deadline_abandons: usize,
    /// Remaining battery fraction when the run ended.
    pub final_ebat: f64,
    /// Whether the battery died mid-run.
    pub exhausted: bool,
}

/// Aggregate outcome of a fleet run.
///
/// Deliberately excludes the server shard count and the thread count:
/// neither may influence any value here, and the determinism tests compare
/// [`to_json`](FleetReport::to_json) output byte for byte across both.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Scheme name.
    pub scheme: String,
    /// Number of devices simulated.
    pub n_devices: usize,
    /// Total upload rounds completed across the fleet.
    pub rounds_completed: usize,
    /// Images captured (batched for upload) across the fleet.
    pub images_captured: usize,
    /// Images the server actually received.
    pub images_uploaded: usize,
    /// Images eliminated by cross-batch redundancy detection.
    pub skipped_cross_batch: usize,
    /// Images eliminated by in-batch redundancy detection (SSMM).
    pub skipped_in_batch: usize,
    /// Total bytes sent devices → server.
    pub uplink_bytes: usize,
    /// Fraction of captured images the fleet did *not* have to upload.
    pub redundancy_elimination: f64,
    /// Index queries the server answered.
    pub server_queries: usize,
    /// Devices whose battery died mid-run.
    pub devices_exhausted: usize,
    /// Cut uploads salvaged into partial images across the fleet.
    pub salvaged_images: usize,
    /// Salvaged partials completed in place when their tail scans arrived
    /// in a later transfer of the same round.
    pub partials_upgraded: usize,
    /// Salvaged partials still awaiting their tail scans when the run
    /// ended (queryable, just not full quality).
    pub partials_pending: usize,
    /// Airtime grants the shared-cell scheduler issued across the fleet
    /// (0 when the cell is disabled).
    pub grants_issued: usize,
    /// Airtime denials across the fleet — the total starvation count
    /// (0 when the cell is disabled).
    pub grants_denied: usize,
    /// Transfers abandoned at a virtual-time deadline across the fleet.
    pub deadline_abandons: usize,
    /// Unique geotagged locations the server received images from
    /// (0 when no geotags are attached — the cell-disabled path).
    pub unique_locations: usize,
    /// Joules drained from fleet batteries over the whole run — the
    /// denominator of the contention bench's coverage-per-energy metric.
    pub energy_spent_j: f64,
    /// Pull-down fetches the post-run responder sweep requested
    /// (0 when [`FleetConfig::pulldown`] is off).
    pub pulldown_requests: usize,
    /// Requests that delivered their image to the server.
    pub pulldown_fulfilled: usize,
    /// Requests denied airtime or cut mid-transfer; the image stays on
    /// the device catalog.
    pub pulldown_denied: usize,
    /// Wire bytes the fulfilled fetches moved.
    pub pulldown_bytes: usize,
    /// Joules the fleet spent serving pull-down fetches (the
    /// [`EnergyCategory::PullDown`] buckets summed across devices).
    pub pulldown_joules: f64,
    /// Physical bytes the content store wrote over the run (new blobs plus
    /// partial-upgrade tails).
    pub stored_bytes: usize,
    /// Bytes the cold recompression pass gave back.
    pub reclaimed_bytes: usize,
    /// Ingests answered by an existing blob (no new physical bytes).
    pub dedup_hits: usize,
    /// Physical bytes live in the store when the run ended — always
    /// `stored_bytes - reclaimed_bytes`, which every run audits.
    pub live_blob_bytes: usize,
    /// Cumulative storage counters snapshotted at each server epoch commit,
    /// in commit order — the capacity-over-time trajectory.
    pub storage_epochs: Vec<EpochStorage>,
    /// Per-epoch cell utilization: delivered bits over capacity × epoch
    /// length, indexed by epoch. Empty when the cell is disabled.
    pub cell_utilization: Vec<f64>,
    /// Per-device outcomes, in device-id order.
    pub devices: Vec<DeviceSummary>,
}

impl FleetReport {
    /// Serializes the report to a canonical single-line JSON string.
    ///
    /// Hand-rolled (fixed key order, shortest-roundtrip float formatting)
    /// so two identical runs produce byte-identical output — this is what
    /// the determinism tests compare.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 128 * self.devices.len());
        let scheme = self.scheme.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!("{{\"scheme\":\"{scheme}\""));
        let mut field = |key: &str, value: &dyn std::fmt::Display| {
            out.push_str(&format!(",\"{key}\":{value}"));
        };
        field("n_devices", &self.n_devices);
        field("rounds_completed", &self.rounds_completed);
        field("images_captured", &self.images_captured);
        field("images_uploaded", &self.images_uploaded);
        field("skipped_cross_batch", &self.skipped_cross_batch);
        field("skipped_in_batch", &self.skipped_in_batch);
        field("uplink_bytes", &self.uplink_bytes);
        field("redundancy_elimination", &self.redundancy_elimination);
        field("server_queries", &self.server_queries);
        field("devices_exhausted", &self.devices_exhausted);
        field("salvaged_images", &self.salvaged_images);
        field("partials_upgraded", &self.partials_upgraded);
        field("partials_pending", &self.partials_pending);
        field("grants_issued", &self.grants_issued);
        field("grants_denied", &self.grants_denied);
        field("deadline_abandons", &self.deadline_abandons);
        field("unique_locations", &self.unique_locations);
        field("energy_spent_j", &self.energy_spent_j);
        field("pulldown_requests", &self.pulldown_requests);
        field("pulldown_fulfilled", &self.pulldown_fulfilled);
        field("pulldown_denied", &self.pulldown_denied);
        field("pulldown_bytes", &self.pulldown_bytes);
        field("pulldown_joules", &self.pulldown_joules);
        field("stored_bytes", &self.stored_bytes);
        field("reclaimed_bytes", &self.reclaimed_bytes);
        field("dedup_hits", &self.dedup_hits);
        field("live_blob_bytes", &self.live_blob_bytes);
        let epochs = list(&self.storage_epochs, |e| {
            format!(
                "{{\"stored_bytes\":{},\"reclaimed_bytes\":{},\"dedup_hits\":{}}}",
                e.stored_bytes, e.reclaimed_bytes, e.dedup_hits
            )
        });
        field("storage_epochs", &epochs);
        let utilization = list(&self.cell_utilization, f64::to_string);
        field("cell_utilization", &utilization);
        let devices = list(&self.devices, |d| {
            format!(
                "{{\"device\":{},\"rounds\":{},\"uploaded_images\":{},\
                 \"uplink_bytes\":{},\"grants\":{},\"denied\":{},\
                 \"deadline_abandons\":{},\"final_ebat\":{},\"exhausted\":{}}}",
                d.device,
                d.rounds,
                d.uploaded_images,
                d.uplink_bytes,
                d.grants,
                d.denied,
                d.deadline_abandons,
                d.final_ebat,
                d.exhausted
            )
        });
        field("devices", &devices);
        out.push('}');
        out
    }

    /// One message per ledger identity this report breaks (DESIGN §9 lists
    /// them); empty when every ledger balances.
    fn audit(&self) -> Vec<String> {
        let mut broken = Vec::new();
        if self.salvaged_images != self.partials_upgraded + self.partials_pending {
            broken.push(format!(
                "salvaged_images {} != partials_upgraded {} + partials_pending {}",
                self.salvaged_images, self.partials_upgraded, self.partials_pending
            ));
        }
        let sum =
            |field: fn(&DeviceSummary) -> usize| -> usize { self.devices.iter().map(field).sum() };
        for (name, total, per_device) in [
            ("grants_issued", self.grants_issued, sum(|d| d.grants)),
            ("grants_denied", self.grants_denied, sum(|d| d.denied)),
            (
                "deadline_abandons",
                self.deadline_abandons,
                sum(|d| d.deadline_abandons),
            ),
        ] {
            if total != per_device {
                broken.push(format!("{name} {total} != per-device sum {per_device}"));
            }
        }
        if self.pulldown_requests != self.pulldown_fulfilled + self.pulldown_denied {
            broken.push(format!(
                "pulldown_requests {} != pulldown_fulfilled {} + pulldown_denied {}",
                self.pulldown_requests, self.pulldown_fulfilled, self.pulldown_denied
            ));
        }
        if (self.pulldown_fulfilled > 0) != (self.pulldown_bytes > 0) {
            broken.push(format!(
                "pulldown_bytes {} with {} fetches fulfilled",
                self.pulldown_bytes, self.pulldown_fulfilled
            ));
        }
        // A fetch whose battery dies mid-transfer spends joules unfulfilled.
        if self.pulldown_requests == 0 && self.pulldown_joules != 0.0 {
            broken.push(format!(
                "pulldown_joules {} with no fetch requested",
                self.pulldown_joules
            ));
        }
        if self.stored_bytes.checked_sub(self.reclaimed_bytes) != Some(self.live_blob_bytes) {
            broken.push(format!(
                "stored_bytes {} - reclaimed_bytes {} != live_blob_bytes {}",
                self.stored_bytes, self.reclaimed_bytes, self.live_blob_bytes
            ));
        }
        let series = |field: fn(&EpochStorage) -> usize| -> Vec<usize> {
            self.storage_epochs.iter().map(field).collect()
        };
        for (name, total, values) in [
            (
                "stored_bytes",
                self.stored_bytes,
                series(|e| e.stored_bytes),
            ),
            (
                "reclaimed_bytes",
                self.reclaimed_bytes,
                series(|e| e.reclaimed_bytes),
            ),
            ("dedup_hits", self.dedup_hits, series(|e| e.dedup_hits)),
        ] {
            if values.windows(2).any(|w| w[1] < w[0]) {
                broken.push(format!("storage_epochs {name} decreases: {values:?}"));
            }
            if values.last().is_some_and(|&last| last > total) {
                broken.push(format!(
                    "storage_epochs {name} ends above the run total {total}: {values:?}"
                ));
            }
        }
        for (epoch, u) in self.cell_utilization.iter().enumerate() {
            if !(u.is_finite() && *u >= 0.0) {
                broken.push(format!(
                    "cell_utilization[{epoch}] {u} is not finite and >= 0"
                ));
            }
        }
        broken
    }
}

/// Renders `items` as a JSON array, each by `item`.
fn list<T>(items: &[T], item: impl Fn(&T) -> String) -> String {
    let items: Vec<String> = items.iter().map(item).collect();
    format!("[{}]", items.join(","))
}

/// One pending upload: device `device` starts its `round`-th group at
/// virtual time `time`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    device: usize,
    round: usize,
}

impl Eq for Event {}

impl Ord for Event {
    /// Ascending virtual time, ties broken by device id — the total order
    /// that makes the fleet interleaving deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.device.cmp(&other.device))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// SplitMix64 — derives per-device/round/image seeds from the master seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small deterministic camera jitter derived from `seed`, so each device
/// sees its own view of a shared scene.
fn jitter_for(seed: u64) -> ViewJitter {
    let a = mix(seed);
    ViewJitter {
        dx: ((a & 0xFF) as f32 / 255.0 - 0.5) * 6.0,
        dy: (((a >> 8) & 0xFF) as f32 / 255.0 - 0.5) * 6.0,
        brightness: (((a >> 16) & 0x1F) as i32) - 16,
        noise_seed: mix(a),
        ..ViewJitter::identity()
    }
}

/// The group device `device` uploads in round `round`: views of the
/// round-shared scenes first, then device-unique scenes.
fn make_batch(fleet: &FleetConfig, device: usize, round: usize) -> Vec<RgbImage> {
    let shared = fleet.shared_per_group.min(fleet.group_size);
    let mut batch = Vec::with_capacity(fleet.group_size);
    for j in 0..shared {
        // Scene seed depends on (fleet, round, j) only — every device
        // renders the *same* scene through its own jitter.
        let scene_seed = mix(fleet.seed ^ mix((round as u64) << 16 | j as u64));
        let scene = Scene::new(scene_seed, fleet.scene);
        let view_seed = mix(scene_seed ^ mix(device as u64 + 1));
        batch.push(scene.render(&jitter_for(view_seed)));
    }
    for j in shared..fleet.group_size {
        let scene_seed =
            mix(fleet.seed ^ mix((device as u64) << 32 | (round as u64) << 16 | j as u64) ^ 0xD1CE);
        let scene = Scene::new(scene_seed, fleet.scene);
        batch.push(scene.render(&ViewJitter::identity()));
    }
    batch
}

/// Size of the deterministic geotag lattice devices map onto in shared-cell
/// mode. *Adjacent* device ids pair up at the same site (responders work a
/// scene in teams of two), so arrival-order scheduling keeps spending
/// airtime on a site it already covered while the utility ranking's
/// coverage-gap factor spreads grants across sites.
const FLEET_LOCATIONS: usize = 4;

/// Devices per lattice site: ids `2k` and `2k+1` share a geotag.
const DEVICES_PER_LOCATION: usize = 2;

/// A device defers its whole round after this many times the configured
/// starvation bound — the backstop that keeps a permanently dark cell from
/// re-enqueuing the same round forever.
const GIVE_UP_FACTOR: u32 = 4;

fn device_geotag(device: usize) -> (f64, f64) {
    let loc = (device / DEVICES_PER_LOCATION) % FLEET_LOCATIONS;
    ((loc % 2) as f64 * 0.01, (loc / 2) as f64 * 0.01)
}

/// Runs the fleet session: N devices share one server and upload groups in
/// event-queue order (time, then device id) until every device has done
/// its rounds or died.
///
/// With [`BeesConfig::cell`] enabled the devices additionally share one
/// uplink cell: see the module docs for the grant/deny/deadline semantics.
///
/// # Errors
///
/// Returns a network error if a channel stalls beyond its limit, or an
/// invalid-config error from server/client/cell construction or naming
/// the [`FleetConfig`] field that is unusable: a zero `n_devices`,
/// `rounds` or `group_size`, or an `interval_s` that is negative or not
/// finite.
///
/// # Panics
///
/// Panics if the finished report breaks one of its ledger identities (a
/// bug in the loop, never a property of the input).
pub fn run_fleet(
    scheme: &dyn UploadScheme,
    config: &BeesConfig,
    fleet: &FleetConfig,
) -> Result<FleetReport> {
    run_fleet_traced(scheme, config, fleet, &Telemetry::disabled())
}

/// [`run_fleet`] with a telemetry handle: scheme stage spans, `net.*`
/// spans, and the scheduler's `sched.grant` / `sched.deny` /
/// `sched.preempt` events all drain into `telemetry`'s sinks.
///
/// # Errors
///
/// Same as [`run_fleet`].
///
/// # Panics
///
/// Same as [`run_fleet`].
pub fn run_fleet_traced(
    scheme: &dyn UploadScheme,
    config: &BeesConfig,
    fleet: &FleetConfig,
    telemetry: &Telemetry,
) -> Result<FleetReport> {
    run_fleet_with_server(scheme, config, fleet, telemetry).map(|(report, _)| report)
}

/// [`run_fleet_traced`], additionally handing back the server the fleet
/// uploaded into, so callers can issue [`Server::retrieve`] queries against
/// the final state — one record per image: geotags, times, partials,
/// thumbnails, and whatever the pull-down pass left on the on-device
/// catalog.
///
/// # Errors
///
/// Same as [`run_fleet`].
///
/// # Panics
///
/// Same as [`run_fleet`].
pub fn run_fleet_with_server(
    scheme: &dyn UploadScheme,
    config: &BeesConfig,
    fleet: &FleetConfig,
    telemetry: &Telemetry,
) -> Result<(FleetReport, Server)> {
    fleet.validate()?;
    let server = Server::try_new(config)?;
    let cell = if config.cell.enabled {
        Some(config.cell.build()?)
    } else {
        None
    };
    let device = |d: usize| -> Result<Device> {
        Ok(Device {
            client: Client::try_new(d as u64, config)?,
            summary: DeviceSummary {
                device: d as u64,
                rounds: 0,
                uploaded_images: 0,
                uplink_bytes: 0,
                grants: 0,
                denied: 0,
                deadline_abandons: 0,
                final_ebat: 1.0,
                exhausted: false,
            },
            novelty: 1.0,
            est_bytes: fleet.group_size * 32 * 1024,
            denial_streak: 0,
        })
    };
    let devices = (0..fleet.n_devices).map(device).collect::<Result<_>>()?;
    let (report, server) = Fleet {
        scheme,
        fleet,
        telemetry,
        server,
        devices,
        queue: BinaryHeap::new(),
        cell: cell.as_ref(),
        scheduler: AirtimeScheduler::new(
            config.scheduler,
            config.cell.oversubscription_threshold,
            config.cell.max_consecutive_denials,
        ),
        chunk: config.retry.chunk_bytes.max(1),
        give_up_denials: GIVE_UP_FACTOR.saturating_mul(config.cell.max_consecutive_denials),
        epoch_bytes: BTreeMap::new(),
        totals: Totals::default(),
    }
    .run()?;
    let broken = report.audit();
    assert!(broken.is_empty(), "fleet ledgers broken: {broken:?}");
    Ok((report, server))
}

/// One simulated device: its client, its report row, and the demand
/// signals the airtime scheduler reads.
struct Device {
    client: Client,
    summary: DeviceSummary,
    /// Share of the last round's captures that survived redundancy checks.
    novelty: f64,
    /// Full-tier uplink bytes the next round is expected to need.
    est_bytes: usize,
    /// Epochs in a row the scheduler has denied this device.
    denial_streak: u32,
}

/// Fleet tallies that no device row carries.
#[derive(Default)]
struct Totals {
    images_captured: usize,
    skipped_cross_batch: usize,
    skipped_in_batch: usize,
    salvaged_images: usize,
    partials_upgraded: usize,
    pulldown_requests: usize,
    pulldown_fulfilled: usize,
    pulldown_denied: usize,
    pulldown_bytes: usize,
}

/// A planned cell epoch and the rate each granted device gets in it.
#[derive(Clone, Copy)]
struct Epoch {
    index: u64,
    start: f64,
    end: f64,
    share: f64,
}

/// An image a device is asked to fetch, with its estimated payload bytes.
type Fetch = (ImageId, usize);

/// One fleet run in progress.
struct Fleet<'a> {
    scheme: &'a dyn UploadScheme,
    fleet: &'a FleetConfig,
    telemetry: &'a Telemetry,
    server: Server,
    devices: Vec<Device>,
    queue: BinaryHeap<Reverse<Event>>,
    /// The shared cell; `None` gives every device a private channel.
    cell: Option<&'a SharedCell>,
    scheduler: AirtimeScheduler,
    chunk: usize,
    give_up_denials: u32,
    /// Delivered bytes by grant epoch, for the utilization series.
    epoch_bytes: BTreeMap<u64, usize>,
    totals: Totals,
}

impl Fleet<'_> {
    /// Runs every round in event order, a cell epoch at a time under a
    /// shared cell, then the pull-down pass and the report.
    fn run(mut self) -> Result<(FleetReport, Server)> {
        for d in 0..self.devices.len() {
            self.queue_round(d, 0, f64::NEG_INFINITY);
        }
        while let Some(Reverse(first)) = self.queue.pop() {
            match self.cell {
                Some(cell) => self.airtime_epoch(cell, first)?,
                None => self.round(first, UploadTier::Full)?,
            }
        }
        if let Some(pd) = self.fleet.pulldown {
            self.pulldown(pd.radius_km)?;
        }
        Ok(self.report())
    }

    /// The round: device `ev.device` captures its group, the scheme uploads
    /// it at `tier`, and the device's demand signals are refreshed. A
    /// full-tier round then upgrades its salvaged partials (a capped grant
    /// must not spend airtime its tier saved); a surviving device sleeps
    /// out its capture interval before its next round is queued.
    fn round(&mut self, ev: Event, tier: UploadTier) -> Result<()> {
        let d = ev.device;
        let batch = make_batch(self.fleet, d, ev.round);
        self.totals.images_captured += batch.len();
        let tags = self.cell.map(|_| vec![device_geotag(d); batch.len()]);
        let device = &mut self.devices[d];
        let start = device.client.now();
        // Ingests carry the device's clock for time-window retrieval. Ids
        // only grow, so every record past the newest one is this round's.
        self.server.set_time(start);
        let first_new = self.server.records().keys().next_back();
        let first_new = first_new.map_or(0, |id| id.0 + 1);
        let mut ctx = BatchCtx::new(&mut device.client, &mut self.server, &batch)
            .with_telemetry(self.telemetry.clone())
            .with_tier(tier);
        if self.fleet.pulldown.is_some() {
            ctx = ctx.with_deferral_catalog(d as u64);
        }
        if let Some(tags) = &tags {
            ctx = ctx.with_geotags(tags)?;
        }
        let report = self.scheme.upload(&mut ctx)?;
        device.summary.rounds += 1;
        device.summary.uploaded_images += report.uploaded_images;
        device.summary.uplink_bytes += report.uplink_bytes;
        device.summary.exhausted |= report.exhausted;
        let group = self.fleet.group_size;
        let novel = group - report.skipped_cross_batch - report.skipped_in_batch;
        device.novelty = (novel as f64 / group as f64).clamp(0.05, 1.0);
        device.est_bytes = report.uplink_bytes.max(group * 1024);
        self.totals.skipped_cross_batch += report.skipped_cross_batch;
        self.totals.skipped_in_batch += report.skipped_in_batch;
        self.totals.salvaged_images += report.salvaged_images;
        let alive =
            !report.exhausted && (tier != UploadTier::Full || self.upgrade_tails(d, first_new)?);
        if alive && ev.round + 1 < self.fleet.rounds {
            let elapsed = self.devices[d].client.now() - start;
            let interval = self.fleet.interval_s;
            if elapsed >= interval || self.sleep(d, interval - elapsed) {
                self.queue_round(d, ev.round + 1, f64::NEG_INFINITY);
            }
        }
        Ok(())
    }

    /// The tail upgrade: device `d` retries the missing scan tails of the
    /// partials its round salvaged (records from `first_new` on). A
    /// delivered tail upgrades the server's copy in place; a cut one stays
    /// pending. Returns whether the device survived.
    fn upgrade_tails(&mut self, d: usize, first_new: u64) -> Result<bool> {
        let tails: Vec<Fetch> = self
            .server
            .records()
            .range(ImageId(first_new)..)
            .filter_map(|(&id, r)| r.partial().map(|p| (id, p.total_bytes - p.payload_bytes)))
            .collect();
        for (id, tail) in tails {
            let bytes = wire::framed_upload_bytes(tail, self.chunk);
            if self.transmit(d, EnergyCategory::ImageUpload, bytes)? {
                self.server.ingest(IngestRequest::upgrade(id));
                self.totals.partials_upgraded += 1;
            } else if self.devices[d].summary.exhausted {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The airtime epoch: the queued rounds in `first`'s cell epoch form
    /// the cohort, the scheduler plans their demands, and each member acts
    /// on its verdict.
    fn airtime_epoch(&mut self, cell: &SharedCell, first: Event) -> Result<()> {
        let mut cohort = vec![first];
        while let Some(&Reverse(next)) = self.queue.peek() {
            if cell.epoch_of(next.time) != cell.epoch_of(first.time) {
                break;
            }
            cohort.push(next);
            self.queue.pop();
        }
        // The sites the server holds images from, collected once.
        let bits = |(lon, lat): (f64, f64)| (lon.to_bits(), lat.to_bits());
        let records = self.server.records().values();
        let covered: BTreeSet<(u64, u64)> = records
            .filter(|r| r.is_received())
            .filter_map(|r| r.geotag.map(bits))
            .collect();
        let demand = |(k, ev): (usize, &Event)| {
            let device = &self.devices[ev.device];
            let covered = covered.contains(&bits(device_geotag(ev.device)));
            DeviceDemand {
                device: ev.device,
                novelty: device.novelty,
                ebat: device.client.ebat(),
                coverage_gap: if covered { 0.25 } else { 1.0 },
                est_bytes: device.est_bytes,
                arrival_order: k,
                consecutive_denials: device.denial_streak,
            }
        };
        let demands: Vec<DeviceDemand> = cohort.iter().enumerate().map(demand).collect();
        let (epoch, plan) = self.plan(cell, first.time, &demands);
        for ev in cohort {
            let grant = plan.grant_for(ev.device).expect("member has a verdict");
            self.verdict(ev, *grant, epoch)?;
        }
        Ok(())
    }

    /// One cohort member's verdict. A granted device runs its round at the
    /// epoch's share, with the epoch end as its deadline. A denied one
    /// sleeps out the epoch without spending radio energy and contends
    /// again; denied too often, it gives the round up.
    fn verdict(&mut self, ev: Event, grant: Grant, epoch: Epoch) -> Result<()> {
        let d = ev.device;
        let device = &mut self.devices[d];
        let denied = grant.tier == UploadTier::Defer;
        device.denial_streak = if denied { device.denial_streak + 1 } else { 0 };
        let streak = device.denial_streak;
        if self.book_verdict(d, &grant, epoch.start, streak) {
            let before = self.devices[d].summary.uplink_bytes;
            self.with_grant(d, epoch.share, Some(epoch.end), |f| f.round(ev, grant.tier))?;
            let delivered = self.devices[d].summary.uplink_bytes - before;
            *self.epoch_bytes.entry(epoch.index).or_insert(0) += delivered;
        } else if streak >= self.give_up_denials {
            // Waiting out a cell this dark is pointless: drop the round.
            let device = &mut self.devices[d];
            device.denial_streak = 0;
            device.summary.rounds += 1;
            if ev.round + 1 < self.fleet.rounds && self.sleep(d, self.fleet.interval_s) {
                self.queue_round(d, ev.round + 1, f64::NEG_INFINITY);
            }
        } else {
            // The floor keeps the re-queued round past the epoch boundary
            // even if the idle's float arithmetic lands a hair short of it.
            let now = self.devices[d].client.now();
            if now >= epoch.end || self.sleep(d, epoch.end - now) {
                self.queue_round(d, ev.round, epoch.end);
            }
        }
        Ok(())
    }

    /// The pull-down pass: once the fleet has gone quiet the responders
    /// sweep the lattice; under a shared cell the devices holding what the
    /// sweep surfaced contend for one epoch's airtime; then each device
    /// with a grant (every device without a cell) serves its fetches.
    fn pulldown(&mut self, radius_km: f64) -> Result<()> {
        let clocks = self.devices.iter().map(|d| d.client.now());
        let t0 = clocks.fold(0.0, f64::max);
        self.server.set_time(t0);
        // The sweep: one geo retrieval per lattice site, on-device catalog
        // included; each owner's hits in relevance order, deduplicated.
        let mut wanted: BTreeMap<u64, Vec<Fetch>> = BTreeMap::new();
        let mut seen: BTreeSet<ImageId> = BTreeSet::new();
        for site in 0..FLEET_LOCATIONS {
            let (lon, lat) = device_geotag(site * DEVICES_PER_LOCATION);
            let query = RetrievalQuery::new()
                .near(lon, lat, radius_km)
                .include_on_device(true);
            for hit in self.server.answer(&query).hits {
                if let Provenance::OnDevice { device_id } = hit.provenance {
                    if seen.insert(hit.id) {
                        let record = self.server.records().get(&hit.id);
                        let est = record
                            .and_then(ImageRecord::on_device)
                            .map_or(0, |e| e.est_bytes);
                        wanted.entry(device_id).or_default().push((hit.id, est));
                    }
                }
            }
        }
        self.totals.pulldown_requests = wanted.values().map(Vec::len).sum();
        let planned = self.cell.map(|cell| {
            let demands: Vec<DeviceDemand> = wanted
                .iter()
                .enumerate()
                .map(|(k, (&d, ids))| DeviceDemand {
                    device: d as usize,
                    novelty: 1.0,
                    ebat: self.devices[d as usize].client.ebat(),
                    coverage_gap: 1.0,
                    est_bytes: ids.iter().map(|&(_, est)| est).sum(),
                    arrival_order: k,
                    consecutive_denials: 0,
                })
                .collect();
            self.plan(cell, t0, &demands)
        });
        for (&d, ids) in &wanted {
            let d = d as usize;
            let Some((epoch, plan)) = &planned else {
                self.fetch(d, ids, t0, None)?;
                continue;
            };
            let grant = plan.grant_for(d).expect("every requester has a verdict");
            if !self.book_verdict(d, grant, epoch.start, 1) {
                self.totals.pulldown_denied += ids.len();
                continue;
            }
            // No epoch deadline: it keeps capture rounds on cadence, and the
            // rounds are over. The retry budget still bounds each fetch.
            let index = Some(epoch.index);
            self.with_grant(d, epoch.share, None, |f| f.fetch(d, ids, t0, index))?;
        }
        Ok(())
    }

    /// The fetches: device `d` wakes up to the sweep time `t0` and sends
    /// its images. A denied or cut fetch leaves its image on the catalog.
    fn fetch(&mut self, d: usize, ids: &[Fetch], t0: f64, epoch: Option<u64>) -> Result<()> {
        let now = self.devices[d].client.now();
        if now < t0 {
            self.sleep(d, t0 - now);
        }
        for &(id, est) in ids {
            let bytes = wire::framed_upload_bytes(est, self.chunk);
            let dead = self.devices[d].summary.exhausted;
            if dead || !self.transmit(d, EnergyCategory::PullDown, bytes)? {
                self.totals.pulldown_denied += 1;
                continue;
            }
            self.server.ingest(IngestRequest::fulfill(id));
            self.totals.pulldown_fulfilled += 1;
            self.totals.pulldown_bytes += bytes;
            if let Some(epoch) = epoch {
                *self.epoch_bytes.entry(epoch).or_insert(0) += bytes;
            }
            let now = self.devices[d].client.now();
            self.telemetry
                .event(names::SRV_PULLDOWN, now)
                .attr_u64("device", d as u64)
                .attr_u64("image", id.0)
                .attr_u64("bytes", bytes as u64)
                .close(now);
        }
        Ok(())
    }

    /// Plans the cell epoch holding time `at` for `demands`.
    fn plan(&mut self, cell: &SharedCell, at: f64, demands: &[DeviceDemand]) -> (Epoch, EpochPlan) {
        let index = cell.epoch_of(at);
        let start = cell.epoch_start(index);
        let (budget, capacity) = (cell.epoch_budget_s(start), cell.capacity_bps(start));
        let plan = self.scheduler.plan_epoch(demands, budget, capacity);
        let epoch = Epoch {
            index,
            start,
            end: cell.epoch_end(index),
            share: cell.share_bps(start, plan.granted),
        };
        (epoch, plan)
    }

    /// Books the verdict on device `d` at `at`: the grant or denial counter
    /// and its `sched.*` event. Returns whether the device got airtime.
    fn book_verdict(&mut self, d: usize, grant: &Grant, at: f64, denials: u32) -> bool {
        let policy = self.scheduler.policy().as_str();
        let summary = &mut self.devices[d].summary;
        if grant.tier == UploadTier::Defer {
            summary.denied += 1;
            self.telemetry
                .event(names::SCHED_DENY, at)
                .attr_u64("device", d as u64)
                .attr_str("policy", policy)
                .attr_f64("utility", grant.utility)
                .attr_u64("denials", u64::from(denials))
                .close(at);
            return false;
        }
        summary.grants += 1;
        self.telemetry
            .event(names::SCHED_GRANT, at)
            .attr_u64("device", d as u64)
            .attr_str("tier", grant.tier.as_str())
            .attr_str("policy", policy)
            .attr_f64("utility", grant.utility)
            .attr_bool("forced", grant.forced)
            .close(at);
        true
    }

    /// Runs `body` with device `d` sending at `share` of the cell, under
    /// `deadline` if one is given; both are lifted afterwards.
    fn with_grant<T>(
        &mut self,
        d: usize,
        share: f64,
        deadline: Option<f64>,
        body: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        self.devices[d].client.set_rate_override(Some(share))?;
        self.devices[d].client.set_grant_deadline(deadline);
        let out = body(self)?;
        self.devices[d].client.set_rate_override(None)?;
        self.devices[d].client.set_grant_deadline(None);
        Ok(out)
    }

    /// Idles device `d` for `seconds`; a battery that empties on the way
    /// marks it exhausted. Returns whether the device survived.
    fn sleep(&mut self, d: usize, seconds: f64) -> bool {
        let device = &mut self.devices[d];
        let alive = device.client.idle(seconds).is_ok();
        device.summary.exhausted |= !alive;
        alive
    }

    /// Sends `bytes` from live device `d` with resumable retries: delivered
    /// (the bytes join its uplink), cut, or dead (the device is exhausted).
    /// Returns whether the bytes were delivered.
    fn transmit(&mut self, d: usize, category: EnergyCategory, bytes: usize) -> Result<bool> {
        let device = &mut self.devices[d];
        match device.client.transmit_resumable(category, bytes) {
            Ok(_) => device.summary.uplink_bytes += bytes,
            Err(CoreError::Net(NetError::RetriesExhausted { .. })) => return Ok(false),
            Err(CoreError::BatteryExhausted { .. }) => device.summary.exhausted = true,
            Err(other) => return Err(other),
        }
        Ok(!device.summary.exhausted)
    }

    /// Queues device `d`'s `round` at its clock's time, but not before `not_before`.
    fn queue_round(&mut self, d: usize, round: usize, not_before: f64) {
        let time = self.devices[d].client.now().max(not_before);
        self.queue.push(Reverse(Event {
            time,
            device: d,
            round,
        }));
    }

    /// The report: each device row takes its client's final battery and
    /// abandon count, fleet totals are summed over the rows once, and the
    /// storage ledgers come from the server.
    fn report(self) -> (FleetReport, Server) {
        let (mut energy_spent_j, mut pulldown_joules) = (0.0, 0.0);
        let mut devices = Vec::with_capacity(self.devices.len());
        for mut device in self.devices {
            device.summary.final_ebat = device.client.ebat();
            device.summary.deadline_abandons = device.client.deadline_abandons() as usize;
            energy_spent_j += device.client.battery().drawn_joules();
            pulldown_joules += device.client.ledger().get(EnergyCategory::PullDown);
            devices.push(device.summary);
        }
        let sum = |field: fn(&DeviceSummary) -> usize| -> usize { devices.iter().map(field).sum() };
        let epoch_bytes = &self.epoch_bytes;
        let cell_utilization = match (self.cell, epoch_bytes.keys().next_back()) {
            (Some(cell), Some(&last)) => (0..=last)
                .map(|e| {
                    let bytes = epoch_bytes.get(&e).copied().unwrap_or(0);
                    let cap = cell.capacity_bps(cell.epoch_start(e));
                    if cap > 0.0 {
                        (bytes as f64 * 8.0) / (cap * cell.epoch_s())
                    } else {
                        0.0
                    }
                })
                .collect(),
            _ => Vec::new(),
        };
        let (server, totals) = (self.server, self.totals);
        let images_uploaded = server.received_images();
        let redundancy_elimination = if totals.images_captured > 0 {
            (totals.images_captured - images_uploaded) as f64 / totals.images_captured as f64
        } else {
            0.0
        };
        let ledger = server.storage().ledger();
        let pending = server.records().values().filter(|r| r.partial().is_some());
        let report = FleetReport {
            scheme: self.scheme.kind().to_string(),
            n_devices: self.fleet.n_devices,
            rounds_completed: sum(|d| d.rounds),
            images_captured: totals.images_captured,
            images_uploaded,
            skipped_cross_batch: totals.skipped_cross_batch,
            skipped_in_batch: totals.skipped_in_batch,
            uplink_bytes: sum(|d| d.uplink_bytes),
            redundancy_elimination,
            server_queries: server.queries_served(),
            devices_exhausted: sum(|d| usize::from(d.exhausted)),
            salvaged_images: totals.salvaged_images,
            partials_upgraded: totals.partials_upgraded,
            partials_pending: pending.count(),
            grants_issued: sum(|d| d.grants),
            grants_denied: sum(|d| d.denied),
            deadline_abandons: sum(|d| d.deadline_abandons),
            unique_locations: server.unique_locations(),
            energy_spent_j,
            pulldown_requests: totals.pulldown_requests,
            pulldown_fulfilled: totals.pulldown_fulfilled,
            pulldown_denied: totals.pulldown_denied,
            pulldown_bytes: totals.pulldown_bytes,
            pulldown_joules,
            stored_bytes: ledger.stored_bytes,
            reclaimed_bytes: ledger.reclaimed_bytes,
            dedup_hits: ledger.dedup_hits,
            live_blob_bytes: server.storage().live_bytes(),
            storage_epochs: ledger.epochs.clone(),
            cell_utilization,
            devices,
        };
        (report, server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::Bees;
    use crate::IndexBackend;
    use bees_energy::Battery;
    use bees_net::BandwidthTrace;

    fn tiny_fleet() -> FleetConfig {
        FleetConfig {
            n_devices: 3,
            rounds: 2,
            group_size: 4,
            shared_per_group: 2,
            interval_s: 30.0,
            scene: SceneConfig {
                width: 96,
                height: 72,
                n_shapes: 8,
                texture_amp: 8.0,
            },
            seed: 11,
            pulldown: None,
        }
    }

    fn config() -> BeesConfig {
        BeesConfig {
            trace: BandwidthTrace::constant(256_000.0).unwrap(),
            ..BeesConfig::default()
        }
    }

    #[test]
    fn events_pop_by_time_then_device() {
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        for (time, device) in [(5.0, 0), (0.0, 2), (0.0, 1), (3.0, 0)] {
            heap.push(Reverse(Event {
                time,
                device,
                round: 0,
            }));
        }
        let order: Vec<(f64, usize)> = std::iter::from_fn(|| heap.pop())
            .map(|Reverse(e)| (e.time, e.device))
            .collect();
        assert_eq!(order, vec![(0.0, 1), (0.0, 2), (3.0, 0), (5.0, 0)]);
    }

    #[test]
    fn unusable_fleet_fields_are_typed_errors() {
        let cfg = config();
        let scheme = Bees::adaptive(&cfg);
        let fleet_with = |edit: fn(&mut FleetConfig)| {
            let mut fleet = tiny_fleet();
            edit(&mut fleet);
            fleet
        };
        for (field, fleet) in [
            ("n_devices", fleet_with(|f| f.n_devices = 0)),
            ("rounds", fleet_with(|f| f.rounds = 0)),
            ("group_size", fleet_with(|f| f.group_size = 0)),
            ("interval_s", fleet_with(|f| f.interval_s = f64::NAN)),
            ("interval_s", fleet_with(|f| f.interval_s = f64::INFINITY)),
            ("interval_s", fleet_with(|f| f.interval_s = -30.0)),
        ] {
            match run_fleet(&scheme, &cfg, &fleet) {
                Err(CoreError::InvalidConfig { detail }) => {
                    assert!(detail.contains(field), "{field}: {detail}")
                }
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
        }
        // A zero interval is a valid back-to-back schedule.
        assert!(run_fleet(&scheme, &cfg, &fleet_with(|f| f.interval_s = 0.0)).is_ok());
    }

    #[test]
    fn fleet_report_is_reproducible() {
        let cfg = config();
        let a = run_fleet(&Bees::adaptive(&cfg), &cfg, &tiny_fleet()).unwrap();
        let b = run_fleet(&Bees::adaptive(&cfg), &cfg, &tiny_fleet()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.n_devices, 3);
        assert_eq!(a.rounds_completed, 6);
        assert_eq!(a.images_captured, 24);
        assert!(a.server_queries > 0);
        // Shared scenes give the fleet real redundancy to eliminate.
        assert!(
            a.images_uploaded < a.images_captured,
            "uploaded {} of {}",
            a.images_uploaded,
            a.images_captured
        );
        assert!(a.redundancy_elimination > 0.0);
    }

    #[test]
    fn shard_count_does_not_change_the_report() {
        let fleet = tiny_fleet();
        let mut reports = Vec::new();
        for shards in [1usize, 2, 4] {
            let cfg = BeesConfig {
                index_backend: IndexBackend::Mih,
                server_shards: shards,
                ..config()
            };
            let r = run_fleet(&Bees::adaptive(&cfg), &cfg, &fleet).unwrap();
            reports.push(r.to_json());
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }

    #[test]
    fn dying_devices_are_counted() {
        // ~20 J is enough to start uploading but not to finish two rounds.
        let mut cfg = config();
        cfg.battery = Battery::from_joules(20.0);
        let r = run_fleet(&Bees::adaptive(&cfg), &cfg, &tiny_fleet()).unwrap();
        assert!(r.devices_exhausted > 0);
        let died: usize = r.devices.iter().filter(|d| d.exhausted).count();
        assert_eq!(died, r.devices_exhausted);
        for d in r.devices.iter().filter(|d| d.exhausted) {
            assert!(d.final_ebat < 1.0);
        }
    }

    #[test]
    fn faulty_fleet_salvages_partials_and_upgrades_tails() {
        let mut cfg = config();
        cfg.battery = Battery::from_joules(1e9);
        cfg.fault = bees_net::FaultModel::new(0x5A17A6E, 0.6, 0.0, 1e9, 1.0).unwrap();
        cfg.retry.max_attempts = 3;
        cfg.retry.chunk_bytes = 128;
        let a = run_fleet(&Bees::adaptive(&cfg), &cfg, &tiny_fleet()).unwrap();
        let b = run_fleet(&Bees::adaptive(&cfg), &cfg, &tiny_fleet()).unwrap();
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "salvage path must stay deterministic"
        );
        assert!(
            a.salvaged_images > 0,
            "lossy fleet should salvage something"
        );
    }

    fn contended_config(capacity_bps: f64) -> BeesConfig {
        let mut c = config();
        c.battery = Battery::from_joules(1e9);
        c.cell.enabled = true;
        c.cell.capacity = BandwidthTrace::constant(capacity_bps).unwrap();
        c.cell.epoch_s = 20.0;
        c
    }

    #[test]
    fn disabled_cell_reports_zeroed_contention_fields() {
        let cfg = config();
        let r = run_fleet(&Bees::adaptive(&cfg), &cfg, &tiny_fleet()).unwrap();
        assert_eq!(r.grants_issued, 0);
        assert_eq!(r.grants_denied, 0);
        assert_eq!(r.deadline_abandons, 0);
        assert_eq!(r.unique_locations, 0);
        assert!(r.cell_utilization.is_empty());
        assert_eq!(r.pulldown_requests, 0);
        assert_eq!(r.pulldown_fulfilled + r.pulldown_denied, 0);
        assert_eq!(r.pulldown_bytes, 0);
        assert_eq!(r.pulldown_joules, 0.0);
        for d in &r.devices {
            assert_eq!((d.grants, d.denied, d.deadline_abandons), (0, 0, 0));
        }
    }

    #[test]
    fn contended_fleet_is_reproducible_and_accounts_grants() {
        let cfg = contended_config(128_000.0);
        let fleet = FleetConfig {
            n_devices: 5,
            ..tiny_fleet()
        };
        let a = run_fleet(&Bees::adaptive(&cfg), &cfg, &fleet).unwrap();
        let b = run_fleet(&Bees::adaptive(&cfg), &cfg, &fleet).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "contention must stay seeded");
        assert!(a.grants_issued > 0, "{a:?}");
        // Five devices on a four-slot lattice cover at most four spots.
        assert!(a.unique_locations >= 1 && a.unique_locations <= 4, "{a:?}");
        assert!(!a.cell_utilization.is_empty());
    }

    #[test]
    fn oversubscribed_cell_denies_and_degrades_instead_of_thrashing() {
        // Eight devices on a cell that fits roughly one full upload per
        // epoch: most grants must be degraded tiers or outright denials,
        // and the run still terminates with every image accounted for.
        let cfg = contended_config(32_000.0);
        let fleet = FleetConfig {
            n_devices: 8,
            rounds: 2,
            ..tiny_fleet()
        };
        let r = run_fleet(&Bees::adaptive(&cfg), &cfg, &fleet).unwrap();
        assert!(
            r.grants_denied > 0,
            "an 8-device 32 kbps cell must deny someone: {r:?}"
        );
        assert!(r.grants_issued > 0);
        // Starvation stays bounded: nobody waits forever.
        for d in &r.devices {
            assert!(
                d.rounds > 0 || d.exhausted,
                "device {} never ran a round: {r:?}",
                d.device
            );
        }
    }

    #[test]
    fn cell_outage_cuts_transfers_without_a_retry_storm() {
        let mut cfg = contended_config(128_000.0);
        // Periodic outages darken half of every 40 s cycle.
        cfg.cell.outage = bees_net::FaultModel::new(0xCE11, 0.0, 0.5, 40.0, 20.0).unwrap();
        let fleet = FleetConfig {
            n_devices: 6,
            rounds: 2,
            ..tiny_fleet()
        };
        let a = run_fleet(&Bees::adaptive(&cfg), &cfg, &fleet).unwrap();
        let b = run_fleet(&Bees::adaptive(&cfg), &cfg, &fleet).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "outage path must stay seeded");
        // Deadline abandons happen but stay bounded: at worst every
        // selected image abandons its full attempt and its thumbnail rung,
        // plus one feature query per round.
        let bound = 2 * a.images_captured + 2 * a.rounds_completed;
        assert!(
            a.deadline_abandons <= bound,
            "retry storm: {} abandons for {} images",
            a.deadline_abandons,
            a.images_captured
        );
    }

    #[test]
    fn scheduler_policies_are_each_reproducible() {
        use crate::SchedulerPolicy;
        let fleet = FleetConfig {
            n_devices: 6,
            ..tiny_fleet()
        };
        let mut jsons = Vec::new();
        for policy in [
            SchedulerPolicy::Fifo,
            SchedulerPolicy::RoundRobin,
            SchedulerPolicy::Utility,
        ] {
            let mut cfg = contended_config(48_000.0);
            cfg.scheduler = policy;
            let a = run_fleet(&Bees::adaptive(&cfg), &cfg, &fleet).unwrap();
            let b = run_fleet(&Bees::adaptive(&cfg), &cfg, &fleet).unwrap();
            assert_eq!(a.to_json(), b.to_json(), "{policy:?} must be seeded");
            jsons.push(a.to_json());
        }
        // Under 2x+ oversubscription the ranking disciplines must actually
        // change who gets airtime.
        assert!(
            jsons[0] != jsons[2] || jsons[1] != jsons[2],
            "policies collapsed to identical behavior"
        );
    }

    #[test]
    fn traced_contention_emits_scheduler_events() {
        use bees_telemetry::Aggregator;
        use std::sync::Arc;
        let cfg = contended_config(32_000.0);
        let fleet = FleetConfig {
            n_devices: 6,
            ..tiny_fleet()
        };
        let agg = Arc::new(Aggregator::new());
        let tel = Telemetry::with_sinks(vec![agg.clone()]);
        let r = run_fleet_traced(&Bees::adaptive(&cfg), &cfg, &fleet, &tel).unwrap();
        let stats = agg.snapshot();
        let count = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, s)| s.count)
        };
        assert_eq!(count(names::SCHED_GRANT) as usize, r.grants_issued);
        assert_eq!(count(names::SCHED_DENY) as usize, r.grants_denied);
        assert_eq!(count(names::SCHED_PREEMPT) as usize, r.deadline_abandons);
    }

    #[test]
    fn pulldown_fetches_deferred_images_deterministically() {
        // A lossy contended cell forces images down the ladder until some
        // defer into the on-device catalog; the post-run sweep then pulls
        // them down, and every request resolves one way or the other.
        let mut cfg = contended_config(48_000.0);
        cfg.fault = bees_net::FaultModel::new(0x9E11, 0.7, 0.0, 1e9, 1.0).unwrap();
        cfg.retry.max_attempts = 2;
        cfg.retry.chunk_bytes = 256;
        let base_fleet = FleetConfig {
            n_devices: 6,
            ..tiny_fleet()
        };
        let fleet = FleetConfig {
            pulldown: Some(PulldownConfig::default()),
            ..base_fleet
        };
        let a = run_fleet(&Bees::adaptive(&cfg), &cfg, &fleet).unwrap();
        let b = run_fleet(&Bees::adaptive(&cfg), &cfg, &fleet).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "pull-down must stay seeded");
        assert!(
            a.pulldown_requests > 0,
            "a lossy cell should catalog some deferrals: {a:?}"
        );
        if a.pulldown_fulfilled > 0 {
            assert!(a.pulldown_joules > 0.0);
        }
        // Against the same run without pull-down, every fulfilled fetch is
        // one more image the server actually holds.
        let base = run_fleet(&Bees::adaptive(&cfg), &cfg, &base_fleet).unwrap();
        assert_eq!(base.pulldown_requests, 0);
        assert_eq!(
            a.images_uploaded,
            base.images_uploaded + a.pulldown_fulfilled,
            "pull-down must add exactly the fulfilled images: {} vs {} + {}",
            a.images_uploaded,
            base.images_uploaded,
            a.pulldown_fulfilled
        );
    }

    #[test]
    fn a_fetch_that_drains_the_battery_spends_joules_without_fulfilling() {
        // Every device lives to the pull-down pass but dies paying for its
        // first fetch: the joules stay on the `PullDown` ledger while no
        // fetch is fulfilled. The audit must accept this valid run, which
        // is why it ties pull-down joules to requests, not to fulfilments.
        let mut cfg = contended_config(48_000.0);
        cfg.battery = Battery::from_joules(48.0);
        cfg.fault = bees_net::FaultModel::new(0x9E11, 0.7, 0.0, 1e9, 1.0).unwrap();
        cfg.retry.max_attempts = 2;
        cfg.retry.chunk_bytes = 256;
        let fleet = FleetConfig {
            pulldown: Some(PulldownConfig::default()),
            ..tiny_fleet()
        };
        let r = run_fleet(&Bees::adaptive(&cfg), &cfg, &fleet).unwrap();
        assert!(r.pulldown_requests > 0, "{r:?}");
        assert_eq!(r.pulldown_fulfilled, 0, "{r:?}");
        assert!(r.pulldown_joules > 0.0, "{r:?}");
    }

    /// A hand-built report whose every ledger balances.
    fn sample_report() -> FleetReport {
        FleetReport {
            scheme: "bees".to_string(),
            n_devices: 1,
            rounds_completed: 1,
            images_captured: 2,
            images_uploaded: 1,
            skipped_cross_batch: 1,
            skipped_in_batch: 0,
            uplink_bytes: 42,
            redundancy_elimination: 0.5,
            server_queries: 2,
            devices_exhausted: 0,
            salvaged_images: 1,
            partials_upgraded: 1,
            partials_pending: 0,
            grants_issued: 2,
            grants_denied: 1,
            deadline_abandons: 1,
            unique_locations: 1,
            energy_spent_j: 12.5,
            pulldown_requests: 3,
            pulldown_fulfilled: 2,
            pulldown_denied: 1,
            pulldown_bytes: 64,
            pulldown_joules: 0.5,
            stored_bytes: 100,
            reclaimed_bytes: 20,
            dedup_hits: 3,
            live_blob_bytes: 80,
            storage_epochs: vec![EpochStorage {
                stored_bytes: 100,
                reclaimed_bytes: 20,
                dedup_hits: 3,
            }],
            cell_utilization: vec![0.5, 0.25],
            devices: vec![DeviceSummary {
                device: 0,
                rounds: 1,
                uploaded_images: 1,
                uplink_bytes: 42,
                grants: 2,
                denied: 1,
                deadline_abandons: 1,
                final_ebat: 1.0,
                exhausted: false,
            }],
        }
    }

    #[test]
    fn report_json_shape_is_stable() {
        let report = sample_report();
        assert_eq!(
            report.to_json(),
            "{\"scheme\":\"bees\",\"n_devices\":1,\"rounds_completed\":1,\
             \"images_captured\":2,\"images_uploaded\":1,\
             \"skipped_cross_batch\":1,\"skipped_in_batch\":0,\
             \"uplink_bytes\":42,\"redundancy_elimination\":0.5,\
             \"server_queries\":2,\"devices_exhausted\":0,\
             \"salvaged_images\":1,\"partials_upgraded\":1,\
             \"partials_pending\":0,\"grants_issued\":2,\
             \"grants_denied\":1,\"deadline_abandons\":1,\
             \"unique_locations\":1,\"energy_spent_j\":12.5,\
             \"pulldown_requests\":3,\"pulldown_fulfilled\":2,\
             \"pulldown_denied\":1,\"pulldown_bytes\":64,\
             \"pulldown_joules\":0.5,\
             \"stored_bytes\":100,\"reclaimed_bytes\":20,\
             \"dedup_hits\":3,\"live_blob_bytes\":80,\
             \"storage_epochs\":[{\"stored_bytes\":100,\
             \"reclaimed_bytes\":20,\"dedup_hits\":3}],\
             \"cell_utilization\":[0.5,0.25],\
             \"devices\":[{\"device\":0,\"rounds\":1,\"uploaded_images\":1,\
             \"uplink_bytes\":42,\"grants\":2,\"denied\":1,\
             \"deadline_abandons\":1,\"final_ebat\":1,\"exhausted\":false}]}"
        );
    }

    #[test]
    fn audit_names_each_broken_identity() {
        assert_eq!(sample_report().audit(), Vec::<String>::new());
        type Break = fn(&mut FleetReport);
        let cases: [(&str, Break); 12] = [
            ("salvaged_images", |r| r.partials_pending += 1),
            ("grants_issued", |r| r.grants_issued += 1),
            ("grants_denied", |r| r.devices[0].denied += 1),
            ("deadline_abandons", |r| r.deadline_abandons -= 1),
            ("pulldown_requests", |r| r.pulldown_denied += 1),
            ("pulldown_bytes", |r| r.pulldown_bytes = 0),
            ("pulldown_joules", |r| {
                r.pulldown_requests = 0;
                r.pulldown_fulfilled = 0;
                r.pulldown_denied = 0;
                r.pulldown_bytes = 0;
            }),
            ("live_blob_bytes", |r| r.live_blob_bytes += 1),
            ("storage_epochs stored_bytes decreases", |r| {
                let first = EpochStorage {
                    stored_bytes: 101,
                    ..r.storage_epochs[0]
                };
                r.storage_epochs.insert(0, first);
            }),
            ("storage_epochs dedup_hits ends above", |r| {
                r.storage_epochs[0].dedup_hits += 1
            }),
            ("cell_utilization[1]", |r| r.cell_utilization[1] -= 1.0),
            ("cell_utilization[0]", |r| r.cell_utilization[0] = f64::NAN),
        ];
        for (name, break_it) in cases {
            let mut report = sample_report();
            break_it(&mut report);
            let broken = report.audit();
            assert_eq!(broken.len(), 1, "{name}: {broken:?}");
            assert!(broken[0].contains(name), "{name}: {broken:?}");
        }
    }
}
