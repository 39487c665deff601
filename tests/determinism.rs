//! Determinism: the whole stack is seeded, so identical inputs must
//! produce byte-identical outputs — the property every experiment in
//! `EXPERIMENTS.md` relies on.

use bees::core::schemes::{BatchCtx, Bees, UploadScheme};
use bees::core::{BatchReport, BeesConfig, Client, Server};
use bees::datasets::{disaster_batch, kentucky_like, ParisConfig, ParisLike, SceneConfig};
use bees::features::orb::Orb;
use bees::features::FeatureExtractor;
use bees::net::BandwidthTrace;

fn small_scene() -> SceneConfig {
    SceneConfig {
        width: 128,
        height: 96,
        n_shapes: 12,
        texture_amp: 8.0,
    }
}

/// Runs `run` at every worker count (1/2/8) × shard count (1/2/4) and
/// asserts each result equals the one-worker, one-shard baseline, which it
/// returns.
fn sweep_threads_and_shards<T: PartialEq + std::fmt::Debug>(
    what: &str,
    run: impl Fn(usize) -> T,
) -> T {
    bees::runtime::set_threads(1);
    let baseline = run(1);
    for threads in [1usize, 2, 8] {
        for shards in [1usize, 2, 4] {
            bees::runtime::set_threads(threads);
            let result = run(shards);
            bees::runtime::set_threads(0);
            assert_eq!(
                baseline, result,
                "{what} differs at {threads} threads, {shards} shards"
            );
        }
    }
    baseline
}

#[test]
fn full_upload_run_is_deterministic() {
    let run = || -> BatchReport {
        let config = BeesConfig {
            trace: BandwidthTrace::constant(200_000.0).unwrap(),
            ..BeesConfig::default()
        };
        let data = disaster_batch(99, 10, 2, 0.25, small_scene());
        let scheme = Bees::adaptive(&config);
        let mut server = Server::try_new(&config).unwrap();
        scheme.preload_server(&mut server, &data.server_preload);
        let mut client = Client::try_new(0, &config).unwrap();
        scheme
            .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn full_pipeline_is_identical_across_thread_counts() {
    // The deterministic runtime promises bit-identical results at any
    // worker count. Run the complete ORB → CBRD → SSMM → AIU pipeline at
    // 1, 2, and 8 threads and compare the reports' `Debug` text byte for
    // byte. `set_threads` (not `BEES_THREADS`) is used because the env
    // default is cached once per process.
    let run = || -> String {
        let config = BeesConfig {
            trace: BandwidthTrace::constant(200_000.0).unwrap(),
            ..BeesConfig::default()
        };
        let data = disaster_batch(42, 10, 2, 0.25, small_scene());
        let scheme = Bees::adaptive(&config);
        let mut server = Server::try_new(&config).unwrap();
        scheme.preload_server(&mut server, &data.server_preload);
        let mut client = Client::try_new(0, &config).unwrap();
        let report = scheme
            .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
            .unwrap();
        // `f64`'s `Debug` output is the shortest round-trip form, so equal
        // strings mean bit-identical reports.
        format!("{report:?}")
    };
    bees::runtime::set_threads(1);
    let single = run();
    for threads in [2, 8] {
        bees::runtime::set_threads(threads);
        let multi = run();
        bees::runtime::set_threads(0);
        assert_eq!(single, multi, "report differs at {threads} threads");
    }
}

#[test]
fn fault_injected_pipeline_is_identical_across_thread_counts() {
    // Same thread-sweep contract, but with an aggressive fault model on a
    // fluctuating trace: blackouts, drops, retries, backoff, and the
    // degradation ladder must all be derived from seeds alone, never from
    // timing or worker interleaving.
    let run = || -> String {
        let config = BeesConfig {
            trace: BandwidthTrace::disaster_wifi(0xFA11),
            fault: bees::net::FaultModel::new(0xFA11, 0.35, 0.4, 12.0, 5.0)
                .and_then(|f| f.with_corruption(0.2))
                .expect("fault parameters are valid"),
            battery: bees::energy::Battery::from_joules(1e7),
            ..BeesConfig::default()
        };
        let data = disaster_batch(42, 10, 2, 0.25, small_scene());
        let scheme = Bees::adaptive(&config);
        let mut server = Server::try_new(&config).unwrap();
        scheme.preload_server(&mut server, &data.server_preload);
        let mut client = Client::try_new(0, &config).unwrap();
        let report = scheme
            .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
            .unwrap();
        format!("{report:?}")
    };
    bees::runtime::set_threads(1);
    let single = run();
    for threads in [2, 8] {
        bees::runtime::set_threads(threads);
        let multi = run();
        bees::runtime::set_threads(0);
        assert_eq!(single, multi, "faulty report differs at {threads} threads");
    }
}

#[test]
fn telemetry_trace_is_byte_identical_across_thread_counts() {
    // The tentpole contract of the telemetry subsystem: spans are opened
    // and closed against the client's virtual clock on the orchestration
    // thread, so the JSONL trace — manifest, span order, every attribute —
    // is byte-identical no matter how many workers the runtime uses.
    use bees::telemetry::{JsonlSink, RunManifest, SharedBuf, Telemetry};
    use std::sync::Arc;

    let run = || -> String {
        let config = BeesConfig {
            trace: BandwidthTrace::constant(200_000.0).unwrap(),
            ..BeesConfig::default()
        };
        let data = disaster_batch(42, 10, 2, 0.25, small_scene());
        let scheme = Bees::adaptive(&config);
        let mut server = Server::try_new(&config).unwrap();
        scheme.preload_server(&mut server, &data.server_preload);
        let mut client = Client::try_new(0, &config).unwrap();
        let buf = SharedBuf::new();
        let telemetry = Telemetry::with_sinks(vec![Arc::new(JsonlSink::new(buf.clone()))]);
        telemetry.emit_manifest(&RunManifest::new(&format!("{config:?}"), 42));
        let mut ctx =
            BatchCtx::new(&mut client, &mut server, &data.batch).with_telemetry(telemetry);
        scheme.upload(&mut ctx).unwrap();
        buf.contents_string()
    };
    bees::runtime::set_threads(1);
    let single = run();
    assert!(single.lines().next().unwrap().starts_with("{\"manifest\":"));
    assert!(single.contains("\"span\":\"afe.orb\""));
    assert!(single.contains("\"span\":\"net.transmit\""));
    for threads in [2, 8] {
        bees::runtime::set_threads(threads);
        let multi = run();
        bees::runtime::set_threads(0);
        assert_eq!(single, multi, "trace differs at {threads} threads");
    }
}

#[test]
fn orb_features_are_bitwise_stable() {
    let img = kentucky_like(3, 1, small_scene())[0].images[0].to_gray();
    let orb = Orb::default();
    let f1 = orb.extract(&img);
    let f2 = orb.extract(&img);
    assert_eq!(f1, f2);
}

#[test]
fn datasets_are_reproducible_across_instantiations() {
    let a = ParisLike::generate(
        5,
        ParisConfig {
            n_locations: 10,
            n_images: 30,
            scene: small_scene(),
            ..ParisConfig::default()
        },
    );
    let b = ParisLike::generate(
        5,
        ParisConfig {
            n_locations: 10,
            n_images: 30,
            scene: small_scene(),
            ..ParisConfig::default()
        },
    );
    for i in [0usize, 15, 29] {
        assert_eq!(a.image(i).image, b.image(i).image);
    }
}

#[test]
fn config_is_cloneable_and_debuggable() {
    let config = BeesConfig::default();
    let cloned = config.clone();
    let dbg = format!("{cloned:?}");
    assert!(dbg.contains("BeesConfig"));
    assert!(dbg.contains("server_shards"));
}

#[test]
fn fleet_report_is_identical_across_threads_and_shards() {
    // The fleet session's acceptance property: the hand-rolled JSON report
    // is byte-identical across worker counts (1/2/8) *and* server shard
    // counts (1/2/4). It compares `FleetReport::to_json`, so the
    // comparison covers the exact bytes the report promises.
    use bees::core::sessions::{run_fleet, FleetConfig};
    use bees::core::IndexBackend;

    let fleet = FleetConfig {
        n_devices: 3,
        pulldown: None,
        ..pulldown_fleet()
    };
    let run = |shards: usize| -> String {
        let config = BeesConfig {
            trace: BandwidthTrace::constant(200_000.0).unwrap(),
            index_backend: IndexBackend::Mih,
            server_shards: shards,
            ..BeesConfig::default()
        };
        run_fleet(&Bees::adaptive(&config), &config, &fleet)
            .unwrap()
            .to_json()
    };

    let baseline = sweep_threads_and_shards("fleet report", run);
    assert_eq!(digest(&baseline), 0x75998b5cfb4bd594);
}

#[test]
fn retrieval_result_is_identical_across_threads_and_shards() {
    // The retrieval acceptance property: a composite query (geo radius +
    // time window + descriptor probe + on-device catalog) serialized
    // through `RetrievalResult::to_json` is byte-identical across worker
    // counts (1/2/8) and server shard counts (1/2/4).
    use bees::core::{IndexBackend, IngestRequest, RetrievalQuery, Server};

    let run = |shards: usize| -> String {
        let config = BeesConfig {
            index_backend: IndexBackend::Mih,
            server_shards: shards,
            ..BeesConfig::default()
        };
        let mut server = Server::try_new(&config).unwrap();
        let orb = Orb::new(config.orb);
        let data = disaster_batch(77, 6, 0, 0.0, small_scene());
        for (i, img) in data.batch.iter().enumerate() {
            server.set_time(10.0 * i as f64);
            let f = orb.extract(&img.to_gray());
            if i == 4 {
                // One image never uploaded: it lives on device 3's catalog.
                server.ingest(
                    IngestRequest::on_device(3, 2048)
                        .with_features(f)
                        .with_geotag((0.01, 0.0)),
                );
            } else {
                server.ingest(
                    IngestRequest::full(1000 + i)
                        .with_features(f)
                        .with_geotag(((i % 2) as f64 * 0.01, 0.0)),
                );
            }
        }
        let probe = orb.extract(&data.batch[0].to_gray());
        let query = RetrievalQuery::new()
            .near(0.0, 0.0, 25.0)
            .within_time(0.0, 40.0)
            .similar_to(&probe)
            .include_on_device(true)
            .top_k(4);
        server.answer(&query).to_json()
    };

    let baseline = sweep_threads_and_shards("retrieval result", run);
    assert!(
        baseline.contains("\"provenance\":\"full\""),
        "the probe must hit its own upload: {baseline}"
    );
}

/// Four devices, two rounds, pull-down on: the fleet the pull-down sweep
/// and the path pins share.
fn pulldown_fleet() -> bees::core::sessions::FleetConfig {
    bees::core::sessions::FleetConfig {
        n_devices: 4,
        rounds: 2,
        group_size: 4,
        shared_per_group: 2,
        interval_s: 30.0,
        scene: small_scene(),
        seed: 0xF1EE7,
        pulldown: Some(bees::core::sessions::PulldownConfig::default()),
    }
}

/// A shared cell of `capacity_bps` split into 20-s epochs.
fn cell_config(shards: usize, capacity_bps: f64) -> BeesConfig {
    let mut config = BeesConfig {
        trace: BandwidthTrace::constant(200_000.0).unwrap(),
        index_backend: bees::core::IndexBackend::Mih,
        server_shards: shards,
        ..BeesConfig::default()
    };
    config.cell.enabled = true;
    config.cell.capacity = BandwidthTrace::constant(capacity_bps).unwrap();
    config.cell.epoch_s = 20.0;
    config
}

/// A lossy 48 kbps cell: drops cut uploads until some images defer onto
/// the on-device catalog, which the pull-down sweep then fetches.
fn lossy_cell_config(shards: usize) -> BeesConfig {
    let mut config = cell_config(shards, 48_000.0);
    config.fault = bees::net::FaultModel::new(0x9E11, 0.6, 0.0, 1e9, 1.0).unwrap();
    config.retry.max_attempts = 2;
    config.retry.chunk_bytes = 256;
    config
}

/// FNV-1a digest of a canonical report or trace.
fn digest(text: &str) -> u64 {
    bees::telemetry::fnv1a_64(text.as_bytes())
}

#[test]
fn pulldown_fleet_report_is_identical_across_threads_and_shards() {
    // The pull-down sweep rides the same determinism guarantee: enabling
    // `FleetConfig::pulldown` must not introduce any thread- or
    // shard-dependent byte into the report.
    use bees::core::sessions::run_fleet;

    let fleet = pulldown_fleet();
    let run = |shards: usize| -> String {
        let config = lossy_cell_config(shards);
        run_fleet(&Bees::adaptive(&config), &config, &fleet)
            .unwrap()
            .to_json()
    };

    let baseline = sweep_threads_and_shards("pull-down fleet report", run);
    assert!(
        !baseline.contains("\"pulldown_fulfilled\":0,"),
        "the sweep fetched nothing: {baseline}"
    );
    assert_eq!(digest(&baseline), 0x126cab6d22c65ca8);
}

#[test]
fn fleet_report_is_identical_across_threads_and_shards_with_corruption_faults() {
    // The salvage acceptance sweep: with every fault mode on — drops that
    // cut transfers mid-payload, blackout windows, and CRC-caught chunk
    // corruption — the fleet report (including the salvaged/upgraded
    // partial-image counters and the Salvaged energy bucket feeding them)
    // stays byte-identical across worker counts (1/2/8) and server shard
    // counts (1/2/4).
    use bees::core::sessions::{run_fleet, FleetConfig};
    use bees::core::IndexBackend;

    let fleet = FleetConfig {
        n_devices: 3,
        pulldown: None,
        ..pulldown_fleet()
    };
    let run = |shards: usize| -> String {
        let mut config = BeesConfig {
            trace: BandwidthTrace::disaster_wifi(0xFA11),
            index_backend: IndexBackend::Mih,
            server_shards: shards,
            ..BeesConfig::default()
        };
        config.fault = bees::net::FaultModel::new(0xFA11, 0.6, 0.4, 12.0, 5.0)
            .and_then(|f| f.with_corruption(0.25))
            .expect("fault parameters are valid");
        config.battery = bees::energy::Battery::from_joules(1e9);
        config.retry.max_attempts = 3;
        config.retry.chunk_bytes = 128;
        run_fleet(&Bees::adaptive(&config), &config, &fleet)
            .unwrap()
            .to_json()
    };

    let baseline = sweep_threads_and_shards("corrupted-fleet report", run);
    // The storm must actually salvage partials and upgrade their tails, or
    // the sweep proves nothing about their determinism.
    assert!(
        !baseline.contains("\"partials_upgraded\":0,"),
        "no tail upgrade under the corruption storm: {baseline}"
    );
    assert_eq!(digest(&baseline), 0x789d3f233581d183);
}

#[test]
fn contended_fleet_report_is_identical_across_threads_and_shards() {
    // The shared-cell acceptance sweep: with the cell enabled, an outage
    // fault cutting it dark half the time, and the utility scheduler
    // ranking the cohort, the fleet report — grant/denial counters,
    // deadline abandons, per-epoch utilization series and all — stays
    // byte-identical across worker counts (1/2/8) and server shard counts
    // (1/2/4). The airtime scheduler runs on the orchestration thread from
    // seeded inputs only, so neither knob may move a byte.
    use bees::core::sessions::{run_fleet, FleetConfig};
    use bees::core::SchedulerPolicy;

    let fleet = FleetConfig {
        pulldown: None,
        ..pulldown_fleet()
    };
    let run = |shards: usize| -> String {
        let mut config = cell_config(shards, 32_000.0);
        config.scheduler = SchedulerPolicy::Utility;
        config.battery = bees::energy::Battery::from_joules(1e9);
        config.cell.outage = bees::net::FaultModel::new(0xCE11, 0.0, 0.5, 40.0, 20.0)
            .expect("outage parameters are valid");
        run_fleet(&Bees::adaptive(&config), &config, &fleet)
            .unwrap()
            .to_json()
    };

    let baseline = sweep_threads_and_shards("contended-fleet report", run);
    // The cell must genuinely contend, or the sweep proves nothing about
    // the scheduler's determinism.
    assert!(
        !baseline.contains("\"grants_denied\":0,"),
        "no contention under the oversubscribed cell: {baseline}"
    );
    assert_eq!(digest(&baseline), 0xfead320243baa59e);
}

#[test]
fn fleet_paths_are_pinned() {
    // The fleet paths the four sweeps above leave out, each pinned by the
    // FNV-1a digests of its canonical report and of its JSONL trace, and
    // each checked to have reached the path it exists for. The lossy
    // pull-down run repeats the pull-down sweep's config to pin its trace.
    use bees::core::sessions::{run_fleet_traced, FleetConfig, FleetReport};
    use bees::telemetry::{JsonlSink, SharedBuf, Telemetry};
    use std::sync::Arc;

    // No airtime ever: every round is denied until its device gives up, so
    // fewer images are captured than 4-image groups × rounds.
    let mut dark = cell_config(1, 0.0);
    dark.cell.max_consecutive_denials = 1;
    // 60 J on a 32 kbps cell: every device dies, some mid-run.
    let mut dying = cell_config(1, 32_000.0);
    dying.battery = bees::energy::Battery::from_joules(60.0);
    // Six devices on 8 kbps with no faults and no deaths: only the
    // scheduler can deny a pull-down fetch.
    let mut crowded = cell_config(1, 8_000.0);
    crowded.battery = bees::energy::Battery::from_joules(1e9);
    // Private channels on a fluctuating trace: rounds that start late
    // sleep out the rest of an odd interval, so the sleep's float
    // arithmetic reaches the batteries in the report.
    let mut long = BeesConfig {
        trace: BandwidthTrace::disaster_wifi(0xFA11),
        ..BeesConfig::default()
    };
    long.battery = bees::energy::Battery::from_joules(400.0);
    let long_fleet = FleetConfig {
        rounds: 5,
        interval_s: 31.7,
        pulldown: None,
        ..pulldown_fleet()
    };

    type Reached = fn(&FleetReport) -> bool;
    let cases: [(&str, BeesConfig, FleetConfig, Reached, u64, u64); 5] = [
        (
            "dark cell",
            dark,
            pulldown_fleet(),
            |r| r.images_captured < 4 * r.rounds_completed,
            0xaddbc241c9baf791,
            0x0751c7d75f6e9221,
        ),
        (
            "dying battery",
            dying,
            pulldown_fleet(),
            |r| r.devices_exhausted > 0,
            0xab1b60614290306d,
            0x4fe1ffb64a5c9e61,
        ),
        (
            "lossy pull-down",
            lossy_cell_config(1),
            pulldown_fleet(),
            |r| r.pulldown_fulfilled > 0,
            0x126cab6d22c65ca8,
            0xc6ebc170c95dcb9e,
        ),
        (
            "crowded pull-down",
            crowded,
            FleetConfig {
                n_devices: 6,
                ..pulldown_fleet()
            },
            |r| r.pulldown_denied > 0 && r.devices_exhausted == 0,
            0x87d32877088c9dba,
            0x6663d0a86a8e7889,
        ),
        (
            "long private run",
            long,
            long_fleet,
            |r| r.rounds_completed > 2 * r.n_devices,
            0xec6b7be3c6b33390,
            0x2da5335bc65f48e8,
        ),
    ];
    for (name, config, fleet, reached, report_digest, trace_digest) in cases {
        let buf = SharedBuf::new();
        let telemetry = Telemetry::with_sinks(vec![Arc::new(JsonlSink::new(buf.clone()))]);
        let report =
            run_fleet_traced(&Bees::adaptive(&config), &config, &fleet, &telemetry).unwrap();
        assert!(reached(&report), "{name} missed its path: {report:?}");
        assert_eq!(
            (digest(&report.to_json()), digest(&buf.contents_string())),
            (report_digest, trace_digest),
            "{name} moved"
        );
    }
}

#[test]
fn scheme_paths_are_pinned() {
    // Every scheme over the paths an upload can take, each pinned by the
    // FNV-1a digests of its report's `Debug` text, its JSONL trace, its
    // store layout and its server record count per tier, and each case
    // checked to have reached the path it exists for. The report digest
    // zeroes the CRC-catch count, which
    // `report_counts_every_caught_corrupt_chunk` checks against the trace.
    use bees::core::schemes::{make_scheme, SchemeKind};
    use bees::core::{ImageTier, UploadTier};
    use bees::telemetry::{JsonlSink, SharedBuf, Telemetry};
    use std::sync::Arc;

    let clean = BeesConfig {
        trace: BandwidthTrace::constant(256_000.0).unwrap(),
        ..BeesConfig::default()
    };
    // The `fault_resilience` storm at that bench's default seed (42).
    let mut storm = BeesConfig {
        trace: BandwidthTrace::disaster_wifi(42 ^ 0xFA11),
        salvage_partials: true,
        ..BeesConfig::default()
    };
    storm.fault = bees::net::FaultModel::new(42 + 0xFA11, 0.6, 0.5, 8.0, 3.0)
        .and_then(|f| f.with_corruption(0.12))
        .expect("fault parameters are valid");
    storm.retry.max_attempts = 3;
    storm.retry.chunk_bytes = 1024;
    storm.battery = bees::energy::Battery::from_joules(500_000.0);
    // Without salvage, cut transfers fall to the thumbnail rung, and some
    // thumbnails defer: the tier cases catalog those.
    let presalvage = BeesConfig {
        salvage_partials: false,
        ..storm.clone()
    };
    // Dies in the verbatim upload (Direct, PhotoNet-like, MRC), in
    // extraction (SmartEye) and in AIU (BEES-EA, and BEES after two
    // uploads).
    let dying = BeesConfig {
        battery: bees::energy::Battery::from_joules(2.75),
        ..clean.clone()
    };

    // Each scheme's report and its server records per tier (full,
    // thumbnail, partial, on-device, preloaded), in `SchemeKind::ALL`
    // order.
    type Reached = fn(&[(BatchReport, [usize; 5])]) -> bool;
    type Case = (&'static str, BeesConfig, UploadTier, Reached, [[u64; 4]; 6]);
    #[rustfmt::skip]
    let cases: [Case; 8] = [
        (
            "clean",
            clean,
            UploadTier::Full,
            |r| r[5].0.skipped_cross_batch > 0 && r[5].0.skipped_in_batch > 0,
            [
                [0x2c023472cd8ccbba, 0xece5ba93b386e957, 0xcdce17edc5197a67, 0xc2c889f7fc0ac825],
                [0xd4e142ff79f1029a, 0xe9f213b5398b27f7, 0x6ec4cc5d05c45369, 0xa3ff3efed81b2b5b],
                [0x6b43671ba8c36229, 0x89a80277afe619a5, 0x1b98f57867cc6af1, 0xa3ff3efed81b2b5b],
                [0xb52afd7b9cf876b4, 0x53de73159038d99a, 0x30e378eee0301c19, 0xa3ff3efed81b2b5b],
                [0x89bff0c8f5f83fc3, 0xebc01ae33c4256e7, 0xd25e35dfec54a76f, 0x02ace70f190ffa24],
                [0x38374b3528610006, 0xe15b1a602606a897, 0xd25e35dfec54a76f, 0x02ace70f190ffa24],
            ],
        ),
        (
            "storm",
            storm,
            UploadTier::Full,
            |r| r[5].0.salvaged_images > 0 && r[0].0.deferred_images > 0,
            [
                [0x568d8e50596efd40, 0x3ab4edcfd679f4a7, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x595c810ba16998f4, 0x301894cae16d94db, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x62982b808cab02ea, 0x8163ed10f7151c15, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x8c3dcdd2207ec2f1, 0x95208e0e4071774a, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x1e075f68542680db, 0x01300185b584f27e, 0x4ffd1e524afe47a8, 0xe71df6caff41625e],
                [0xabebe7244639909e, 0x9bcc476e3319f4da, 0x4ffd1e524afe47a8, 0xe71df6caff41625e],
            ],
        ),
        (
            "storm without salvage",
            presalvage.clone(),
            UploadTier::Full,
            |r| r[5].0.salvaged_images == 0 && r[5].0.deferred_images > 0,
            [
                [0x568d8e50596efd40, 0x3ab4edcfd679f4a7, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x595c810ba16998f4, 0x301894cae16d94db, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x62982b808cab02ea, 0x8163ed10f7151c15, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x8c3dcdd2207ec2f1, 0x95208e0e4071774a, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x0c905628fb292cd3, 0x329d758f5d5c03a0, 0x337006360616bf66, 0x02ace70f190ffa24],
                [0xc034e80db60a16e2, 0xe2c26c2c3ff4212c, 0x337006360616bf66, 0x02ace70f190ffa24],
            ],
        ),
        (
            "dying battery",
            dying,
            UploadTier::Full,
            |r| r.iter().all(|(r, _)| r.exhausted) && r[5].0.uploaded_images > 0,
            [
                [0x7305e1e82cee5414, 0x1b31211f7b7fea67, 0x92134b9ec5828d5e, 0x5cb1fdda6dbfb602],
                [0x02a4eeca1d2c9673, 0x62f6fbae88b7ce77, 0x7ea17b8af79e4c34, 0x5cb1fdda6dbfb602],
                [0x75b52996eae267a9, 0xcbf29ce484222325, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0xca8cbcb00ab1511b, 0xe237f40e46988626, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x44adad015b1e8cf0, 0x5be9e6208adcc56d, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0xb6cf4786d7c9d8b9, 0x07e1560524790b77, 0x4bf92ef72082eb6a, 0xd00bf726327694c9],
            ],
        ),
        (
            "full tier",
            presalvage.clone(),
            UploadTier::Full,
            |r| r[5].1[3] > 0,
            [
                [0x568d8e50596efd40, 0x3ab4edcfd679f4a7, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x595c810ba16998f4, 0x301894cae16d94db, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x62982b808cab02ea, 0x8163ed10f7151c15, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x8c3dcdd2207ec2f1, 0x95208e0e4071774a, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x0c905628fb292cd3, 0x863a528893d622ab, 0x11cea0bf3ef7e0f5, 0x11f58b56492f574a],
                [0xc034e80db60a16e2, 0x55a40c74d6799711, 0x11cea0bf3ef7e0f5, 0x11f58b56492f574a],
            ],
        ),
        (
            "partial-scans tier",
            presalvage.clone(),
            UploadTier::PartialScans,
            |r| r[5].1[2] > 0,
            [
                [0x568d8e50596efd40, 0x3ab4edcfd679f4a7, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x595c810ba16998f4, 0x301894cae16d94db, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x62982b808cab02ea, 0x8163ed10f7151c15, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x8c3dcdd2207ec2f1, 0x95208e0e4071774a, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x62336d7057bdd842, 0x3b2a70555999e4b9, 0x0742d99f3a4d0552, 0x76da122284b1ec2e],
                [0x79dc98441a5e245d, 0x3be7279445c76512, 0x0742d99f3a4d0552, 0x76da122284b1ec2e],
            ],
        ),
        (
            "thumbnail tier",
            presalvage.clone(),
            UploadTier::Thumbnail,
            |r| r[5].1[1] > 0 && r[5].1[3] > 0,
            [
                [0x568d8e50596efd40, 0x3ab4edcfd679f4a7, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x595c810ba16998f4, 0x301894cae16d94db, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x62982b808cab02ea, 0x8163ed10f7151c15, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x8c3dcdd2207ec2f1, 0x95208e0e4071774a, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x952bc2ba404c7d63, 0x7a6ac70dac5eb8a1, 0x8b051e6619204597, 0x994a7b72072e0b30],
                [0x2978649c9b9472c8, 0xf7b1b94167cc614f, 0x8b051e6619204597, 0x994a7b72072e0b30],
            ],
        ),
        (
            "defer tier",
            presalvage,
            UploadTier::Defer,
            |r| r[5].1[3] == r[5].0.deferred_images && r[5].0.uplink_bytes == 0,
            [
                [0x568d8e50596efd40, 0x3ab4edcfd679f4a7, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x595c810ba16998f4, 0x301894cae16d94db, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x62982b808cab02ea, 0x8163ed10f7151c15, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x8c3dcdd2207ec2f1, 0x95208e0e4071774a, 0x81d23fd7003c2305, 0x1b1c7733741faeff],
                [0x9e0f0334374816c6, 0x666b27b732362dca, 0x642f31490145171a, 0x85ccbd092170c12c],
                [0xcc9d0ddda8396493, 0xdca1aea0b0b12624, 0x642f31490145171a, 0x85ccbd092170c12c],
            ],
        ),
    ];
    let data = disaster_batch(0x5C4E, 6, 1, 0.25, SceneConfig::default());
    let geotags: Vec<(f64, f64)> = (0..data.batch.len())
        .map(|i| (2.35 + 0.001 * i as f64, 48.85))
        .collect();
    for (name, config, tier, reached, want) in cases {
        let mut runs = Vec::new();
        let mut got = Vec::new();
        for kind in SchemeKind::ALL {
            let scheme = make_scheme(kind, &config);
            let mut server = Server::try_new(&config).unwrap();
            scheme.preload_server(&mut server, &data.server_preload);
            let mut client = Client::try_new(0, &config).unwrap();
            let buf = SharedBuf::new();
            let telemetry = Telemetry::with_sinks(vec![Arc::new(JsonlSink::new(buf.clone()))]);
            let mut ctx = BatchCtx::new(&mut client, &mut server, &data.batch)
                .with_geotags(&geotags)
                .unwrap()
                .with_telemetry(telemetry)
                .with_tier(tier);
            if name.ends_with("tier") {
                ctx = ctx.with_deferral_catalog(7);
            }
            let report = scheme.upload(&mut ctx).unwrap();
            let mut tiers = [0usize; 5];
            for record in server.records().values() {
                tiers[match record.tier {
                    ImageTier::Full => 0,
                    ImageTier::Thumbnail => 1,
                    ImageTier::Partial(_) => 2,
                    ImageTier::OnDevice(_) => 3,
                    ImageTier::Preloaded => 4,
                }] += 1;
            }
            let pinned = BatchReport {
                corrupt_chunks_detected: 0,
                ..report.clone()
            };
            got.push([
                digest(&format!("{pinned:?}")),
                digest(&buf.contents_string()),
                server.storage().layout_digest(),
                digest(&format!("{tiers:?}")),
            ]);
            runs.push((report, tiers));
        }
        assert!(reached(&runs), "{name} missed its path: {runs:?}");
        assert_eq!(got, want, "{name} moved");
    }
}

#[test]
fn battery_crossing_a_dimension_boundary_is_pinned() {
    // Extraction and AIU fan out on proportions predicted from the battery
    // at stage start, then replay each image's charges in order. On a
    // 40 J battery at 90 % the EAC proportion `c` and the EAU proportion
    // `Cr` move across pixel-dimension boundaries within one batch, so the
    // replay redoes the images whose live dimensions differ from the
    // predicted ones; SmartEye's PCA-SIFT, and BEES on a 0.5 J battery, die
    // inside extraction, dropping what was not replayed. Each run is pinned
    // by the digests of its report's `Debug` text, its JSONL trace and its
    // store layout, at 1, 2 and 8 workers.
    use bees::core::schemes::{make_scheme, SchemeKind, EAC, EAU};
    use bees::energy::{Battery, EnergyCategory, LinearScheme};
    use bees::image::resize::compressed_dimensions;
    use bees::telemetry::{JsonlSink, SharedBuf, Telemetry};
    use std::sync::Arc;

    let data = disaster_batch(0xB0D, 8, 1, 0.25, SceneConfig::default());
    let config = |joules: f64| BeesConfig {
        trace: BandwidthTrace::constant(256_000.0).unwrap(),
        battery: Battery::from_joules(joules),
        ..BeesConfig::default()
    };
    let crossing = config(40.0);
    let dying = config(0.5);
    let (w, h) = data.batch[0].dimensions();
    let dims = |scheme: &LinearScheme, ebat: f64| compressed_dimensions(w, h, scheme.value(ebat));
    let died_in_extraction =
        |r: &BatchReport| r.exhausted && r.energy.get(EnergyCategory::FeatureUpload) == 0.0;

    type Reached = fn(&BatchReport) -> bool;
    #[rustfmt::skip]
    let cases: [(SchemeKind, &BeesConfig, Reached, [u64; 3]); 5] = [
        (SchemeKind::Bees, &crossing, |r| r.uploaded_images > 1,
            [0x3149b37757f7d19d, 0x3881e726450e382d, 0xcc0c75fea3d0a87c]),
        (SchemeKind::BeesEa, &crossing, |r| r.uploaded_images > 1,
            [0xca89ce1a8f2ecd3c, 0x55ae97ffc5de70c3, 0x66ee81db9ad04b99]),
        (SchemeKind::SmartEye, &crossing, |r| r.exhausted,
            [0x23b7488a12ef79e1, 0xcbf29ce484222325, 0x81d23fd7003c2305]),
        (SchemeKind::Mrc, &crossing, |r| r.uploaded_images > 1,
            [0x04995abb874be74e, 0xf6984a535d13124b, 0xa341d6d438be78e5]),
        (SchemeKind::Bees, &dying, |r| r.exhausted,
            [0xed59582b04427390, 0xcbf29ce484222325, 0x81d23fd7003c2305]),
    ];
    for (kind, config, reached, want) in cases {
        for threads in [1usize, 2, 8] {
            bees::runtime::set_threads(threads);
            let scheme = make_scheme(kind, config);
            let mut server = Server::try_new(config).unwrap();
            scheme.preload_server(&mut server, &data.server_preload);
            let mut client = Client::try_new(0, config).unwrap();
            client.battery_mut().set_fraction(0.9);
            let start = client.ebat();
            let buf = SharedBuf::new();
            let telemetry = Telemetry::with_sinks(vec![Arc::new(JsonlSink::new(buf.clone()))]);
            let report = scheme
                .upload(
                    &mut BatchCtx::new(&mut client, &mut server, &data.batch)
                        .with_telemetry(telemetry),
                )
                .unwrap();
            bees::runtime::set_threads(0);
            assert!(reached(&report), "{kind} missed its path: {report:?}");
            assert_eq!(
                report.exhausted,
                died_in_extraction(&report),
                "{kind} died outside extraction: {report:?}"
            );
            if kind == SchemeKind::Bees && !report.exhausted {
                let end = client.ebat();
                assert_ne!(dims(&EAC, start), dims(&EAC, end), "c");
                assert_ne!(dims(&EAU, start), dims(&EAU, end), "Cr");
            }
            let got = [
                digest(&format!("{report:?}")),
                digest(&buf.contents_string()),
                server.storage().layout_digest(),
            ];
            assert_eq!(got, want, "{kind} moved at {threads} threads");
        }
    }
}

/// The SSMM pairwise similarity graph must not move a single bit when the
/// thread count changes, and must equal the graph scored from the
/// unpruned reference matcher over per-descriptor objects — the invariance
/// the BEES scheme's in-batch stage relies on with descriptor blocks as
/// the one storage format.
#[test]
fn ssmm_similarity_graph_is_layout_and_thread_invariant() {
    use bees::features::matcher::match_binary_exhaustive;
    use bees::features::similarity::{jaccard_similarity, SimilarityConfig};
    use bees::features::{BinaryDescriptor, Descriptors};
    use bees::submodular::SimilarityGraph;

    let orb = Orb::new(BeesConfig::default().orb);
    let data = disaster_batch(0xD15A, 6, 1, 0.25, small_scene());
    let features: Vec<_> = data
        .batch
        .iter()
        .map(|img| orb.extract(&img.to_gray()))
        .collect();
    let descs: Vec<Vec<BinaryDescriptor>> = features
        .iter()
        .map(|f| match &f.descriptors {
            Descriptors::Binary(block) => block.iter().collect(),
            Descriptors::Vector(_) => unreachable!("ORB features are binary"),
        })
        .collect();
    let cfg = SimilarityConfig::default();

    bees::runtime::set_threads(1);
    let reference = SimilarityGraph::from_pairwise_par(features.len(), |a, b| {
        let (da, db) = (&descs[a], &descs[b]);
        if da.is_empty() || db.is_empty() {
            return 0.0;
        }
        let intersection = match_binary_exhaustive(da, db, &cfg.matching).len();
        intersection as f64 / (da.len() + db.len() - intersection) as f64
    });
    for threads in [1usize, 2, 8] {
        bees::runtime::set_threads(threads);
        let graph = SimilarityGraph::from_pairwise_par(features.len(), |a, b| {
            jaccard_similarity(&features[a], &features[b], &cfg)
        });
        bees::runtime::set_threads(0);
        assert_eq!(reference, graph, "graph moved at {threads} threads");
    }
}

#[test]
fn storage_layout_is_identical_across_threads_and_shards() {
    // The content store's acceptance property: after the same ingest
    // sequence (real payload bytes, exact duplicates, commit-time grouping)
    // plus a cold-recompression pass, the store lays out byte-identically
    // across worker counts (1/2/8) and server shard counts (1/2/4) — pinned
    // through `layout_digest`, the ledger counters and the pass's report
    // (its SSIM sum bit for bit).
    use bees::core::{IngestRequest, RetrievalQuery, Server};
    use bees::datasets::{Scene, ViewJitter};
    use bees::image::codec;

    let run = |shards: usize| -> (u64, usize, usize, usize, usize, (usize, usize, u64)) {
        let config = BeesConfig {
            server_shards: shards,
            ..BeesConfig::default()
        };
        let mut server = Server::try_new(&config).unwrap();
        let orb = Orb::new(config.orb);
        let mut probe = None;
        let mut t = 0.0;
        for s in 0..3u64 {
            let scene = Scene::new(60 + s, small_scene());
            let mut lead = None;
            for v in 0..3u32 {
                let img = scene.render(&ViewJitter {
                    dx: v as f32 * 1.5,
                    dy: -(v as f32),
                    brightness: v as i32 * 4,
                    ..ViewJitter::identity()
                });
                let payload = codec::encode_rgb(&img, 70).unwrap();
                let f = orb.extract(&img.to_gray());
                if probe.is_none() {
                    probe = Some(f.clone());
                }
                if lead.is_none() {
                    lead = Some((payload.clone(), f.clone()));
                }
                server.set_time(t);
                server.ingest(
                    IngestRequest::full(payload.len())
                        .with_bytes(payload)
                        .with_features(f),
                );
                t += 10.0;
            }
            // A byte-identical re-upload: must dedup at every shard count.
            let (payload, f) = lead.unwrap();
            server.set_time(t);
            server.ingest(
                IngestRequest::full(payload.len())
                    .with_bytes(payload)
                    .with_features(f),
            );
            t += 10.0;
            server.answer(
                &RetrievalQuery::new()
                    .similar_to(probe.as_ref().unwrap())
                    .top_k(1),
            );
        }
        server.set_time(t + 1e6);
        let report = server.run_cold_recompression();
        let store = server.storage();
        (
            store.layout_digest(),
            store.ledger().stored_bytes,
            store.ledger().reclaimed_bytes,
            store.ledger().dedup_hits,
            store.ledger().epochs.len(),
            (
                report.recompressed,
                report.bytes_reclaimed,
                report.ssim_sum.to_bits(),
            ),
        )
    };

    let baseline = sweep_threads_and_shards("store layout", run);
    assert!(baseline.3 > 0, "duplicates must dedup: {baseline:?}");
    assert!(baseline.2 > 0, "the cold pass must reclaim: {baseline:?}");
}
