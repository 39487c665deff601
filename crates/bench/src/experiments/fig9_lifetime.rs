//! Fig. 9: battery lifetime — remaining energy over time for Direct
//! Upload, SmartEye, MRC, BEES-EA, and BEES, uploading one image group per
//! interval until the battery dies.
//!
//! Paper shapes: the four non-adaptive schemes discharge (near-)linearly;
//! BEES' curve is convex (its slope flattens as `Ebat` drops); lifetime
//! ordering is Direct < SmartEye < MRC < BEES-EA < BEES.

use crate::args::ExpArgs;
use crate::table::{pct, Table};
use bees_core::schemes::{Bees, DirectUpload, Mrc, SmartEye, UploadScheme, CAMERA_QUALITY};
use bees_core::sessions::{run_lifetime_traced, LifetimeConfig, LifetimeResult};
use bees_core::BeesConfig;
use bees_datasets::SceneConfig;
use bees_energy::{model, Battery};
use bees_net::BandwidthTrace;
use bees_telemetry::{JsonlSink, Telemetry};

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// One lifetime run per scheme, in [Direct, SmartEye, MRC, BEES-EA,
    /// BEES] order.
    pub runs: Vec<LifetimeResult>,
}

impl Fig9Result {
    /// Prints the discharge curves and lifetime extensions.
    pub fn print(&self) {
        println!("\n== Fig. 9: battery lifetime ==");
        let mut t = Table::new(vec![
            "scheme",
            "lifetime (min)",
            "groups uploaded",
            "vs Direct",
        ]);
        let direct_life = self.runs[0].lifetime_s.max(1e-9);
        for r in &self.runs {
            t.row(vec![
                r.scheme.clone(),
                format!("{:.0}", r.lifetime_s / 60.0),
                r.groups_uploaded.to_string(),
                pct(r.lifetime_s / direct_life - 1.0),
            ]);
        }
        t.print();

        println!("\ndischarge curves (Ebat % per interval):");
        let mut t = Table::new(vec![
            "t (min)", "Direct", "SmartEye", "MRC", "BEES-EA", "BEES",
        ]);
        let max_samples = self.runs.iter().map(|r| r.samples.len()).max().unwrap_or(0);
        for i in 0..max_samples {
            let mut row = Vec::with_capacity(6);
            let time = self
                .runs
                .iter()
                .find_map(|r| r.samples.get(i).map(|s| s.time_s))
                .unwrap_or(0.0);
            row.push(format!("{:.0}", time / 60.0));
            for r in &self.runs {
                row.push(match r.samples.get(i) {
                    Some(s) => format!("{:.0}", s.ebat * 100.0),
                    None => "-".to_string(),
                });
            }
            t.row(row);
        }
        t.print();
    }
}

/// Runs all five schemes through the lifetime session.
pub fn run(args: &ExpArgs) -> Fig9Result {
    let mut config = BeesConfig {
        trace: BandwidthTrace::constant(256_000.0).expect("constant trace is valid"),
        ..BeesConfig::default()
    };
    let group_size = args.scaled(40, 4);
    // Size the interval so a Direct Upload group fills ~70% of it (the
    // paper's geometry: 40 x ~22 s uploads inside a 20-minute slot), and
    // the battery so Direct survives ~12 intervals.
    let scene = SceneConfig::default();
    let probe = bees_datasets::Scene::new(args.seed ^ 0xF1F9, scene)
        .render(&bees_datasets::ViewJitter::identity());
    let camera_bytes = bees_image::codec::encoded_rgb_size(&probe, CAMERA_QUALITY)
        .expect("valid camera quality") as f64;
    let group_upload_s = group_size as f64 * camera_bytes * 8.0 / 256_000.0;
    let interval_s = group_upload_s / 0.7;
    let intervals_direct = 12.0;
    let per_interval = interval_s * model::IDLE_WATTS + group_upload_s * model::RADIO_TX_WATTS;
    config.battery = Battery::from_joules(per_interval * intervals_direct);

    let lt = LifetimeConfig {
        group_size,
        n_groups: 200,
        interval_s,
        cross_ratio: 0.5,
        scene,
        seed: args.seed,
    };

    let schemes: Vec<Box<dyn UploadScheme>> = vec![
        Box::new(DirectUpload::new(&config)),
        Box::new(SmartEye::new(&config)),
        Box::new(Mrc::new(&config)),
        Box::new(Bees::without_adaptation(&config)),
        Box::new(Bees::adaptive(&config)),
    ];
    // With `--trace-out`, every scheme's lifetime reports into one JSONL
    // trace; without it the disabled handle keeps the run allocation-free
    // and its output byte-identical to the untraced path.
    let telemetry = match &args.trace_out {
        Some(path) => {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
            Telemetry::with_sinks(vec![std::sync::Arc::new(JsonlSink::new(
                std::io::BufWriter::new(file),
            ))])
        }
        None => Telemetry::disabled(),
    };
    let runs = schemes
        .iter()
        .map(|s| {
            run_lifetime_traced(s.as_ref(), &config, &lt, telemetry.clone())
                .expect("constant trace cannot stall")
        })
        .collect();
    telemetry.flush().expect("trace file write failed");
    Fig9Result { runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bees_outlasts_the_field() {
        let args = ExpArgs {
            scale: 0.1,
            seed: 61,
            quick: true,
            ..ExpArgs::default()
        };
        let r = run(&args);
        assert_eq!(r.runs.len(), 5);
        let life = |i: usize| r.runs[i].lifetime_s;
        // BEES lives longest; Direct Upload shortest or tied.
        assert!(life(4) >= life(0), "BEES {} vs Direct {}", life(4), life(0));
        assert!(
            life(4) >= life(3),
            "BEES {} vs BEES-EA {}",
            life(4),
            life(3)
        );
        assert!(
            life(3) >= life(0),
            "BEES-EA {} vs Direct {}",
            life(3),
            life(0)
        );
        // Discharge curves are monotone.
        for run in &r.runs {
            for w in run.samples.windows(2) {
                assert!(w[1].ebat <= w[0].ebat + 1e-9);
            }
        }
    }
}
