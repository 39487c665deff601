//! Long-running experiment drivers: battery lifetime (Fig. 9), multi-phone
//! coverage (Fig. 12), and the deterministic multi-device fleet.

mod coverage;
mod fleet;
mod lifetime;

pub use coverage::{run_coverage, CoverageConfig, CoverageResult};
pub use fleet::{
    run_fleet, run_fleet_traced, run_fleet_with_server, DeviceSummary, FleetConfig, FleetReport,
    PulldownConfig,
};
pub use lifetime::{
    run_lifetime, run_lifetime_traced, LifetimeConfig, LifetimeResult, LifetimeSample,
};

use crate::{CoreError, Result};
use bees_datasets::SceneConfig;

/// Rejects a session that could not take a step: a zero count, or an
/// upload interval that is negative or not finite (idling out an infinite
/// interval panics in `Battery::drain`). Errors name `"{session} {field}"`.
fn check_counts_and_interval(
    session: &str,
    counts: &[(&str, usize)],
    interval_s: f64,
) -> Result<()> {
    for &(name, value) in counts {
        if value == 0 {
            return Err(CoreError::InvalidConfig {
                detail: format!("{session} {name} must be positive, got 0"),
            });
        }
    }
    if !interval_s.is_finite() || interval_s < 0.0 {
        return Err(CoreError::InvalidConfig {
            detail: format!(
                "{session} interval_s must be finite and non-negative, got {interval_s}"
            ),
        });
    }
    Ok(())
}

/// Rejects a scene `Scene::render` cannot draw: a zero width or height.
/// Errors name `"{session} {field}.width"` or `"{session} {field}.height"`.
fn check_scene(session: &str, field: &str, scene: &SceneConfig) -> Result<()> {
    for (side, value) in [("width", scene.width), ("height", scene.height)] {
        if value == 0 {
            return Err(CoreError::InvalidConfig {
                detail: format!("{session} {field}.{side} must be positive, got 0"),
            });
        }
    }
    Ok(())
}
