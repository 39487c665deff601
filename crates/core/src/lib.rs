#![warn(missing_docs)]

//! The BEES system: client pipeline, server, and the paper's comparison
//! schemes.
//!
//! This crate assembles every substrate into the system of Fig. 2:
//!
//! * [`Client`] — the smartphone: battery, energy ledger, simulated clock,
//!   and the bandwidth-limited channel to the server,
//! * [`Server`] — the cloud side: a feature index answering max-similarity
//!   queries (Cross-Batch Redundancy Detection) and ingesting uploads,
//! * [`schemes`] — the five upload schemes evaluated in §IV:
//!   [`DirectUpload`](schemes::DirectUpload) (baseline),
//!   [`SmartEye`](schemes::SmartEye) (PCA-SIFT + cross-batch dedup),
//!   [`Mrc`](schemes::Mrc) (ORB + cross-batch dedup + thumbnail feedback),
//!   and [`Bees`](schemes::Bees) with or without energy-aware adaptation
//!   (BEES vs BEES-EA),
//! * [`sessions`] — the long-running experiment drivers: battery lifetime
//!   (Fig. 9) and multi-phone geotagged coverage (Fig. 12).
//!
//! # Examples
//!
//! ```no_run
//! use bees_core::{BeesConfig, Client, Server};
//! use bees_core::schemes::{BatchCtx, Bees, UploadScheme};
//! use bees_datasets::{disaster_batch, SceneConfig};
//!
//! # fn main() -> Result<(), bees_core::CoreError> {
//! let config = BeesConfig::default();
//! let mut server = Server::try_new(&config)?;
//! let mut client = Client::try_new(1, &config)?;
//! let data = disaster_batch(7, 10, 1, 0.25, SceneConfig::default());
//! server.preload(bees_core::PreloadBatch::new(&data.server_preload));
//! let mut ctx = BatchCtx::new(&mut client, &mut server, &data.batch);
//! let report = Bees::adaptive(&config).upload(&mut ctx)?;
//! println!("uploaded {} of {}", report.uploaded_images, report.batch_size);
//! # Ok(())
//! # }
//! ```

mod client;
mod config;
mod error;
mod ingest;
mod report;
pub mod retrieval;
mod scheduler;
pub mod schemes;
mod server;
pub mod sessions;

pub use client::{Client, ResumableOutcome, SalvageSummary, TransmitSummary};
pub use config::{BeesConfig, IndexBackend};
pub use error::CoreError;
pub use ingest::{IngestOutcome, IngestReceipt, IngestRequest, PreloadBatch};
pub use report::BatchReport;
pub use retrieval::{Provenance, RetrievalHit, RetrievalQuery, RetrievalResult};
pub use scheduler::{
    AirtimeScheduler, DeviceDemand, EpochPlan, Grant, SchedulerPolicy, UploadTier,
    OVERSUBSCRIPTION_THRESHOLD, PARTIAL_TIER_FRACTION, THUMBNAIL_TIER_FRACTION,
};
pub use server::{ImageRecord, ImageTier, OnDeviceImage, PartialImage, Server};

/// Shorthand result type for system operations.
pub type Result<T> = std::result::Result<T, CoreError>;
