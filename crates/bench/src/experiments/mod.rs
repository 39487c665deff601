//! One module per paper table/figure. See `DESIGN.md` §3 for the index.

pub mod ablation_ssmm;
pub mod calibrate;
pub mod contention;
pub mod fault_resilience;
pub mod fig11_delay;
pub mod fig12_coverage;
pub mod fig3_compression;
pub mod fig4_distribution;
pub mod fig5_upload;
pub mod fig6_precision;
pub mod fig8_adaptation;
pub mod fig9_lifetime;
pub mod fleet_scaling;
pub mod global_vs_local;
pub mod query_throughput;
pub mod redundancy_sweep;
pub mod retrieval;
pub mod runtime_scaling;
pub mod storage;
pub mod table1_space;
pub mod telemetry_report;

mod precision;

pub use precision::{extract_groups, extract_queries, kentucky_index, top4_precision};
