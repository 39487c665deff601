//! Runs every paper experiment in sequence (Table I, Figs. 3-12).
//!
//! `--scale <f>` scales every workload; `--quick` caps it for smoke tests.
use bees_bench::args::ExpArgs;
use bees_bench::experiments as ex;

fn main() {
    let args = ExpArgs::from_env();
    println!(
        "BEES reproduction: full experiment suite (scale {}, seed {})",
        args.scale, args.seed
    );
    ex::calibrate::run(&args).print();
    ex::fig3_compression::run(&args).print();
    ex::fig4_distribution::run(&args).print();
    ex::fig5_upload::run(&args).print();
    ex::fig6_precision::run(&args).print();
    ex::table1_space::run(&args).print();
    let sweep = ex::redundancy_sweep::run(&args);
    sweep.print_energy();
    sweep.print_bandwidth();
    ex::fig8_adaptation::run(&args).print();
    ex::fig9_lifetime::run(&args).print();
    ex::fig11_delay::run(&args).print();
    ex::fig12_coverage::run(&args).print();
    ex::ablation_ssmm::run(&args).print();
    ex::global_vs_local::run(&args).print();
    ex::fault_resilience::run(&args).print();
    ex::telemetry_report::run(&args).print();
    ex::fleet_scaling::run(&args).print();
    ex::contention::run(&args).print();
    ex::retrieval::run(&args).print();
    ex::storage::run(&args).print();
    ex::query_throughput::run(&args).print();
    ex::runtime_scaling::run(&args).print();
    println!("\nAll experiments complete. See EXPERIMENTS.md for the paper-vs-measured record.");
}
