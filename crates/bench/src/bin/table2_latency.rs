//! Regenerates Table 2: ORAM tree latency by DRAM channel count.
fn main() {
    let samples = if bench::scale_from_args() == oram_sim::experiments::ExperimentScale::Quick {
        10
    } else {
        200
    };
    println!("{}", oram_sim::experiments::table2::run(samples).render());
}
