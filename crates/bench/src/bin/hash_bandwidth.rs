//! Regenerates the 6.3 hash-bandwidth comparison (PMMAC vs Merkle tree).
fn main() {
    let accesses = if bench::scale_from_args() == oram_sim::experiments::ExperimentScale::Quick {
        200
    } else {
        2000
    };
    println!(
        "{}",
        oram_sim::experiments::hash_bandwidth::run(accesses).render()
    );
}
