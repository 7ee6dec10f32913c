//! Runs the ablation studies: PLB associativity, DRAM tree layout, and
//! unified-tree-vs-separate-trees bandwidth.
fn main() {
    let scale = bench::scale_from_args();
    let samples = if scale == oram_sim::experiments::ExperimentScale::Quick {
        10
    } else {
        60
    };
    println!(
        "{}",
        oram_sim::experiments::ablations::plb_associativity(scale).render()
    );
    println!(
        "{}",
        oram_sim::experiments::ablations::layout_ablation(samples).render()
    );
    println!(
        "{}",
        oram_sim::experiments::ablations::unified_tree_ablation(scale).render()
    );
}
