//! Regenerates Figure 3: % of bytes from PosMap ORAMs vs ORAM capacity.
fn main() {
    bench::harness::Flags::from_env(&[]); // takes no flags: any argument is a typo
    println!("{}", oram_sim::experiments::fig3::run().render());
}
