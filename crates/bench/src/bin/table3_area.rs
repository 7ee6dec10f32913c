//! Regenerates Table 3: the post-synthesis area breakdown and 7.2.3 alternatives.
fn main() {
    bench::harness::Flags::from_env(&[]); // takes no flags: any argument is a typo
    println!("{}", oram_sim::experiments::table3::run().render());
}
