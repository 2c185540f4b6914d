//! `bench <suite> [--smoke] [--json P] [--check P] [suite flags]`,
//! `bench --list`: every evaluation harness of the reproduction, through
//! [`dyncomp_bench::driver`].
//!
//! Usage: `cargo run --release -p dyncomp-bench --bin bench -- table2 --smoke`

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    dyncomp_bench::driver::main(&argv);
}
