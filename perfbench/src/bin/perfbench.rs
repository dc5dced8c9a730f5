//! The end-to-end benchmark binary (`--trace 0`): no profiler, the system
//! allocator.

fn main() {
    std::process::exit(easeml_perfbench::main_with(false));
}
