//! The per-layer benchmark binary (`--trace 1`): the span profiler over
//! the timed session and the counting allocator, so every span row also
//! carries its self-attributed allocations.

use easeml_obs::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

fn main() {
    std::process::exit(easeml_perfbench::main_with(true));
}
