//! Regenerates paper Fig 9: spacetime volume (including magic-state
//! factories) per operation versus the number of distillation factories,
//! for layouts with different routing-path counts.
//!
//! Expected shape: U-shaped curves whose minimum shifts toward more
//! factories as routing paths increase (r=3 optimal around 2 factories;
//! r=22 optimal around 5-6).
//!
//! Each circuit's r × f grid runs through the sweep runner
//! (`explore_session`): the points fan across all cores, whole-job results
//! land in one shared content-addressed compile cache, and the grid shares
//! one prepare/lower pass through a stage cache, so the figure
//! regenerates as fast as the hardware allows while printing exactly the
//! numbers a serial sweep would.

use ftqc_bench::{f1, Table};
use ftqc_benchmarks::{fermi_hubbard_2d, heisenberg_2d, ising_2d};
use ftqc_circuit::Circuit;
use ftqc_compiler::{explore_session, CompilerOptions, Metrics, StageCache};
use ftqc_service::SharedCache;

fn sweep(name: &str, circuit: &Circuit, workers: usize, cache: &SharedCache<Metrics>) {
    println!("\n== {name}: spacetime volume per op (qubit-d) ==");
    let rs = [3u32, 4, 6, 10, 14, 18, 22];
    let fs: Vec<u32> = (1..=8).collect();
    let headers: Vec<String> = std::iter::once("factories".to_string())
        .chain(rs.iter().map(|r| format!("r={r}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let t = Table::new(&header_refs);

    let points = match explore_session(
        circuit,
        &rs,
        &fs,
        &CompilerOptions::default(),
        workers,
        cache,
        &StageCache::default(),
    ) {
        Ok(points) => points,
        Err(e) => {
            println!("err:{e}");
            return;
        }
    };
    // Points come back routing-paths-major, so one factory count's points
    // are its row in column order (every r here fits a 10x10 layout).
    for &f in &fs {
        let row: Vec<String> = std::iter::once(f.to_string())
            .chain(
                points
                    .iter()
                    .filter(|p| p.factories == f)
                    .map(|p| f1(p.metrics.spacetime_volume_per_op(true))),
            )
            .collect();
        t.row(&row);
    }
}

fn main() {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cache = SharedCache::in_memory(ftqc_service::DEFAULT_CACHE_CAPACITY);
    println!(
        "Fig 9: spacetime volume vs factory count, varying routing paths \
         ({workers} workers, content-addressed compile cache)"
    );
    sweep(
        "10x10 Fermi-Hubbard",
        &fermi_hubbard_2d(10),
        workers,
        &cache,
    );
    sweep("10x10 Ising", &ising_2d(10), workers, &cache);
    sweep("10x10 Heisenberg", &heisenberg_2d(10), workers, &cache);
    let stats = cache.stats();
    println!(
        "\nservice: {} compiles, {} cache hits across {} lookups",
        stats.insertions,
        stats.hits,
        stats.lookups()
    );
    println!(
        "Paper: U-shaped curves; optimum factory count grows with routing paths \
         (r=3 -> ~2 factories, r=18..22 -> 5-6)."
    );
}
