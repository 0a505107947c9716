//! Shared helpers for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! in `src/bin/` (see DESIGN.md §4 for the experiment index):
//!
//! ```text
//! cargo run --release -p ftqc-bench --bin table1
//! cargo run --release -p ftqc-bench --bin fig8
//! cargo run --release -p ftqc-bench --bin fig9
//! cargo run --release -p ftqc-bench --bin fig11
//! cargo run --release -p ftqc-bench --bin fig12
//! cargo run --release -p ftqc-bench --bin fig13
//! cargo run --release -p ftqc-bench --bin fig14
//! cargo run --release -p ftqc-bench --bin fig15
//! cargo run --release -p ftqc-bench --bin appendix_ppr
//! cargo run --release -p ftqc-bench --bin ablation
//! ```
//!
//! Criterion micro-benchmarks (`cargo bench`) cover the router and the
//! end-to-end pipeline.
//!
//! The [`reference`](mod@reference) module keeps the seed router as
//! dev-only code: the differential tests and `bench_session`'s routing
//! gate run the compiler over it, and no shipped crate depends on this
//! one.

pub mod reference;
pub mod report;

use ftqc_circuit::Circuit;
use ftqc_compiler::{CompileError, Compiler, CompilerOptions, Metrics};

/// Compiles `circuit` with `r` routing paths and `f` factories (other
/// options default) and returns the metrics.
///
/// # Errors
///
/// Propagates [`CompileError`] from the compiler.
pub fn compile_with(circuit: &Circuit, r: u32, f: u32) -> Result<Metrics, CompileError> {
    compile_opts(
        circuit,
        CompilerOptions::default().routing_paths(r).factories(f),
    )
}

/// Compiles with explicit options.
///
/// # Errors
///
/// Propagates [`CompileError`] from the compiler.
pub fn compile_opts(circuit: &Circuit, options: CompilerOptions) -> Result<Metrics, CompileError> {
    Ok(*Compiler::new(options).compile(circuit)?.metrics())
}

/// Finds the routing-path count in `candidates` minimising spacetime volume
/// (including factories), returning `(r, metrics)`.
///
/// # Errors
///
/// Returns the first compile error if every candidate fails.
pub fn best_layout(
    circuit: &Circuit,
    candidates: &[u32],
    f: u32,
) -> Result<(u32, Metrics), CompileError> {
    let mut best: Option<(u32, Metrics)> = None;
    let mut first_err = None;
    for &r in candidates {
        match compile_with(circuit, r, f) {
            Ok(m) => {
                let vol = m.spacetime_volume(true);
                if best
                    .as_ref()
                    .is_none_or(|(_, b)| vol < b.spacetime_volume(true))
                {
                    best = Some((r, m));
                }
            }
            Err(e) => first_err = Some(e),
        }
    }
    best.ok_or_else(|| first_err.expect("no candidates given"))
}

/// Simple fixed-width table printer for figure binaries.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Creates a table with the given column headers, printing them.
    pub fn new(headers: &[&str]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(10)).collect();
        let t = Self { widths };
        t.row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        t.rule();
        t
    }

    /// Prints one row.
    pub fn row(&self, cells: &[String]) {
        let line: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }

    /// Prints a horizontal rule.
    pub fn rule(&self) {
        let line: Vec<String> = self.widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_benchmarks::ising_2d;

    #[test]
    fn compile_with_smoke() {
        let m = compile_with(&ising_2d(2), 4, 1).expect("compiles");
        assert!(m.execution_time >= m.lower_bound);
        assert_eq!(m.routing_paths, 4);
    }

    #[test]
    fn best_layout_picks_minimum() {
        let c = ising_2d(2);
        let (r, m) = best_layout(&c, &[2, 4, 6], 1).expect("one candidate works");
        assert!([2, 4, 6].contains(&r));
        for cand in [2u32, 4, 6] {
            let other = compile_with(&c, cand, 1).unwrap();
            assert!(m.spacetime_volume(true) <= other.spacetime_volume(true) + 1e-9);
        }
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f1(1.26), "1.3");
    }
}
