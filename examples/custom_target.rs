//! Walks a custom sparse-bus hardware target from a JSON spec through
//! validation, a staged compile, and a cross-target sweep against the
//! built-in presets.
//!
//! ```sh
//! cargo run --release --example custom_target
//! ```

use ftqc::arch::{TargetRegistry, TargetSpec};
use ftqc::compiler::{
    explore_targets, target_digest, target_from_json, target_to_json, CompileSession,
    CompilerOptions, StageCache,
};
use ftqc::service::json::Value;
use ftqc::service::SharedCache;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A machine description as it would arrive from a config file or a
    // `--target @file.json` flag: an explicit bus mask (buses above and
    // left of the data block plus one interior column — provisioning the
    // routing-path family cannot express), two clustered factories, and
    // a 64-qubit cap. Unstated fields default to the paper machine.
    let doc = Value::parse(
        r#"{
            "bus": {"rows": [-1], "cols": [-1, 1]},
            "factories": 2,
            "port_placement": "clustered",
            "max_qubits": 64
        }"#,
    )?;
    let lab = target_from_json(&doc)?;
    println!("custom target digest : {:#018x}", target_digest(&lab));
    println!("canonical spec       : {}", target_to_json(&lab).render());

    // The spec validates programs before anything expensive runs.
    let circuit = ftqc::benchmarks::ising_2d(3);
    lab.validate(circuit.num_qubits(), circuit.t_count() as u64)?;
    let layout = lab.build_layout(circuit.num_qubits())?;
    println!(
        "layout               : {} bus lines, {}x{} grid, {} patches",
        lab.routing_paths(),
        layout.grid().rows(),
        layout.grid().cols(),
        layout.total_patches()
    );

    // Compile through the staged session, exactly as for a preset.
    let program = CompileSession::new(CompilerOptions::default().target(lab.clone()))
        .prepare(&circuit)?
        .lower()
        .map()?
        .schedule()?;
    let m = program.metrics();
    println!(
        "compiled             : {} execution time on {} qubits",
        m.execution_time,
        m.total_qubits()
    );

    // Register it beside the presets and run a cross-target sweep: one
    // shared stage cache, per-target Pareto fronts. The explicit mask
    // pins the custom machine's bus, so it sweeps factories only, while
    // the paper preset sweeps the full r x f grid.
    let mut registry = TargetRegistry::builtin();
    registry.register("lab", "our sparse-bus lab machine", lab);
    let targets: Vec<(String, TargetSpec)> = ["paper", "lab"]
        .iter()
        .map(|name| (name.to_string(), registry.get(name).unwrap().clone()))
        .collect();
    let sweeps = explore_targets(
        &circuit,
        &targets,
        &[2, 3, 4],
        &[1, 2],
        &CompilerOptions::default(),
        2,
        &SharedCache::in_memory(128),
        &StageCache::new(128),
    )?;
    for sweep in &sweeps {
        println!(
            "target {:<6}: {} grid points, {} on the Pareto front",
            sweep.name,
            sweep.points.len(),
            sweep.front.len()
        );
        for p in &sweep.front {
            println!(
                "  r={} f={} -> {} qubits, {} (volume {:.0} qubit-d)",
                p.routing_paths,
                p.factories,
                p.qubits(),
                p.metrics.execution_time,
                p.volume()
            );
        }
    }

    // The built-in presets are specs too.
    println!(
        "preset fast-d cnot   : {} (paper: 2d)",
        TargetSpec::fast_d().timing.cnot
    );
    Ok(())
}
