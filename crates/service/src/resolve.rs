//! Circuit resolution shared by every front end — the CLI, the HTTP
//! server's request handlers, and the sweep binaries: benchmark names
//! (with the `name:L` size convention), QASM files, and inline QASM all
//! funnel through here, so the front ends cannot drift on what a
//! `"source"` means.
//!
//! Two trust levels: [`resolve_source`] is for *local* callers and may
//! read QASM files from disk; [`resolve_source_remote`] is for requests
//! that crossed a network boundary and refuses anything that would touch
//! the server's filesystem.

use crate::job::CircuitSource;
use ftqc_arch::{TargetError, MAX_QUBITS};
use ftqc_benchmarks::suite::Benchmark;
use ftqc_circuit::{parse_qasm, Circuit};

/// Maps a benchmark name (as the CLI and job files spell it) to the suite.
fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    match name {
        "ising" => Some(Benchmark::Ising2d),
        "heisenberg" => Some(Benchmark::Heisenberg2d),
        "fermi-hubbard" | "fh" => Some(Benchmark::FermiHubbard2d),
        "ghz" => Some(Benchmark::Ghz),
        "adder" => Some(Benchmark::Adder),
        "multiplier" => Some(Benchmark::Multiplier),
        _ => None,
    }
}

/// Builds a benchmark circuit, honouring the optional `:L` size.
///
/// An `L × L` lattice past [`MAX_QUBITS`] is refused before generating:
/// the generators allocate per gate before any compile stage could refuse
/// the circuit. `L²` is computed in `u64`, so no `u32` side overflows it.
fn benchmark_circuit(name: &str, size: Option<u32>) -> Result<Circuit, String> {
    let b = benchmark_by_name(name).ok_or_else(|| format!("no such benchmark {name:?}"))?;
    match size {
        None => Ok(b.circuit()),
        Some(l) => {
            let qubits = u64::from(l) * u64::from(l);
            if qubits > u64::from(MAX_QUBITS) {
                let cap = TargetError::QubitCapExceeded {
                    qubits,
                    max: MAX_QUBITS,
                };
                return Err(format!("{name}:{l}: {cap}"));
            }
            b.circuit_at(l)
                .ok_or_else(|| format!("{name} has no size parameter (drop `:{l}`)"))
        }
    }
}

/// Resolves a circuit spec: a benchmark name (optionally `name:L` for a
/// lattice side), or a path to an OpenQASM 2 file.
///
/// # Errors
///
/// A human-readable message naming what could not be resolved.
pub fn load_circuit_spec(spec: &str) -> Result<Circuit, String> {
    let (name, size) = match spec.split_once(':') {
        Some((n, l)) => {
            let l: u32 = l.parse().map_err(|_| format!("bad size in {spec:?}"))?;
            (n, Some(l))
        }
        None => (spec, None),
    };
    if benchmark_by_name(name).is_some() {
        return benchmark_circuit(name, size);
    }
    let src = std::fs::read_to_string(name)
        .map_err(|e| format!("no benchmark or readable file {name:?}: {e}"))?;
    parse_qasm(&src).map_err(|e| format!("QASM parse error: {e}"))
}

/// Resolves a job's [`CircuitSource`] for a *local* caller (the CLI, a
/// sweep binary): QASM file paths are read from this process's
/// filesystem. The error string becomes the job's failure text.
///
/// # Errors
///
/// A human-readable message naming what could not be resolved.
pub fn resolve_source(source: &CircuitSource) -> Result<Circuit, String> {
    match source {
        CircuitSource::Benchmark { name, size } => {
            // Via the spec path so `name:L` spellings inside "name" keep
            // working the same as on the command line.
            let spec = match size {
                None => name.clone(),
                Some(l) => format!("{name}:{l}"),
            };
            load_circuit_spec(&spec)
        }
        CircuitSource::QasmFile { path } => load_circuit_spec(path),
        CircuitSource::QasmInline { qasm } => {
            parse_qasm(qasm).map_err(|e| format!("QASM parse error: {e}"))
        }
    }
}

/// Resolves a job's [`CircuitSource`] for a *remote* caller (the HTTP
/// server): only built-in benchmark names and inline QASM are accepted.
/// `qasm_file` sources — and benchmark names that are not in the suite,
/// which the local resolver would treat as paths — are rejected rather
/// than handing network clients a read probe into the server's
/// filesystem.
///
/// # Errors
///
/// A human-readable message naming what could not be resolved.
pub fn resolve_source_remote(source: &CircuitSource) -> Result<Circuit, String> {
    match source {
        CircuitSource::Benchmark { name, size } => benchmark_circuit(name, *size),
        CircuitSource::QasmFile { path } => Err(format!(
            "\"qasm_file\" sources are not served remotely (the server does not read {path:?} \
             from its own filesystem); send the program as inline \"qasm\" instead"
        )),
        CircuitSource::QasmInline { qasm } => {
            parse_qasm(qasm).map_err(|e| format!("QASM parse error: {e}"))
        }
    }
}

/// Turns a CLI circuit spec into the [`CircuitSource`] a *remote* server
/// can resolve: benchmark names travel by name, but file paths are read
/// locally and shipped as inline QASM (the server does not share the
/// client's filesystem).
///
/// # Errors
///
/// A human-readable message when a file path cannot be read.
pub fn source_from_spec(spec: &str) -> Result<CircuitSource, String> {
    let (name, size) = match spec.split_once(':') {
        Some((n, l)) => match l.parse::<u32>() {
            Ok(l) => (n, Some(l)),
            Err(_) => (spec, None),
        },
        None => (spec, None),
    };
    if benchmark_by_name(name).is_some() {
        return Ok(CircuitSource::Benchmark {
            name: name.to_string(),
            size,
        });
    }
    let qasm = std::fs::read_to_string(spec)
        .map_err(|e| format!("no benchmark or readable file {spec:?}: {e}"))?;
    Ok(CircuitSource::QasmInline { qasm })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BELL: &str =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";

    #[test]
    fn specs_resolve_benchmarks_and_sizes() {
        assert!(load_circuit_spec("ising:2").is_ok());
        assert!(load_circuit_spec("ghz").is_ok());
        assert!(load_circuit_spec("ghz:3").is_err(), "ghz has no size");
        assert!(load_circuit_spec("ising:banana").is_err());
        assert!(load_circuit_spec("nope").is_err());
    }

    #[test]
    fn over_cap_benchmark_sizes_refused_before_generating() {
        // 65² is one lattice row past the cap; 65536² overflows a u32.
        for (l, qubits) in [
            (65u32, "4225"),
            (65_536, "4294967296"),
            (100_000, "10000000000"),
        ] {
            let err = load_circuit_spec(&format!("ising:{l}")).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "ising:{l}: program needs {qubits} data qubits but at most 4096 are supported"
                )
            );
        }
        assert!(resolve_source_remote(&CircuitSource::Benchmark {
            name: "heisenberg".into(),
            size: Some(4_000_000_000),
        })
        .unwrap_err()
        .contains("at most 4096"));
        assert!(load_circuit_spec("ising:16").is_ok());
    }

    #[test]
    fn sources_resolve_all_forms_locally() {
        let c = resolve_source(&CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        })
        .unwrap();
        assert!(c.num_qubits() > 0);
        let inline = resolve_source(&CircuitSource::QasmInline { qasm: BELL.into() }).unwrap();
        assert_eq!(inline.num_qubits(), 2);
        assert!(resolve_source(&CircuitSource::Benchmark {
            name: "nope".into(),
            size: None,
        })
        .is_err());
    }

    #[test]
    fn remote_resolution_never_touches_the_filesystem() {
        // Benchmarks and inline QASM work…
        assert!(resolve_source_remote(&CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        })
        .is_ok());
        assert!(resolve_source_remote(&CircuitSource::QasmInline { qasm: BELL.into() }).is_ok());
        // …but file paths are refused even when the file exists, and
        // unknown benchmark names do not fall through to a path probe.
        let dir = std::env::temp_dir().join("ftqc-service-resolve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exists.qasm");
        std::fs::write(&path, BELL).unwrap();
        let err = resolve_source_remote(&CircuitSource::QasmFile {
            path: path.to_str().unwrap().to_string(),
        })
        .unwrap_err();
        assert!(err.contains("not served remotely"), "got {err}");
        let err = resolve_source_remote(&CircuitSource::Benchmark {
            name: path.to_str().unwrap().to_string(),
            size: None,
        })
        .unwrap_err();
        assert!(err.contains("no such benchmark"), "got {err}");
    }

    #[test]
    fn spec_to_source_ships_files_inline() {
        assert_eq!(
            source_from_spec("ising:4").unwrap(),
            CircuitSource::Benchmark {
                name: "ising".into(),
                size: Some(4)
            }
        );
        let dir = std::env::temp_dir().join("ftqc-service-resolve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bell.qasm");
        std::fs::write(&path, BELL).unwrap();
        let src = source_from_spec(path.to_str().unwrap()).unwrap();
        assert!(matches!(src, CircuitSource::QasmInline { .. }));
        assert!(source_from_spec("/nonexistent/foo.qasm").is_err());
    }
}
