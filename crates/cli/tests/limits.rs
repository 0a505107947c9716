//! Over-cap inputs through the real `ftqc` binary: a typed error on stderr
//! and exit status 1, never an allocation abort.

use std::process::Command;

/// Runs `ftqc args…`, returning its exit code and stderr.
fn ftqc(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ftqc"))
        .args(args)
        .output()
        .expect("ftqc runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn over_cap_qasm_register_exits_1_with_the_cap_error() {
    let dir = std::env::temp_dir().join(format!("ftqc-cli-limits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.qasm");
    std::fs::write(
        &path,
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4000000000];\nh q[0];\n",
    )
    .unwrap();
    let (code, stderr) = ftqc(&["compile", path.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!(
            "program needs 4000000000 data qubits but at most {} are supported",
            ftqc_arch::MAX_QUBITS
        )),
        "stderr: {stderr}"
    );
}

#[test]
fn over_cap_benchmark_size_exits_1_with_the_cap_error() {
    let (code, stderr) = ftqc(&["compile", "ising:100000"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!(
            "ising:100000: program needs 10000000000 data qubits but at most {} are supported",
            ftqc_arch::MAX_QUBITS
        )),
        "stderr: {stderr}"
    );
}
