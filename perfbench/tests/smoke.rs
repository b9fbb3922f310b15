//! Runs `perf --smoke` (the two cheapest cells of each CPU workload, one
//! pass, checked against the committed references) and requires every
//! operation to pass.

use std::process::Command;

#[test]
fn smoke_run_fails_no_operation() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .arg("--smoke")
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perf --smoke failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output");
    let doc = imo_util::json::parse(last).expect("last line is JSON");
    let num = |k: &str| doc.get(k).and_then(|v| v.as_f64()).expect(k);
    assert_eq!(num("failed"), 0.0, "{stdout}");
    assert_eq!(num("attempted"), 6.0, "two cells for each of three workloads");
    let frac = doc.get("metrics").and_then(|m| m.get("failed_frac")).and_then(|f| f.get("value"));
    assert_eq!(frac.and_then(|v| v.as_f64()), Some(0.0));
}
