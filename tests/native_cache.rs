//! The native-dispatch artifact cache shared between processes: two
//! `koika_sim` runs started together against one empty cache directory
//! must both build (or reuse) the cdylib and agree, leaving only the
//! published artifacts behind.

use std::process::{Command, Stdio};

#[test]
fn two_processes_share_one_cold_native_cache() {
    if !cuttlesim::toolchain_available() {
        eprintln!("SKIP two_processes_share_one_cold_native_cache: no rustc toolchain");
        return;
    }
    let dir = std::env::temp_dir().join(format!("koika-native-2proc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let children: Vec<_> = (0..2)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_koika_sim"))
                .args(["collatz", "--dispatch", "native", "--cycles", "40", "--watch", "x"])
                .arg("--native-cache")
                .arg(&dir)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap()
        })
        .collect();
    let outputs: Vec<String> = children
        .into_iter()
        .map(|c| {
            let out = c.wait_with_output().unwrap();
            assert!(
                out.status.success(),
                "koika_sim failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            // The summary line carries a wall-clock rate; the watch trace
            // above it is deterministic.
            String::from_utf8(out.stdout)
                .unwrap()
                .lines()
                .filter(|l| !l.contains("cycles/s"))
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect();
    assert!(outputs[0].contains("0x1b"), "watch trace missing:\n{}", outputs[0]);
    assert_eq!(outputs[0], outputs[1]);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names.len(), 2, "only the published artifacts remain: {names:?}");
    assert!(names[0].ends_with(".rs") && names[1].ends_with(".so"), "{names:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
