//! Pin files: the exact values a suite holds, one row per line, under
//! `tests/pins/`. A test formats what it measured as rows and hands them to
//! [`check`]. Under `RSHUFFLE_BLESS=1` (`RSHUFFLE_BLESS=1 ./ci.sh`
//! re-records every pin file and perf baseline) it writes them instead.

/// Fails unless `measured` equals the rows of `tests/pins/{file}` line for
/// line, naming every row that moved by its line, pinned and measured
/// value. Under `RSHUFFLE_BLESS=1` it writes `measured` there instead,
/// touching the file only when a row moved. The pin directory is the
/// workspace's, whether the suite belongs to the umbrella package or to a
/// crate under `crates/` that includes this file.
pub fn check(file: &str, measured: &[String]) {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = manifest
        .ancestors()
        .map(|dir| dir.join("tests/pins"))
        .find(|dir| dir.is_dir());
    let path = dir
        .unwrap_or_else(|| panic!("no tests/pins above {manifest:?}"))
        .join(file);
    let pinned = std::fs::read_to_string(&path).unwrap_or_default();
    let text: String = measured.iter().map(|row| format!("{row}\n")).collect();
    if std::env::var("RSHUFFLE_BLESS").as_deref() == Ok("1") {
        if pinned != text {
            std::fs::write(&path, text)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        return;
    }
    let pinned: Vec<&str> = pinned.lines().collect();
    let measured: Vec<&str> = measured.iter().map(String::as_str).collect();
    let rows = pinned.len().max(measured.len());
    let moved: Vec<String> = (0..rows)
        .filter(|&at| pinned.get(at) != measured.get(at))
        .map(|at| {
            let row = |rows: &[&str]| rows.get(at).copied().unwrap_or("(no row)").to_string();
            let (line, pinned, measured) = (at + 1, row(&pinned), row(&measured));
            format!("tests/pins/{file}:{line}\n  pinned   {pinned}\n  measured {measured}")
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {rows} pinned rows moved (`RSHUFFLE_BLESS=1 ./ci.sh` re-records them):\n{}",
        moved.len(),
        moved.join("\n")
    );
}
