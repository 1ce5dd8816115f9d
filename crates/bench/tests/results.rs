//! Every committed report under `results/` parses and carries the
//! current report schema version, so no stale schema lingers next to
//! the reports the lab writes today.

use obs::{Json, SCHEMA_VERSION};

#[test]
fn committed_reports_carry_the_current_schema() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("results/ is committed") {
        let path = entry.expect("readable directory entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable report");
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let version = doc.get("schema_version").and_then(Json::as_u64);
        assert_eq!(version, Some(SCHEMA_VERSION), "{}: stale schema", path.display());
        checked += 1;
    }
    assert!(checked > 0, "no report found under {}", dir.display());
}
