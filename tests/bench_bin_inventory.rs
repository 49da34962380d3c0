//! Every `sfi-bench` binary is a gate: `scripts/ci.sh` runs each one, so
//! its asserts (and any `--check` gates) execute on every CI pass. A binary
//! that CI never runs can only print, and a print-only binary checks
//! nothing. This test lists `crates/bench/src/bin/*.rs` and requires each
//! stem to appear as a whole word in `scripts/ci.sh`.

use std::path::Path;

/// True when `word` occurs in `text` with no identifier character
/// (`[A-Za-z0-9_]`) directly before or after it.
fn has_whole_word(text: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn every_bench_binary_is_run_by_ci() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = std::fs::read_to_string(root.join("scripts/ci.sh")).expect("read scripts/ci.sh");
    let mut stems: Vec<String> = std::fs::read_dir(root.join("crates/bench/src/bin"))
        .expect("list crates/bench/src/bin")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect();
    stems.sort();
    assert!(!stems.is_empty(), "no binaries found under crates/bench/src/bin");
    let missing: Vec<&str> =
        stems.iter().map(String::as_str).filter(|s| !has_whole_word(&ci, s)).collect();
    assert!(
        missing.is_empty(),
        "bench binaries that scripts/ci.sh never runs (gate them or delete them): {missing:?}"
    );
}

#[test]
fn whole_word_match_rejects_prefixes_and_suffixes() {
    assert!(has_whole_word("--bin fig6_throughput >/dev/null", "fig6_throughput"));
    assert!(has_whole_word("for bin in fig3_spec2006 \\", "fig3_spec2006"));
    assert!(!has_whole_word("--bin figX_tiers_extra", "figX_tiers"));
    assert!(!has_whole_word("--bin my_figX_tiers", "figX_tiers"));
}
