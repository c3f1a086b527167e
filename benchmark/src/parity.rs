//! Build-parity guard: the benchmark refuses to run unless it was built
//! the way the repository's own binaries are. Build settings change
//! speed without changing code, so a mismatch would be measured as if
//! it were a property of the pipeline.

/// The `[profile.release]` keys that must agree with the root manifest.
const PROFILE_KEYS: [&str; 3] = ["lto", "codegen-units", "debug"];

/// `key = value` pairs of one TOML table, comments and blanks dropped.
/// Line-based: enough for the two manifests it reads, which keep one
/// pair per line.
fn table<'a>(manifest: &'a str, header: &str) -> Vec<(&'a str, &'a str)> {
    let mut inside = false;
    let mut out = Vec::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == header;
        } else if inside {
            if let Some((k, v)) = line.split_once('=') {
                out.push((k.trim(), v.trim()));
            }
        }
    }
    out
}

fn profile_value<'a>(manifest: &'a str, key: &str) -> Option<&'a str> {
    table(manifest, "[profile.release]")
        .into_iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Compares the two manifests' texts. Returns every mismatch found.
pub fn check_manifests(root: &str, bench: &str) -> Vec<String> {
    let mut problems = Vec::new();
    for key in PROFILE_KEYS {
        let (r, b) = (profile_value(root, key), profile_value(bench, key));
        if r != b {
            problems.push(format!(
                "[profile.release] {key}: root manifest has {r:?}, benchmark/Cargo.toml has {b:?}"
            ));
        }
    }
    let deps = table(bench, "[dependencies]");
    if deps.is_empty() {
        problems.push("benchmark/Cargo.toml: no [dependencies] table found".to_string());
    }
    for (name, value) in deps {
        if !value.contains("path = \"../crates/") {
            problems.push(format!(
                "dependency {name} is not an in-tree path dependency: {value}"
            ));
        }
    }
    problems
}

/// Fails fast, before anything is measured. Reads the two manifests
/// relative to the repo root, which `run.sh` makes the working directory.
pub fn check() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built without --release: measure optimized builds only".to_string());
    }
    let read = |rel: &str| std::fs::read_to_string(rel).map_err(|e| format!("reading {rel}: {e}"));
    let problems = check_manifests(&read("Cargo.toml")?, &read("benchmark/Cargo.toml")?);
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: &str = "[workspace]\nmembers = []\n\n[profile.release]\nlto = \"thin\"\n\
                        codegen-units = 4 # four\ndebug = true\n\n[profile.bench]\nlto = \"fat\"\n";

    fn bench(profile: &str, deps: &str) -> String {
        format!("[package]\nname = \"b\"\n\n[dependencies]\n{deps}\n[profile.release]\n{profile}")
    }

    #[test]
    fn equal_profiles_and_path_deps_pass() {
        let b = bench(
            "lto = \"thin\"\ncodegen-units = 4\ndebug = true\n",
            "retina-core = { path = \"../crates/core\" }\n",
        );
        assert_eq!(check_manifests(ROOT, &b), Vec::<String>::new());
    }

    #[test]
    fn profile_drift_is_named() {
        let b = bench(
            "lto = \"fat\"\ncodegen-units = 4\n",
            "retina-core = { path = \"../crates/core\" }\n",
        );
        let problems = check_manifests(ROOT, &b);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("lto") && problems[1].contains("debug"));
    }

    #[test]
    fn registry_dependency_is_refused() {
        let b = bench(
            "lto = \"thin\"\ncodegen-units = 4\ndebug = true\n",
            "retina-core = { path = \"../crates/core\" }\nserde = \"1\"\n",
        );
        let problems = check_manifests(ROOT, &b);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("serde"));
    }

    #[test]
    fn the_manifests_in_this_tree_agree() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let root = std::fs::read_to_string(format!("{dir}/../Cargo.toml")).unwrap();
        let bench = std::fs::read_to_string(format!("{dir}/Cargo.toml")).unwrap();
        assert_eq!(check_manifests(&root, &bench), Vec::<String>::new());
    }
}
