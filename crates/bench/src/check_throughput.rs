//! The toolchain and host a benchmark ran on, recorded next to its
//! numbers so they stay interpretable across machines and compiler
//! upgrades. perfbench embeds [`environment_json`] in its report line.

use ocdd_iosafe::json::quoted;

/// CPU feature flags relevant to the autovectorized scan kernels, as
/// detected on this host.
#[cfg(target_arch = "x86_64")]
fn detected_cpu_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    for (name, on) in [
        ("sse2", is_x86_feature_detected!("sse2")),
        ("sse4.2", is_x86_feature_detected!("sse4.2")),
        ("avx", is_x86_feature_detected!("avx")),
        ("avx2", is_x86_feature_detected!("avx2")),
    ] {
        if on {
            out.push(name);
        }
    }
    out
}

/// CPU feature flags relevant to the scan kernels. Empty on non-x86-64
/// targets.
#[cfg(not(target_arch = "x86_64"))]
fn detected_cpu_features() -> Vec<&'static str> {
    Vec::new()
}

/// Snapshot of the toolchain and host CPU, as a JSON object.
///
/// Fields: `rustc` (from `rustc --version`, `"unknown"` if unavailable)
/// and `cpu_features` (detected x86-64 flags).
pub fn environment_json() -> String {
    let rustc =
        std::process::Command::new(std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
    environment_object(&rustc, &detected_cpu_features())
}

/// The environment object for a given toolchain string and feature list,
/// every string escaped by the shared JSON codec.
fn environment_object(rustc: &str, features: &[&str]) -> String {
    let features: Vec<String> = features.iter().map(|f| quoted(f)).collect();
    format!(
        "{{\"rustc\": {}, \"cpu_features\": [{}]}}",
        quoted(rustc),
        features.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocdd_iosafe::json::{parse, Json};

    /// The object carries exactly `rustc` and `cpu_features`, and closes
    /// with `}` so a caller can splice further fields in.
    #[test]
    fn environment_json_key_set() {
        let json = environment_json();
        assert!(json.ends_with('}'), "{json}");
        let v = parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["rustc", "cpu_features"], "{json}");
        assert!(v.field("rustc", Json::as_str).is_ok(), "{json}");
        let features = v.field("cpu_features", Json::as_array).expect("array");
        assert!(features.iter().all(|f| f.as_str().is_some()), "{json}");
    }

    /// A toolchain string with quotes and backslashes survives intact.
    #[test]
    fn environment_strings_are_escaped_not_replaced() {
        let rustc = "rustc 1.95.0 (\"nightly\" C:\\toolchains)";
        let v = parse(&environment_object(rustc, &["sse2"])).expect("valid JSON");
        assert_eq!(v.field("rustc", Json::as_str), Ok(rustc));
    }
}
