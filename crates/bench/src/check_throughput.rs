//! The toolchain and host a benchmark ran on, recorded next to its
//! numbers so they stay interpretable across machines and compiler
//! upgrades. perfbench embeds [`environment_json`] in its report line.

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
            .map(|s| s.trim().replace(['"', '\\'], "_"))
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
    let features: Vec<String> = detected_cpu_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    format!(
        "{{\"rustc\": \"{}\", \"cpu_features\": [{}]}}",
        rustc,
        features.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The object carries exactly `rustc` and `cpu_features`, and closes
    /// with `}` so a caller can splice further fields in.
    #[test]
    fn environment_json_key_set() {
        let json = environment_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        let parts: Vec<&str> = json.split('"').collect();
        let keys: Vec<&str> = parts
            .windows(2)
            .filter(|w| w[1].starts_with(':'))
            .map(|w| w[0])
            .collect();
        assert_eq!(keys, ["rustc", "cpu_features"], "{json}");
    }
}
