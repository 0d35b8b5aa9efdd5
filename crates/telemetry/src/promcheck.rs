//! A small in-tree checker for the Prometheus text exposition format
//! (version 0.0.4), used by CI to validate `/v1/metrics` scrapes and
//! by tests to pin the renderer. It is a validator, not a parser — it
//! checks structure and invariants and reports the first violation
//! with its line number.
//!
//! Checked invariants:
//!
//! * every line is a comment, blank, or a sample `name{labels} value`;
//! * metric and label names match the Prometheus grammar, label values
//!   are quoted with valid escapes;
//! * `# TYPE` appears at most once per family, before its samples, and
//!   names a known type;
//! * sample values parse as numbers (`+Inf`, `-Inf` and `NaN` allowed);
//! * histogram families end their `_bucket` series with `le="+Inf"`,
//!   with cumulative bucket values non-decreasing, and carry matching
//!   `_sum` and `_count` lines.
//!
//! ```
//! let text = "# HELP x_total things\n# TYPE x_total counter\nx_total 3\n";
//! assert!(pim_telemetry::promcheck::validate(text).is_ok());
//! assert!(pim_telemetry::promcheck::validate("{bad} 1\n").is_err());
//! ```

use std::collections::BTreeMap;

/// Validates Prometheus text exposition format; `Err` carries the
/// first violation, prefixed with its 1-based line number.
pub fn validate(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Err("empty exposition".to_string());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".to_string());
    }
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut seen_samples: BTreeMap<String, bool> = BTreeMap::new();
    // Per histogram series (family + non-le labels): last cumulative
    // bucket value, whether +Inf was seen, and whether sum/count exist.
    let mut histograms: BTreeMap<String, HistogramState> = BTreeMap::new();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            check_comment(comment, lineno, &mut types, &seen_samples)?;
            continue;
        }
        let sample = parse_sample(line, lineno)?;
        let family = family_of(&sample.name, &types);
        seen_samples.insert(family.clone(), true);
        if types.get(&family).map(String::as_str) == Some("histogram") {
            track_histogram(&sample, &family, lineno, &mut histograms)?;
        }
    }

    for (series, state) in &histograms {
        if state.bucket_lines > 0 {
            if !state.saw_inf {
                return Err(format!(
                    "histogram series {series:?} has no le=\"+Inf\" bucket"
                ));
            }
            if !state.saw_count {
                return Err(format!(
                    "histogram series {series:?} has buckets but no _count"
                ));
            }
            if !state.saw_sum {
                return Err(format!(
                    "histogram series {series:?} has buckets but no _sum"
                ));
            }
        }
    }
    Ok(())
}

#[derive(Default)]
struct HistogramState {
    bucket_lines: usize,
    last_cumulative: f64,
    saw_inf: bool,
    saw_sum: bool,
    saw_count: bool,
}

struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn check_comment(
    comment: &str,
    lineno: usize,
    types: &mut BTreeMap<String, String>,
    seen_samples: &BTreeMap<String, bool>,
) -> Result<(), String> {
    let comment = comment.trim_start();
    let (keyword, rest) = match comment.split_once(' ') {
        Some(parts) => parts,
        None => return Ok(()), // bare comment
    };
    match keyword {
        "TYPE" => {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {lineno}: TYPE needs a metric name and a type"))?;
            check_metric_name(name, lineno)?;
            const KINDS: [&str; 5] = ["counter", "gauge", "histogram", "summary", "untyped"];
            if !KINDS.contains(&kind.trim()) {
                return Err(format!("line {lineno}: unknown metric type {kind:?}"));
            }
            if types.contains_key(name) {
                return Err(format!("line {lineno}: duplicate TYPE for {name:?}"));
            }
            if seen_samples.contains_key(name) {
                return Err(format!(
                    "line {lineno}: TYPE for {name:?} after its samples"
                ));
            }
            types.insert(name.to_string(), kind.trim().to_string());
        }
        "HELP" => {
            let name = rest.split(' ').next().unwrap_or("");
            check_metric_name(name, lineno)?;
        }
        _ => {} // free-form comment
    }
    Ok(())
}

fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let name_end = line
        .find(['{', ' '])
        .ok_or_else(|| format!("line {lineno}: sample has no value"))?;
    let name = &line[..name_end];
    check_metric_name(name, lineno)?;
    let mut labels = Vec::new();
    let rest = if line[name_end..].starts_with('{') {
        let body_and_rest = &line[name_end + 1..];
        let close = find_label_close(body_and_rest)
            .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
        parse_labels(&body_and_rest[..close], lineno, &mut labels)?;
        body_and_rest[close + 1..].trim_start()
    } else {
        line[name_end..].trim_start()
    };
    // Value, optionally followed by a timestamp.
    let value_str = rest.split(' ').next().unwrap_or("");
    let value = parse_value(value_str)
        .ok_or_else(|| format!("line {lineno}: invalid sample value {value_str:?}"))?;
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Finds the index of the closing `}` of a label set, skipping over
/// quoted label values (which may contain escaped quotes and braces).
fn find_label_close(body: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, ch) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match ch {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_labels(
    body: &str,
    lineno: usize,
    labels: &mut Vec<(String, String)>,
) -> Result<(), String> {
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {lineno}: label without '='"))?;
        let key = rest[..eq].trim();
        check_label_name(key, lineno)?;
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("line {lineno}: label value for {key:?} not quoted"));
        }
        let mut value = String::new();
        let mut escaped = false;
        let mut end = None;
        for (i, ch) in after[1..].char_indices() {
            if escaped {
                match ch {
                    '\\' | '"' | 'n' => value.push(ch),
                    other => {
                        return Err(format!(
                            "line {lineno}: invalid escape '\\{other}' in label value"
                        ))
                    }
                }
                escaped = false;
                continue;
            }
            match ch {
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("line {lineno}: unterminated label value"))?;
        labels.push((key.to_string(), value));
        rest = &after[1 + end + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(format!(
                "line {lineno}: expected ',' between labels, got {rest:?}"
            ));
        }
    }
    Ok(())
}

fn parse_value(text: &str) -> Option<f64> {
    match text {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse::<f64>().ok(),
    }
}

fn check_metric_name(name: &str, lineno: usize) -> Result<(), String> {
    let mut chars = name.chars();
    let valid = match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        _ => false,
    };
    if valid {
        Ok(())
    } else {
        Err(format!("line {lineno}: invalid metric name {name:?}"))
    }
}

fn check_label_name(name: &str, lineno: usize) -> Result<(), String> {
    let mut chars = name.chars();
    let valid = match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        _ => false,
    };
    if valid {
        Ok(())
    } else {
        Err(format!("line {lineno}: invalid label name {name:?}"))
    }
}

/// Maps a sample name to its family: `_bucket`/`_sum`/`_count`
/// suffixes collapse onto a declared histogram family.
fn family_of(name: &str, types: &BTreeMap<String, String>) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if types.get(stem).map(String::as_str) == Some("histogram") {
                return stem.to_string();
            }
        }
    }
    name.to_string()
}

fn track_histogram(
    sample: &Sample,
    family: &str,
    lineno: usize,
    histograms: &mut BTreeMap<String, HistogramState>,
) -> Result<(), String> {
    let series_labels: Vec<String> = sample
        .labels
        .iter()
        .filter(|(k, _)| k != "le")
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let series = format!("{family}{{{}}}", series_labels.join(","));
    let state = histograms.entry(series.clone()).or_default();
    if sample.name.ends_with("_bucket") {
        let le = sample
            .labels
            .iter()
            .find(|(k, _)| k == "le")
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("line {lineno}: histogram bucket without le label"))?;
        parse_value(le).ok_or_else(|| format!("line {lineno}: invalid le bound {le:?}"))?;
        if state.bucket_lines > 0 && sample.value < state.last_cumulative {
            return Err(format!(
                "line {lineno}: histogram {series:?} buckets not cumulative \
                 ({} after {})",
                sample.value, state.last_cumulative
            ));
        }
        state.bucket_lines += 1;
        state.last_cumulative = sample.value;
        if le == "+Inf" {
            state.saw_inf = true;
        }
    } else if sample.name.ends_with("_sum") {
        state.saw_sum = true;
    } else if sample.name.ends_with("_count") {
        state.saw_count = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Buckets, Registry};

    #[test]
    fn accepts_registry_render() {
        let reg = Registry::new();
        reg.counter("ok_total", "things", &[("endpoint", "/v1/plan")])
            .inc();
        let h = reg.histogram(
            "ok_seconds",
            "latency",
            &[("endpoint", "/v1/plan")],
            Buckets::latency(),
        );
        h.observe(0.002);
        h.observe(42.0);
        let text = reg.render_prometheus();
        validate(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(validate("").is_err());
        assert!(validate("no_newline 1").is_err());
        assert!(validate("{noname} 1\n").is_err());
        assert!(validate("x_total notanumber\n").is_err());
        assert!(validate("x_total{unquoted=1} 2\n").is_err());
        assert!(validate("9leading_digit 1\n").is_err());
        assert!(validate("# TYPE x_total bogus\nx_total 1\n").is_err());
        assert!(validate("x_total 1\n# TYPE x_total counter\n").is_err());
        assert!(validate("# TYPE x_total counter\n# TYPE x_total counter\nx_total 1\n").is_err());
    }

    #[test]
    fn rejects_non_cumulative_histogram() {
        let text = "# TYPE h_seconds histogram\n\
                    h_seconds_bucket{le=\"1\"} 5\n\
                    h_seconds_bucket{le=\"2\"} 3\n\
                    h_seconds_bucket{le=\"+Inf\"} 5\n\
                    h_seconds_sum 4\n\
                    h_seconds_count 5\n";
        let err = validate(text).unwrap_err();
        assert!(err.contains("not cumulative"), "{err}");
    }

    #[test]
    fn rejects_histogram_missing_inf_or_count() {
        let no_inf = "# TYPE h_seconds histogram\n\
                      h_seconds_bucket{le=\"1\"} 5\n\
                      h_seconds_sum 4\n\
                      h_seconds_count 5\n";
        assert!(validate(no_inf).unwrap_err().contains("+Inf"));
        let no_count = "# TYPE h_seconds histogram\n\
                        h_seconds_bucket{le=\"+Inf\"} 5\n\
                        h_seconds_sum 4\n";
        assert!(validate(no_count).unwrap_err().contains("_count"));
    }

    #[test]
    fn accepts_escaped_label_values_and_timestamps() {
        let text = "# TYPE esc_total counter\n\
                    esc_total{p=\"a\\\"b\\\\c\\nd\"} 1\n\
                    plain_total 2 1700000000\n";
        validate(text).unwrap_or_else(|e| panic!("{e}"));
    }
}
