//! `--self-test`: checks the benchmark against `BENCHMARK.json`. The
//! metric tables compiled into the benchmark must match the file, every
//! workload it lists must exist, and a one-second run of every workload
//! (listed or not), untraced and traced, must print a result line with
//! exactly the listed metrics, each with its listed unit, and a unit on
//! every `metric` line.

use crate::workload::NAMES;
use crate::{package_dir, END_TO_END, PER_LAYER};
use serde::Value;
use std::process::Command;

pub fn run() -> i32 {
    let mut problems = Vec::new();
    match check(&mut problems) {
        Ok(()) if problems.is_empty() => {
            println!("self-test: ok");
            0
        }
        Ok(()) => {
            for p in &problems {
                eprintln!("self-test: {p}");
            }
            1
        }
        Err(e) => {
            eprintln!("self-test: {e}");
            1
        }
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(spec: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    let items = spec
        .as_obj()
        .and_then(|o| serde::obj_get(o, key))
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?;
    items
        .iter()
        .map(|m| {
            let o = m.as_obj().ok_or(format!("{key}: entry is not an object"))?;
            let get = |k| {
                serde::obj_get(o, k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
            };
            Ok((
                get("name").ok_or(format!("{key}: entry without a name"))?,
                get("unit").ok_or(format!("{key}: entry without a unit"))?,
            ))
        })
        .collect()
}

fn sorted_pairs(v: impl IntoIterator<Item = (String, String)>) -> Vec<(String, String)> {
    let mut v: Vec<_> = v.into_iter().collect();
    v.sort();
    v
}

fn check(problems: &mut Vec<String>) -> Result<(), String> {
    let path = package_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let own = |t: &[(&str, &str)]| sorted_pairs(t.iter().map(|&(n, u)| (n.into(), u.into())));
    let modes = [
        (
            "0",
            sorted_pairs(listed(&spec, "end_to_end")?),
            own(&END_TO_END),
        ),
        (
            "1",
            sorted_pairs(listed(&spec, "per_layer")?),
            own(&PER_LAYER),
        ),
    ];
    for (trace, file, compiled) in &modes {
        if file != compiled {
            problems.push(format!(
                "--trace {trace}: BENCHMARK.json lists {file:?}, the benchmark reports {compiled:?}"
            ));
        }
    }
    let workloads: Vec<String> = spec
        .as_obj()
        .and_then(|o| serde::obj_get(o, "workloads"))
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.as_obj().and_then(|o| serde::obj_get(o, "name")))
        .filter_map(|n| n.as_str().map(str::to_string))
        .collect();
    if workloads.is_empty() || workloads.iter().any(|w| !NAMES.contains(&w.as_str())) {
        problems.push(format!(
            "BENCHMARK.json workloads {workloads:?}, benchmark runs {NAMES:?}"
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    for name in NAMES {
        for (trace, expected, _) in &modes {
            let label = format!("{name} --trace {trace}");
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "1",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .output()
                .map_err(|e| format!("{label}: {e}"))?;
            if !out.status.success() {
                problems.push(format!(
                    "{label}: exit {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
                continue;
            }
            let stdout = String::from_utf8_lossy(&out.stdout);
            check_output(&label, &stdout, expected, problems);
            println!("self-test: {label} checked");
        }
    }
    Ok(())
}

fn check_output(
    label: &str,
    stdout: &str,
    expected: &[(String, String)],
    problems: &mut Vec<String>,
) {
    let mut lines: Vec<(String, String)> = Vec::new();
    for line in stdout.lines().filter(|l| l.starts_with("metric ")) {
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            [_, name, value, unit, ..] if value.parse::<f64>().is_ok() => {
                lines.push((name.to_string(), unit.to_string()))
            }
            _ => problems.push(format!(
                "{label}: metric line without value and unit: {line:?}"
            )),
        }
    }
    if sorted_pairs(lines) != expected {
        problems.push(format!("{label}: metric lines do not match BENCHMARK.json"));
    }
    let Some(last) = stdout.lines().last() else {
        problems.push(format!("{label}: no output"));
        return;
    };
    let result = match serde_json::parse_value(last) {
        Ok(v) => v,
        Err(e) => {
            problems.push(format!("{label}: last line is not JSON: {e}"));
            return;
        }
    };
    let Some(obj) = result.as_obj() else {
        problems.push(format!("{label}: result is not an object"));
        return;
    };
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("{label}: result keys {keys:?}"));
    }
    if !matches!(serde::obj_get(obj, "correct"), Some(Value::Bool(true))) {
        problems.push(format!("{label}: correct is not true"));
    }
    if !matches!(serde::obj_get(obj, "attempted"), Some(Value::U64(n)) if *n >= 1) {
        problems.push(format!("{label}: attempted is not a whole number ≥ 1"));
    }
    if !matches!(serde::obj_get(obj, "failed"), Some(Value::U64(0))) {
        problems.push(format!("{label}: failed is not 0"));
    }
    let metrics: Vec<(String, String)> = serde::obj_get(obj, "metrics")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| {
            let m = m.as_obj()?;
            let numeric = matches!(
                serde::obj_get(m, "value"),
                Some(Value::U64(_) | Value::I64(_) | Value::F64(_))
            );
            let unit = serde::obj_get(m, "unit")?.as_str()?;
            (numeric && m.len() == 2).then(|| (name.clone(), unit.to_string()))
        })
        .collect();
    if sorted_pairs(metrics) != expected {
        problems.push(format!(
            "{label}: result metrics do not match BENCHMARK.json (name, numeric value and unit each)"
        ));
    }
}
