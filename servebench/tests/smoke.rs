//! Smoke self-test: every workload runs briefly, untraced and traced,
//! passes its oracle, emits exactly the metrics `BENCHMARK.json` names
//! with finite values, and its traced spans nest.
//!
//! `cargo test --manifest-path servebench/Cargo.toml`

use servebench::report::{MetricDef, END_TO_END, PER_LAYER};
use servebench::spans::check_nesting;
use servebench::{run, Params, Scale, Workload};

fn spec() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let spec = spec();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            r#""name": "{}", "unit": "{}", "better": "{}""#,
            d.name, d.unit, d.better
        );
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        spec.matches(r#""better":"#).count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists a metric the benchmark does not emit"
    );
    for w in Workload::ALL {
        assert!(spec.contains(&format!(r#"{{"name": "{}""#, w.name())));
    }
}

fn names(defs: &[MetricDef]) -> Vec<&'static str> {
    defs.iter().map(|d| d.name).collect()
}

#[test]
fn every_workload_emits_every_metric_and_nested_spans() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(&Params {
                workload,
                seed: 7,
                seconds: 0.5,
                trace,
                scale: Scale::smoke(),
            });
            let tag = format!("{} trace={trace}", workload.name());
            assert!(report.correct, "{tag}: {:?}", report.violations);
            assert!(report.attempted > 0, "{tag}: no operation attempted");
            assert_eq!(report.failed, 0, "{tag}: operations failed");
            let emitted: Vec<&str> = report.metrics.iter().map(|(d, _)| d.name).collect();
            let expected = names(if trace { PER_LAYER } else { END_TO_END });
            assert_eq!(emitted, expected, "{tag}");
            for (d, v) in &report.metrics {
                assert!(
                    v.is_finite() && !d.unit.is_empty(),
                    "{tag}: {} = {v}",
                    d.name
                );
                if !trace {
                    assert!(*v > 0.0, "{tag}: end-to-end {} is zero", d.name);
                }
            }
            let line = report.result_line();
            assert!(
                line.starts_with(r#"{"correct": true, "attempted": "#),
                "{line}"
            );
            if trace {
                assert!(!report.spans.is_empty(), "{tag}: no spans recorded");
                check_nesting(&report.spans).unwrap_or_else(|e| panic!("{tag}: {e}"));
            }
        }
    }
}
