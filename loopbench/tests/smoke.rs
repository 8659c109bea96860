//! `run --smoke` and `trace --smoke`: every workload and every check,
//! against the real server binary, in about a second each.

use loopbench::json::Json;
use loopbench::report::{self, Invocation, Mode};
use loopbench::spec::{Workload, END_TO_END, PER_LAYER};

fn smoke(mode: Mode) -> Json {
    let invocation = Invocation {
        mode,
        workloads: Workload::ALL.to_vec(),
        seed: 5,
        measure_s: 10.0,
        smoke: true,
    };
    assert_eq!(report::execute(&invocation), Ok(true));
    let kind = if mode == Mode::Trace { "trace" } else { "run" };
    let path = report::out_dir(&loopbench::child::repo_root()).join(format!("{kind}-seed5.json"));
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn metric(workload: &Json, group: &str, name: &str) -> f64 {
    // Layer names hold dots, so no `Json::path` here.
    workload
        .get(group)
        .and_then(|metrics| metrics.get(name))
        .and_then(|metric| metric.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{group}.{name} is missing or not a number"))
}

// One test, so the two runs do not compete for the two cores.
#[test]
fn smoke_run_and_smoke_trace_exercise_every_workload() {
    let run = smoke(Mode::Run);
    assert_eq!(run.get("claim"), Some(&Json::Null));
    let workloads = run.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for workload in workloads {
        assert_eq!(workload.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(workload.get("failed").and_then(Json::as_f64), Some(0.0));
        for m in END_TO_END {
            assert!(metric(workload, "end_to_end", m.name) > 0.0, "{}", m.name);
        }
    }
    let restart = workloads[4]
        .get("restart_after_kill_s")
        .and_then(Json::as_f64);
    assert!(
        restart.is_some_and(|s| s > 0.0),
        "write_small restarts its server"
    );

    let trace = smoke(Mode::Trace);
    let workloads = trace.get("workloads").and_then(Json::as_arr).unwrap();
    for (workload, which) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(workload.get("correct"), Some(&Json::Bool(true)));
        for m in PER_LAYER {
            assert!(
                metric(workload, "per_layer", m.name).is_finite(),
                "{}",
                m.name
            );
        }
        // The layer each workload is there for shows up in its trace.
        let on_path = match which {
            Workload::ReadPoint => "server.http_read_us",
            Workload::ReadCold => "core.compile_us",
            Workload::ReadJoin | Workload::Mixed => "rel.select_us",
            Workload::ReadScan => "server.wire_json_us",
            Workload::WriteSmall => "dur.fsync_us",
            Workload::WriteBulk => "rel.dml_us",
        };
        assert!(
            metric(workload, "per_layer", on_path) > 0.0,
            "{which:?} {on_path}"
        );
        let off_path = if which.has_writes() && which != Workload::Mixed {
            "rel.select_us"
        } else if which == Workload::Mixed {
            "server.overload_rejects"
        } else {
            "dur.fsync_us"
        };
        assert_eq!(
            metric(workload, "per_layer", off_path),
            0.0,
            "{which:?} {off_path}"
        );
        let spans = std::fs::read_to_string(
            report::out_dir(&loopbench::child::repo_root())
                .join(format!("trace-{}.json", which.name())),
        )
        .unwrap();
        assert!(Json::parse(&spans).unwrap().get("spans").is_some());
    }
}
