//! VL layering is timed on its own: every layering sweep emits one
//! `vl_assign` span (category `route`) naming its engine and lane count,
//! and one `route.vl_assign_seconds.<engine>` histogram sample, so the
//! trace no longer folds it into the engine's whole-sweep time.

use hxobs::{Json, ObsRecorder};
use hxroute::engines::{Dfsssp, Parx, RoutingEngine, Sssp};
use hxtopo::hyperx::HyperXConfig;
use std::sync::Arc;

#[test]
fn layering_sweeps_emit_their_own_span_and_histogram() {
    let rec = Arc::new(ObsRecorder::new());
    hxobs::install(rec.clone());
    let topo = HyperXConfig::new(vec![4, 4], 2).build();
    let dfsssp = Dfsssp::default().route(&topo).unwrap();
    let parx = Parx::default().route(&topo).unwrap();
    Sssp::default().route(&topo).unwrap(); // no layering, no span
    hxobs::uninstall();

    let doc = Json::parse(&rec.tracer.to_chrome_json()).expect("trace parses");
    let spans: Vec<(String, String, u64)> = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|ev| ev.get("name").and_then(Json::as_str) == Some("vl_assign"))
        .map(|ev| {
            assert_eq!(ev.get("cat").and_then(Json::as_str), Some("route"));
            let args = ev.get("args").unwrap();
            (
                args.get("engine")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
                ev.get("ph").and_then(Json::as_str).unwrap().to_string(),
                args.get("vls").and_then(Json::as_num).unwrap() as u64,
            )
        })
        .collect();
    assert_eq!(
        spans,
        vec![
            ("dfsssp".to_string(), "X".to_string(), dfsssp.num_vls as u64),
            ("parx".to_string(), "X".to_string(), parx.num_vls as u64),
        ]
    );
    for engine in ["dfsssp", "parx"] {
        let h = rec
            .registry
            .histogram(&format!("route.vl_assign_seconds.{engine}"));
        assert_eq!(h.count(), 1, "{engine}");
    }
    assert_eq!(
        rec.registry
            .histogram("route.vl_assign_seconds.sssp")
            .count(),
        0
    );
}
