//! Query answers pinned to literals.
//!
//! Every `QueryOutcome` is a pure function of the calibration and the
//! query, so its canonical JSON is fixed bytes. This pins the FNV-1a
//! digest of that JSON for two benchmarks (gzip, integer; ammp, floating
//! point) at every paper node and two `trace_repeats` values. A change to
//! the second pass, the rate kernel, the constant-sink anchoring or the
//! qualification that moves any answer by one ulp fails here.

use ramp_core::{fnv1a_hex, NodeId, QueryEngine, StudyConfig};

/// `(benchmark, node, trace_repeats, FNV-1a of the outcome JSON)`.
const PINNED: [(&str, NodeId, u32, &str); 20] = [
    ("gzip", NodeId::N180, 1, "4dbddd47ebbeb19d"),
    ("gzip", NodeId::N180, 2, "3a80c416cb958e0d"),
    ("gzip", NodeId::N130, 1, "51c29e401b2d6d75"),
    ("gzip", NodeId::N130, 2, "04ab3bd4b89ee50d"),
    ("gzip", NodeId::N90, 1, "40b3001be33eea6f"),
    ("gzip", NodeId::N90, 2, "3cfa98db5ffeb040"),
    ("gzip", NodeId::N65LowV, 1, "1e70dbc1f42e8b0d"),
    ("gzip", NodeId::N65LowV, 2, "aa05d288743411fa"),
    ("gzip", NodeId::N65HighV, 1, "f4644acb935deb6d"),
    ("gzip", NodeId::N65HighV, 2, "21f447a44378a2e8"),
    ("ammp", NodeId::N180, 1, "8db72fe646e70674"),
    ("ammp", NodeId::N180, 2, "a811569827c8a44d"),
    ("ammp", NodeId::N130, 1, "0e0edd10ecd81c48"),
    ("ammp", NodeId::N130, 2, "ca0bd31be1c06e68"),
    ("ammp", NodeId::N90, 1, "8c8750b65a385af7"),
    ("ammp", NodeId::N90, 2, "1abfd68284e47979"),
    ("ammp", NodeId::N65LowV, 1, "3c94c4a20aa732b3"),
    ("ammp", NodeId::N65LowV, 2, "ac70f5c1f100e938"),
    ("ammp", NodeId::N65HighV, 1, "a6643e924751c471"),
    ("ammp", NodeId::N65HighV, 2, "f0f45d0efd83f847"),
];

#[test]
fn query_outcomes_match_pinned_literals() {
    let config = StudyConfig::quick()
        .with_benchmarks(&["gzip", "ammp"])
        .unwrap();
    let engine = QueryEngine::calibrate(&config).unwrap();
    let mut mismatches = Vec::new();
    for (benchmark, node, repeats, pinned) in PINNED {
        let mut query = engine.query(benchmark, node).unwrap();
        query.pipeline.trace_repeats = repeats;
        let outcome = engine.evaluate(&query).unwrap();
        let digest = fnv1a_hex(&serde_json::to_string(&outcome).unwrap());
        if digest != pinned {
            mismatches.push(format!(
                "(\"{benchmark}\", NodeId::{node:?}, {repeats}, \"{digest}\"),"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "query answers moved; actual digests:\n{}",
        mismatches.join("\n")
    );
}
