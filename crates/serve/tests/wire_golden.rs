//! Byte-level golden of one fully explained response line.
//!
//! The response carries ensemble evidence, three explained routes with
//! hop provenance, stage timings and a trace id, plus the float shapes
//! the encoder must keep stable: integral values (`2`), `-0`, values
//! needing 17 significant digits, and a non-finite score (`null`). The
//! fixture pins the wire format: a change to any byte of it fails here.

use manet_sim::NodeId;
use sam::{DetectorEvidence, DetectorVote, Explanation, HopProvenance, RouteExplanation};
use sam_serve::request::{StageTiming, Verdict};
use sam_serve::wire::WireResponse;

const GOLDEN: &str = include_str!("golden/explained_response.jsonl");

fn hops(nodes: &[u32], tunnel_at: Option<usize>) -> Vec<HopProvenance> {
    nodes
        .windows(2)
        .enumerate()
        .map(|(i, w)| HopProvenance {
            from: w[0],
            to: w[1],
            tunneled: tunnel_at == Some(i),
            event: tunnel_at.map(|_| 40 + i as u64),
            cause: tunnel_at.and_then(|_| i.checked_sub(1).map(|c| 40 + c as u64)),
        })
        .collect()
}

fn route(nodes: &[u32], tunnel_at: Option<usize>, p_max: f64, delta: f64) -> RouteExplanation {
    let hops = hops(nodes, tunnel_at);
    RouteExplanation {
        nodes: nodes.to_vec(),
        tunnel_hops: hops.iter().filter(|h| h.tunneled).count() as u64,
        lineage_depth: if tunnel_at.is_some() {
            hops.len() as u64 + 1
        } else {
            0
        },
        hops,
        p_max_contribution: p_max,
        delta_contribution: delta,
    }
}

fn explained_response() -> WireResponse {
    let votes = vec![
        DetectorVote {
            detector: "sam".to_string(),
            anomalous: true,
            score: 2.0,
            weight: 1.0,
        },
        DetectorVote {
            detector: "zscore".to_string(),
            anomalous: false,
            score: 0.30000000000000004,
            weight: 0.5,
        },
        DetectorVote {
            detector: "geometric".to_string(),
            anomalous: false,
            score: f64::NAN,
            weight: 0.0,
        },
    ];
    let routes = vec![
        route(&[0, 3, 7, 8, 11], Some(2), 0.023809523809523808, 0.1),
        route(&[0, 4, 7, 8, 12, 11], Some(2), 0.019230769230769232, -0.0),
        route(&[1, 7, 8, 11], None, 1e-7, 1e21),
    ];
    let explanation = Explanation {
        kind: "explanation".to_string(),
        detector: "ensemble".to_string(),
        score: 1.3333333333333333,
        evidence: Some(DetectorEvidence::Ensemble { votes }),
        suspect_link: Some((7, 8)),
        suspect_count: 3,
        total_links: 14,
        p_max: 0.21428571428571427,
        delta: 0.14285714285714285,
        z_p_max: 9.123456789,
        z_delta: -0.5,
        lambda: 0.0012,
        anomalous: true,
        tunnel_traversals: 2,
        routes,
    };
    let mut resp = WireResponse::ok_empty();
    resp.id = 18446744073709551615;
    resp.detector = Some("ensemble".to_string());
    resp.score = Some(1.3333333333333333);
    resp.verdict = Some(Verdict {
        anomalous: true,
        confirmed: true,
        lambda: 0.0012,
        p_max: 0.21428571428571427,
        delta: 0.14285714285714285,
        suspect_link: Some((NodeId(7), NodeId(8))),
        isolate: vec![NodeId(7), NodeId(8)],
    });
    resp.profile_cache_hit = Some(false);
    resp.explanation = Some(explanation);
    resp.timings = Some(StageTiming {
        queue_wait_us: 12,
        compute_us: 345,
        serialize_us: 0,
    });
    resp.with_trace("000000000000002a000000000000007b")
}

#[test]
fn explained_response_encodes_byte_for_byte() {
    let line = explained_response().encode();
    assert_eq!(line, GOLDEN.trim_end_matches('\n'));
}

#[test]
fn golden_line_decodes_and_re_encodes_identically() {
    let line = GOLDEN.trim_end_matches('\n');
    let back = WireResponse::decode(line.as_bytes()).unwrap();
    assert_eq!(back.encode(), line);
    let ex = back.explanation.expect("explanation decoded");
    assert_eq!(ex.routes.len(), 3);
    assert!(
        matches!(ex.evidence, Some(DetectorEvidence::Ensemble { ref votes }) if votes.len() == 3)
    );
}
