//! Canonical cache keys, byte for byte, against a committed fixture.
//!
//! Answer-store files are keyed by these exact strings, so a change to
//! how a key is built (or to the device or stencil fingerprints inside
//! it) orphans every persisted store. `fixtures/canonical_keys.txt`
//! holds one case per line, three tab-separated fields: the advisor's
//! `citer_scale`, the JSON query, and the key it must produce. The
//! cases cover both device presets, device objects with overrides, an
//! inline stencil, a 3D and a radius-2 stencil, a validated query, and
//! an armed `citer_scale` (the only case whose key carries `fi=`).

use advisor::{Advisor, AdvisorConfig, Query};

#[test]
fn canonical_keys_match_the_fixture_byte_for_byte() {
    let fixture = include_str!("fixtures/canonical_keys.txt");
    let cases: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(cases.len() >= 8, "{} cases", cases.len());
    for case in cases {
        let mut fields = case.split('\t');
        let (Some(scale), Some(query), Some(want), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            panic!("malformed fixture line: {case}");
        };
        let advisor = Advisor::new(AdvisorConfig {
            citer_scale: scale.parse().expect("citer_scale parses"),
            ..AdvisorConfig::default()
        });
        let q = Query::parse_line(query).expect("fixture query parses");
        // Twice: a key computed from warm per-advisor state must equal
        // the first one.
        assert_eq!(advisor.canonical_key(&q), want, "{query}");
        assert_eq!(advisor.canonical_key(&q), want, "{query} (second call)");
    }
}
