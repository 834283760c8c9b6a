//! Every named stencil, bit for bit, against a committed fixture.
//!
//! `fixtures/presets.txt` records, for each descriptor of
//! `StencilDescriptor::named()` in order, the elaborated neighborhood
//! (offsets and weight bits), the constant's bits, the FLOP and read
//! accounting, and the three identities other layers key on: the
//! microbench RNG stream (Table 3/4 `Citer` values), the canonical-key
//! token (advisor caches and answer stores) and the content fingerprint.
//! The fixture was generated when the paper stencils were still a
//! hand-written enum table, so it pins that the descriptor presets
//! reproduce that table exactly.

use stencil_core::StencilDescriptor;

/// One fixture line: every pinned field, floats as raw bits.
fn render(d: &StencilDescriptor) -> String {
    let spec = d.spec();
    let neighbors: Vec<String> = spec
        .neighbors
        .iter()
        .map(|n| {
            let [a, b, c] = n.offset;
            format!("{a},{b},{c}:{:08x}", n.weight.to_bits())
        })
        .collect();
    format!(
        "{} rank={} radius={} neighbors={} constant={:08x} extra_flops={} flops={} reads={} stream={:016x} key={} fingerprint={:016x}",
        d.name,
        spec.dim.rank(),
        d.radius,
        neighbors.join(";"),
        spec.constant.to_bits(),
        spec.extra_flops,
        d.flops_per_point(),
        d.reads_per_point(),
        d.rng_stream(),
        d.key_token(),
        d.fingerprint(),
    )
}

#[test]
fn named_stencils_match_the_fixture_bit_for_bit() {
    let fixture = include_str!("fixtures/presets.txt");
    let want: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let named = StencilDescriptor::named();
    let got: Vec<String> = named.iter().map(render).collect();
    assert_eq!(got.len(), want.len(), "one fixture line per named stencil");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
    for d in &named {
        assert_eq!(d.spec().flops_per_point(), d.flops_per_point(), "{d}");
        assert_eq!(d.spec().reads_per_point(), d.reads_per_point(), "{d}");
        assert_eq!(d.spec().order(), d.radius, "{d}");
        for spelling in [d.name.to_lowercase(), d.name.to_uppercase()] {
            assert_eq!(StencilDescriptor::from_name(&spelling).as_ref(), Some(d));
        }
    }
}
