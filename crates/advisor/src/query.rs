//! Advisory queries: what a client asks the service.
//!
//! Queries arrive as one JSON object per line. The minimal form names a
//! device preset, a stencil, and a problem size:
//!
//! ```json
//! {"id": "q1", "device": "GTX 980", "stencil": "Heat2D",
//!  "size": [4096, 4096], "time": 1024}
//! ```
//!
//! Optional fields: `within` (candidate band around the predicted
//! minimum, default 0.10), `top_n` (ranked candidates returned, default
//! 10), `validate` (run the within-band set on the executor, default
//! false), and `timeout_ms` (per-query deadline; when it expires the
//! answer degrades to the model-only ranking). Instead of a preset name,
//! `device` may be an object with a `"preset"` base and per-field
//! overrides of [`DeviceConfig`], and `stencil` may be an inline
//! [`StencilDescriptor`] object (see [`parse_stencil`]) — the zoo path,
//! where a stencil the repo has never seen flows through the same
//! model, optimizer, and executor as the paper's eight.

use crate::jsonv::{as_bool, as_f64, as_i64, as_map, as_seq, as_str, as_u64, get, kind};
use gpu_sim::{DeviceConfig, Workload};
use serde::Value;
use stencil_core::{Footprint, ProblemSize, StencilDescriptor, StencilDim};

/// One parsed, validated advisory query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Client-chosen identifier, echoed verbatim in the answer. Not part
    /// of the cache key.
    pub id: Option<String>,
    /// The fully-resolved (device, stencil, size) workload the model runs
    /// against — a query deserializes directly into a [`Workload`].
    pub workload: Workload,
    /// Candidate band: keep every point within this fraction of the
    /// predicted `T_alg` minimum (the paper's 10%).
    pub within: f64,
    /// How many ranked candidates to return.
    pub top_n: usize,
    /// Whether to execute the within-band set and report the measured
    /// winner.
    pub validate: bool,
    /// Per-query deadline in milliseconds. `Some(0)` forces immediate
    /// degradation — useful for testing the degraded path.
    pub timeout_ms: Option<u64>,
}

impl Query {
    /// Parse one JSON-lines query.
    pub fn parse_line(line: &str) -> Result<Query, String> {
        let value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
        Query::from_value(&value)
    }

    /// Map a parsed JSON value onto a query.
    pub fn from_value(value: &Value) -> Result<Query, String> {
        let entries = as_map(value, "query")?;
        for (k, _) in entries {
            if !matches!(
                k.as_str(),
                "id" | "device"
                    | "stencil"
                    | "size"
                    | "time"
                    | "within"
                    | "top_n"
                    | "validate"
                    | "timeout_ms"
            ) {
                return Err(format!("unknown query field '{k}'"));
            }
        }
        let id = match get(entries, "id") {
            None | Some(Value::Null) => None,
            Some(v) => Some(as_str(v, "id")?.to_string()),
        };
        let device = parse_device(get(entries, "device").ok_or("missing field 'device'")?)?;
        let stencil = parse_stencil(get(entries, "stencil").ok_or("missing field 'stencil'")?)?;
        let size = parse_size(
            get(entries, "size").ok_or("missing field 'size'")?,
            get(entries, "time").ok_or("missing field 'time'")?,
        )?;
        // The dimensional-consistency check (and the default tile/launch
        // configuration) lives in one place: the Workload constructor.
        let workload = Workload::new(device, stencil, size)?;
        let within = match get(entries, "within") {
            None => 0.10,
            Some(v) => {
                let f = as_f64(v, "within")?;
                if !f.is_finite() || f < 0.0 {
                    return Err(format!("within must be a finite fraction >= 0, got {f}"));
                }
                f
            }
        };
        let top_n = match get(entries, "top_n") {
            None => 10,
            Some(v) => {
                let n = as_u64(v, "top_n")?;
                if n == 0 {
                    return Err("top_n must be >= 1".into());
                }
                n as usize
            }
        };
        let validate = match get(entries, "validate") {
            None => false,
            Some(v) => as_bool(v, "validate")?,
        };
        let timeout_ms = match get(entries, "timeout_ms") {
            None | Some(Value::Null) => None,
            Some(v) => Some(as_u64(v, "timeout_ms")?),
        };
        Ok(Query {
            id,
            workload,
            within,
            top_n,
            validate,
            timeout_ms,
        })
    }
}

/// Resolve the `device` field: a preset name, or an object with a
/// `"preset"` base (default GTX 980) plus per-field overrides.
pub fn parse_device(v: &Value) -> Result<DeviceConfig, String> {
    match v {
        Value::Str(name) => preset(name),
        Value::Map(entries) => {
            let mut dev = match get(entries, "preset") {
                None => DeviceConfig::gtx980(),
                Some(p) => preset(as_str(p, "device.preset")?)?,
            };
            for (key, val) in entries {
                if key != "preset" {
                    apply_override(&mut dev, key, val)?;
                }
            }
            Ok(dev)
        }
        other => Err(format!(
            "device must be a preset name or an object, got {}",
            kind(other)
        )),
    }
}

fn preset(name: &str) -> Result<DeviceConfig, String> {
    DeviceConfig::preset(name).ok_or_else(|| {
        format!(
            "unknown device preset '{name}' (known: {})",
            DeviceConfig::preset_names().join(", ")
        )
    })
}

/// Set one [`DeviceConfig`] field by its JSON name.
fn apply_override(dev: &mut DeviceConfig, key: &str, v: &Value) -> Result<(), String> {
    let u = |v: &Value| as_u64(v, key);
    let f = |v: &Value| {
        let x = as_f64(v, key)?;
        if !x.is_finite() || x < 0.0 {
            return Err(format!("{key} must be a finite number >= 0, got {x}"));
        }
        Ok(x)
    };
    match key {
        "name" => dev.name = as_str(v, key)?.to_string(),
        "n_sm" => dev.n_sm = u(v)? as usize,
        "n_v" => dev.n_v = u(v)? as usize,
        "warp_size" => dev.warp_size = u(v)? as usize,
        "shared_banks" => dev.shared_banks = u(v)? as usize,
        "shared_mem_words" => dev.shared_mem_words = u(v)?,
        "shared_per_block_words" => dev.shared_per_block_words = u(v)?,
        "regs_per_sm" => dev.regs_per_sm = u(v)?,
        "max_regs_per_thread" => dev.max_regs_per_thread = u(v)? as u32,
        "reg_alloc_target" => dev.reg_alloc_target = u(v)? as u32,
        "max_blocks_per_sm" => dev.max_blocks_per_sm = u(v)? as usize,
        "max_threads_per_sm" => dev.max_threads_per_sm = u(v)? as usize,
        "max_threads_per_block" => dev.max_threads_per_block = u(v)? as usize,
        "word_time" => dev.word_time = f(v)?,
        "mem_latency" => dev.mem_latency = f(v)?,
        "tau_sync" => dev.tau_sync = f(v)?,
        "t_launch" => dev.t_launch = f(v)?,
        "op_time" => dev.op_time = f(v)?,
        "shared_access_time" => dev.shared_access_time = f(v)?,
        "spill_coeff" => dev.spill_coeff = f(v)?,
        other => return Err(format!("unknown device field '{other}'")),
    }
    Ok(())
}

/// Resolve the `stencil` field: a named descriptor (the eight paper
/// presets plus the zoo, case-insensitive), or an inline descriptor
/// object:
///
/// ```json
/// {"name": "mystencil", "dim": 2, "radius": 2, "footprint": "star",
///  "coefficients": [0.8, 0.05, 0.0125, 0.05, 0.0125, 0.05, 0.0125, 0.05, 0.0125],
///  "constant": 0.0, "extra_flops": 0}
/// ```
///
/// `footprint` is `"star"` (default) or `"box"`; a custom footprint
/// instead supplies `"offsets": [[dx, …], …]` — one offset per
/// coefficient, in coefficient order. Validation (rank/radius bounds,
/// coefficient-count vs footprint, duplicate offsets) happens in
/// [`StencilDescriptor::new`], so inline descriptors are held to the
/// same rules as built-ins.
pub fn parse_stencil(v: &Value) -> Result<StencilDescriptor, String> {
    match v {
        Value::Str(name) => StencilDescriptor::from_name(name).ok_or_else(|| {
            format!(
                "unknown stencil '{name}' (known: {}); or pass an inline descriptor object",
                StencilDescriptor::named()
                    .iter()
                    .map(|d| d.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }),
        Value::Map(entries) => parse_inline_stencil(entries),
        other => Err(format!(
            "stencil must be a name or a descriptor object, got {}",
            kind(other)
        )),
    }
}

fn parse_inline_stencil(entries: &[(String, Value)]) -> Result<StencilDescriptor, String> {
    for (k, _) in entries {
        if !matches!(
            k.as_str(),
            "name"
                | "dim"
                | "radius"
                | "footprint"
                | "offsets"
                | "coefficients"
                | "constant"
                | "extra_flops"
        ) {
            return Err(format!("unknown stencil field '{k}'"));
        }
    }
    let name = as_str(
        get(entries, "name").ok_or("missing stencil field 'name'")?,
        "stencil.name",
    )?
    .to_string();
    let dim = match as_u64(
        get(entries, "dim").ok_or("missing stencil field 'dim'")?,
        "stencil.dim",
    )? {
        1 => StencilDim::D1,
        2 => StencilDim::D2,
        3 => StencilDim::D3,
        d => return Err(format!("stencil.dim must be 1, 2, or 3, got {d}")),
    };
    let radius = match get(entries, "radius") {
        None => 1,
        Some(v) => as_i64(v, "stencil.radius")?,
    };
    let footprint = match (get(entries, "footprint"), get(entries, "offsets")) {
        (Some(_), Some(_)) => {
            return Err("stencil cannot have both 'footprint' and 'offsets'".into());
        }
        (None, None) => Footprint::Star,
        (Some(f), None) => match as_str(f, "stencil.footprint")? {
            "star" => Footprint::Star,
            "box" => Footprint::Box,
            other => {
                return Err(format!(
                    "stencil.footprint must be 'star' or 'box' (use 'offsets' for a custom \
                     footprint), got '{other}'"
                ));
            }
        },
        (None, Some(offs)) => {
            let rank = dim.rank();
            let mut out = Vec::new();
            for (i, o) in as_seq(offs, "stencil.offsets")?.iter().enumerate() {
                let coords = as_seq(o, "stencil offset")?;
                if coords.len() != rank {
                    return Err(format!(
                        "stencil offset #{i} has {} coordinates; a {rank}D stencil needs {rank}",
                        coords.len()
                    ));
                }
                let mut point = [0i64; 3];
                for (slot, c) in point.iter_mut().zip(coords) {
                    *slot = as_i64(c, "stencil offset coordinate")?;
                }
                out.push(point);
            }
            Footprint::Custom(out)
        }
    };
    let coeffs_v = get(entries, "coefficients").ok_or("missing stencil field 'coefficients'")?;
    let mut coefficients = Vec::new();
    for c in as_seq(coeffs_v, "stencil.coefficients")? {
        coefficients.push(as_f64(c, "stencil coefficient")? as f32);
    }
    let constant = match get(entries, "constant") {
        None => 0.0,
        Some(v) => as_f64(v, "stencil.constant")? as f32,
    };
    let extra_flops = match get(entries, "extra_flops") {
        None => 0,
        Some(v) => {
            let n = as_u64(v, "stencil.extra_flops")?;
            u32::try_from(n).map_err(|_| format!("stencil.extra_flops too large: {n}"))?
        }
    };
    StencilDescriptor::new(
        name,
        dim,
        radius,
        footprint,
        coefficients,
        constant,
        extra_flops,
    )
    .map_err(|e| format!("invalid stencil descriptor: {e}"))
}

fn parse_size(size: &Value, time: &Value) -> Result<ProblemSize, String> {
    let items = as_seq(size, "size")?;
    let mut s = Vec::with_capacity(items.len());
    for v in items {
        let e = as_u64(v, "size element")?;
        if e == 0 {
            return Err("size extents must be >= 1".into());
        }
        s.push(e as usize);
    }
    let t = as_u64(time, "time")? as usize;
    if t == 0 {
        return Err("time must be >= 1".into());
    }
    ProblemSize::from_extents(&s, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_query_gets_documented_defaults() {
        let q = Query::parse_line(
            r#"{"device": "gtx980", "stencil": "heat2d", "size": [512, 512], "time": 64}"#,
        )
        .unwrap();
        assert_eq!(q.id, None);
        assert_eq!(q.workload.device.name, "GTX 980");
        assert_eq!(q.workload.stencil, StencilDescriptor::heat2d());
        assert_eq!(q.workload.size, ProblemSize::new_2d(512, 512, 64));
        assert!(q.workload.validate().is_ok());
        assert_eq!(q.within, 0.10);
        assert_eq!(q.top_n, 10);
        assert!(!q.validate);
        assert_eq!(q.timeout_ms, None);
    }

    #[test]
    fn custom_device_overrides_apply_over_the_preset() {
        let q = Query::parse_line(
            r#"{"device": {"preset": "Titan X", "n_sm": 20, "word_time": 1e-10},
                "stencil": "Jacobi2D", "size": [256, 256], "time": 32}"#,
        )
        .unwrap();
        assert_eq!(q.workload.device.name, "Titan X");
        assert_eq!(q.workload.device.n_sm, 20);
        assert_eq!(q.workload.device.word_time, 1e-10);
        // Untouched fields keep the preset's values.
        assert_eq!(q.workload.device.n_v, DeviceConfig::titan_x().n_v);
    }

    #[test]
    fn dimension_mismatch_and_typos_are_rejected() {
        let err = Query::parse_line(
            r#"{"device": "GTX 980", "stencil": "Heat3D", "size": [256, 256], "time": 32}"#,
        )
        .unwrap_err();
        assert!(err.contains("3-dimensional"), "{err}");
        let err = Query::parse_line(
            r#"{"device": "GTX 980", "stencil": "Heat2D", "size": [256, 256], "time": 32,
                "topn": 5}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown query field 'topn'"), "{err}");
        let err = Query::parse_line(
            r#"{"device": "Voodoo2", "stencil": "Heat2D", "size": [256, 256], "time": 32}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown device preset"), "{err}");
    }

    #[test]
    fn zoo_stencils_resolve_by_name() {
        let q = Query::parse_line(
            r#"{"device": "gtx980", "stencil": "lap4_2d", "size": [512, 512], "time": 64}"#,
        )
        .unwrap();
        assert_eq!(q.workload.stencil, StencilDescriptor::lap4_2d());
    }

    #[test]
    fn inline_descriptor_parses_and_matches_builtin() {
        // An inline spelling of the built-in Lap4_2D must collapse onto
        // the same fingerprint (one micro-benchmark, one cache segment).
        // `{:?}` on f32 prints the shortest round-tripping literal, so
        // JSON's f64 reading casts back to the identical bits.
        let zoo = StencilDescriptor::lap4_2d();
        let coeffs = zoo
            .coefficients
            .iter()
            .map(|c| format!("{c:?}"))
            .collect::<Vec<_>>()
            .join(", ");
        let line = format!(
            r#"{{"device": "gtx980",
                "stencil": {{"name": "Lap4_2D", "dim": 2, "radius": 2, "footprint": "star",
                            "coefficients": [{coeffs}]}},
                "size": [512, 512], "time": 64}}"#
        );
        let q = Query::parse_line(&line).unwrap();
        assert_eq!(q.workload.stencil.dim, StencilDim::D2);
        assert_eq!(q.workload.stencil.radius, 2);
        assert_eq!(q.workload.stencil.fingerprint(), zoo.fingerprint());
    }

    #[test]
    fn inline_descriptor_with_custom_offsets() {
        let q = Query::parse_line(
            r#"{"device": "gtx980",
                "stencil": {"name": "slash3", "dim": 2, "radius": 1,
                            "offsets": [[0, 0], [-1, -1], [1, 1]],
                            "coefficients": [0.5, 0.25, 0.25]},
                "size": [256, 256], "time": 16}"#,
        )
        .unwrap();
        assert_eq!(q.workload.stencil.coefficients.len(), 3);
        assert!(q.workload.validate().is_ok());
    }

    #[test]
    fn malformed_inline_descriptors_are_rejected() {
        // Coefficient count must match the footprint.
        let err = Query::parse_line(
            r#"{"device": "gtx980",
                "stencil": {"name": "bad", "dim": 2, "radius": 2,
                            "coefficients": [1.0, 2.0]},
                "size": [512, 512], "time": 64}"#,
        )
        .unwrap_err();
        assert!(err.contains("invalid stencil descriptor"), "{err}");
        // Radius outside the supported range.
        let err = Query::parse_line(
            r#"{"device": "gtx980",
                "stencil": {"name": "bad", "dim": 1, "radius": 99,
                            "coefficients": [1.0]},
                "size": [512], "time": 64}"#,
        )
        .unwrap_err();
        assert!(err.contains("radius"), "{err}");
        // Rank mismatch between descriptor and problem size.
        let err = Query::parse_line(
            r#"{"device": "gtx980",
                "stencil": {"name": "ok1d", "dim": 1, "radius": 1,
                            "coefficients": [0.4, 0.3, 0.3]},
                "size": [512, 512], "time": 64}"#,
        )
        .unwrap_err();
        assert!(!err.is_empty());
        // Unknown fields and bad footprints name themselves.
        let err = Query::parse_line(
            r#"{"device": "gtx980",
                "stencil": {"name": "bad", "dim": 2, "radius": 1, "shape": "star",
                            "coefficients": [1.0]},
                "size": [512, 512], "time": 64}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown stencil field 'shape'"), "{err}");
        let err = Query::parse_line(
            r#"{"device": "gtx980",
                "stencil": {"name": "bad", "dim": 2, "footprint": "hexagon",
                            "coefficients": [1.0]},
                "size": [512, 512], "time": 64}"#,
        )
        .unwrap_err();
        assert!(err.contains("'star' or 'box'"), "{err}");
    }

    #[test]
    fn extreme_inline_values_are_errors_not_panics() {
        let inline = |stencil: &str| {
            Query::parse_line(&format!(
                r#"{{"device": "gtx980", "stencil": {stencil}, "size": [512], "time": 64}}"#
            ))
            .unwrap_err()
        };
        // Negating i64::MIN overflows; validation must not negate it.
        let err = inline(
            r#"{"name": "far", "dim": 1, "offsets": [[-9223372036854775808]],
                "coefficients": [1.0]}"#,
        );
        assert!(err.contains("invalid stencil descriptor"), "{err}");
        // Finite as f64, infinite once stored as f32.
        let err = inline(r#"{"name": "huge", "dim": 1, "coefficients": [0.5, 1e39, 0.5]}"#);
        assert!(err.contains("coefficient #1 is inf"), "{err}");
        let err = inline(
            r#"{"name": "huge", "dim": 1, "coefficients": [0.5, 0.25, 0.25], "constant": -1e39}"#,
        );
        assert!(err.contains("constant is -inf"), "{err}");
    }
}
