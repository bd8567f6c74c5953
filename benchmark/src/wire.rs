//! The generator's side of the `infer` wire: how a request's tensor is
//! written and how a reply's logits are read.
//!
//! These two are the benchmark's own and never go through the program's
//! JSON codec: the oracle compares replies bit for bit, so a codec change
//! that loses a digit on both the way out and the way back must not be
//! able to hide from it. Everything else the benchmark reads or writes
//! as JSON (records, traces, checkpoints) uses the program's codec.

use std::fmt::Write as _;

/// Encodes `{"shape":[..],"data":[..]}`, the wire form of a tensor. Each
/// value is written as the program's own clients write it: widened to
/// `f64` and printed with Rust's `{}`, the shortest decimal that reads
/// back to the same bits (about 20 characters a value).
pub fn tensor_json(shape: &[usize], data: &[f32]) -> String {
    let mut out = String::with_capacity(24 + data.len() * 20);
    out.push_str("{\"shape\":[");
    for (i, d) in shape.iter().enumerate() {
        let _ = write!(out, "{}{d}", if i > 0 { "," } else { "" });
    }
    out.push_str("],\"data\":[");
    for (i, v) in data.iter().enumerate() {
        let _ = write!(out, "{}{}", if i > 0 { "," } else { "" }, f64::from(*v));
    }
    out.push_str("]}");
    out
}

/// The logits of a successful `infer` reply: the numbers of the `data`
/// array inside its `output` object. `None` unless the body says
/// `"ok":true` and the array is well-formed. A `null` entry (how the
/// server writes a non-finite value) reads as NaN, so the caller's
/// comparison fails instead of the parse.
pub fn reply_logits(body: &str) -> Option<Vec<f32>> {
    // layout is not part of the wire: compact or pretty must read alike
    let body: String = body.chars().filter(|c| !c.is_ascii_whitespace()).collect();
    if !body.contains("\"ok\":true") {
        return None;
    }
    let output = &body[body.find("\"output\":")?..];
    let data = &output[output.find("\"data\":[")? + "\"data\":[".len()..];
    let data = &data[..data.find(']')?];
    data.split(',')
        .map(|entry| match entry {
            "null" => Some(f32::NAN),
            number => number.parse::<f32>().ok(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_values_survive_the_wire_bit_for_bit() {
        let data: Vec<f32> = vec![
            0.1,
            -1.0e-7,
            3.4028235e38,
            1.1754944e-38,
            1.0e-45,
            -0.0,
            16777217.0,
            0.333_333_34,
        ];
        let text = tensor_json(&[2, 4], &data);
        assert!(text.starts_with("{\"shape\":[2,4],\"data\":[0.10000000149011612,-0.0000001"));
        let reply = format!("{{\"ok\":true,\"model\":\"m0\",\"output\":{text},\"trace\":\"t\"}}");
        let back = reply_logits(&reply).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // the program's decoder reads the same request
        let tensor = crate::surface::Json::parse(&text).unwrap();
        assert_eq!(tensor.get("data").unwrap().as_arr().unwrap().len(), 8);
    }

    #[test]
    fn only_a_well_formed_success_has_logits() {
        let ok = r#"{"ok": true, "output": {"shape": [1, 2], "data": [1.5, null]}}"#;
        let logits = reply_logits(ok).unwrap();
        assert_eq!(logits[0], 1.5);
        assert!(logits[1].is_nan(), "null reads as NaN");
        for bad in [
            r#"{"ok":false,"error":{"code":"busy"}}"#,
            r#"{"ok":true}"#,
            r#"{"ok":true,"output":{"shape":[1,2]}}"#,
            r#"{"ok":true,"output":{"shape":[1,2],"data":[1.5,"#,
            r#"{"ok":true,"output":{"shape":[1,2],"data":[1.5,x]}}"#,
            r#"{"ok":true,"output":{"shape":[0],"data":[]}}"#,
        ] {
            assert!(reply_logits(bad).is_none(), "{bad}");
        }
    }
}
