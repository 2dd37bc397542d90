//! Small helpers over `probe::Json` (the repository's serde-free JSON):
//! the child → parent report, the result line and the output files all
//! go through it.

use probe::Json;

pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
}

pub fn num(v: f64) -> Json {
    Json::Num(v)
}

pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Num).collect())
}

pub fn texts(values: &[String]) -> Json {
    Json::Arr(values.iter().cloned().map(Json::Str).collect())
}

/// 64-bit values travel as hex strings: JSON numbers are doubles.
pub fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

pub fn opt(v: Option<Json>) -> Json {
    v.unwrap_or(Json::Null)
}

pub fn line(json: &Json) -> String {
    let mut out = String::new();
    json.write(&mut out);
    out
}

pub fn get_f64(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number '{key}'"))
}

pub fn get_hex(json: &Json, key: &str) -> Result<Option<u64>, String> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => u64::from_str_radix(s, 16)
            .map(Some)
            .map_err(|e| format!("bad hex '{key}': {e}")),
        Some(_) => Err(format!("'{key}' is not a hex string")),
    }
}

pub fn get_nums(json: &Json, key: &str) -> Result<Vec<f64>, String> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array '{key}'"))?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("'{key}' holds a non-number"))
        })
        .collect()
}

pub fn get_texts(json: &Json, key: &str) -> Result<Vec<String>, String> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array '{key}'"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("'{key}' holds a non-string"))
        })
        .collect()
}

/// The `(key, number)` members of an object member.
pub fn get_map(json: &Json, key: &str) -> Result<Vec<(String, f64)>, String> {
    match json.get(key) {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|v| (k.clone(), v))
                    .ok_or_else(|| format!("'{key}.{k}' is not a number"))
            })
            .collect(),
        _ => Err(format!("missing object '{key}'")),
    }
}
