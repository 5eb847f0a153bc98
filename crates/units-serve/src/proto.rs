//! The wire protocol: length-prefixed JSON frames and the request /
//! response vocabulary.
//!
//! Every message is one frame: a 4-byte big-endian length followed by
//! that many bytes of UTF-8 JSON. Requests are objects tagged with an
//! `"op"` field; responses carry `"ok": true` plus op-specific fields,
//! or `"ok": false` with a machine-readable `"kind"` (the
//! [`crate::ServeError::kind`] vocabulary, plus the transport's own
//! `"bad-request"` and `"no-tenant"`) and a human `"message"`.
//!
//! | op         | request fields                              | ok-response fields                   |
//! |------------|---------------------------------------------|--------------------------------------|
//! | `hello`    | `tenant`                                    | `tenant`                             |
//! | `load`     | `name`, `source`, `sig?`                    | `name`, `version`                    |
//! | `swap`     | `name`, `source`, `sig?`                    | `name`, `version`                    |
//! | `invoke`   | `name`, `arg?`, `fuel?`, `depth?`, `cells?` | `value`, `output`                    |
//! | `run`      | `source`, `fuel?`, `depth?`, `cells?`       | `value`, `output`                    |
//! | `stats`    | —                                           | `tenants`, `engine`, `idle_timeouts` |
//! | `shutdown` | —                                           | `stopping`                           |
//!
//! A `stats` reply's `engine` object is the engine's metrics snapshot
//! (`units::MetricsSnapshot::to_json`), and `idle_timeouts` counts the
//! connections closed for sitting idle.
//!
//! The optional `fuel` / `depth` / `cells` fields form the per-request
//! [`Limits`]; admission control compares them against the tenant's cap.

use std::io::{self, Read, Write};

use units::Limits;

use crate::json::Json;

/// The largest frame either side will accept. A frame claiming more
/// is a protocol error, not an allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Writes `value` as one frame.
///
/// # Errors
///
/// Propagates I/O errors; refuses a body larger than [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, value: &Json) -> io::Result<()> {
    let body = value.render();
    let len = u32::try_from(body.len()).unwrap_or(u32::MAX);
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end of stream (EOF before
/// any length byte); everything else malformed is an error.
///
/// # Errors
///
/// I/O errors, oversized frames, invalid UTF-8, or invalid JSON.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    crate::json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Bind this connection to a tenant.
    Hello {
        /// The tenant name.
        tenant: String,
    },
    /// Publish a new plug-in.
    Load {
        /// The plug-in name.
        name: String,
        /// The unit source.
        source: String,
        /// An optional signature to dynamically link against.
        sig: Option<String>,
    },
    /// Hot-swap an existing plug-in.
    Swap {
        /// The plug-in name.
        name: String,
        /// The replacement unit source.
        source: String,
        /// An optional signature to dynamically link against.
        sig: Option<String>,
    },
    /// Invoke a plug-in.
    Invoke {
        /// The plug-in name.
        name: String,
        /// An optional integer argument for the invoke result.
        arg: Option<i64>,
        /// The per-request budget (admission-checked).
        limits: Limits,
    },
    /// Run a raw program.
    Run {
        /// The program source.
        source: String,
        /// The per-request budget (admission-checked).
        limits: Limits,
    },
    /// Report every tenant's counters.
    Stats,
    /// Stop the server.
    Shutdown,
}

impl Request {
    /// Decodes a request frame. An optional field may be absent; when
    /// present it must have its documented type, so a mistyped field is
    /// refused rather than read as absent.
    ///
    /// # Errors
    ///
    /// A human-readable description of what is missing or mistyped,
    /// naming the field.
    pub fn from_json(value: &Json) -> Result<Request, String> {
        let op = value.get_str("op").ok_or_else(|| "missing string field `op`".to_string())?;
        let need = |field: &str| {
            value
                .get_str(field)
                .map(str::to_string)
                .ok_or_else(|| format!("op `{op}` needs string field `{field}`"))
        };
        let opt_sig = || match value.get("sig") {
            None => Ok(None),
            Some(Json::Str(sig)) => Ok(Some(sig.clone())),
            Some(_) => Err("field `sig` must be a string".to_string()),
        };
        let opt_int = |field: &str, expected: &str| match value.get(field) {
            None => Ok(None),
            Some(Json::Int(n)) => Ok(Some(*n)),
            Some(_) => Err(format!("field `{field}` must be {expected}")),
        };
        let limits = || {
            let mut limits = Limits::none();
            for (field, slot) in [
                ("fuel", &mut limits.fuel),
                ("depth", &mut limits.max_depth),
                ("cells", &mut limits.max_store_cells),
            ] {
                let expected = "a non-negative integer";
                if let Some(n) = opt_int(field, expected)? {
                    *slot = Some(
                        u64::try_from(n)
                            .map_err(|_| format!("field `{field}` must be {expected}"))?,
                    );
                }
            }
            Ok::<Limits, String>(limits)
        };
        match op {
            "hello" => Ok(Request::Hello { tenant: need("tenant")? }),
            "load" => {
                Ok(Request::Load { name: need("name")?, source: need("source")?, sig: opt_sig()? })
            }
            "swap" => {
                Ok(Request::Swap { name: need("name")?, source: need("source")?, sig: opt_sig()? })
            }
            "invoke" => Ok(Request::Invoke {
                name: need("name")?,
                arg: opt_int("arg", "an integer")?,
                limits: limits()?,
            }),
            "run" => Ok(Request::Run { source: need("source")?, limits: limits()? }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Encodes this request as a frame body — the client half.
    pub fn to_json(&self) -> Json {
        let limits_fields = |limits: &Limits, obj: &mut Vec<(&'static str, Json)>| {
            if let Some(fuel) = limits.fuel {
                obj.push(("fuel", Json::Int(fuel as i64)));
            }
            if let Some(depth) = limits.max_depth {
                obj.push(("depth", Json::Int(depth as i64)));
            }
            if let Some(cells) = limits.max_store_cells {
                obj.push(("cells", Json::Int(cells as i64)));
            }
        };
        match self {
            Request::Hello { tenant } => {
                Json::obj([("op", Json::str("hello")), ("tenant", Json::str(tenant.clone()))])
            }
            Request::Load { name, source, sig } | Request::Swap { name, source, sig } => {
                let op = if matches!(self, Request::Load { .. }) { "load" } else { "swap" };
                let mut fields = vec![
                    ("op", Json::str(op)),
                    ("name", Json::str(name.clone())),
                    ("source", Json::str(source.clone())),
                ];
                if let Some(sig) = sig {
                    fields.push(("sig", Json::str(sig.clone())));
                }
                Json::obj(fields)
            }
            Request::Invoke { name, arg, limits } => {
                let mut fields =
                    vec![("op", Json::str("invoke")), ("name", Json::str(name.clone()))];
                if let Some(arg) = arg {
                    fields.push(("arg", Json::Int(*arg)));
                }
                limits_fields(limits, &mut fields);
                Json::obj(fields)
            }
            Request::Run { source, limits } => {
                let mut fields =
                    vec![("op", Json::str("run")), ("source", Json::str(source.clone()))];
                limits_fields(limits, &mut fields);
                Json::obj(fields)
            }
            Request::Stats => Json::obj([("op", Json::str("stats"))]),
            Request::Shutdown => Json::obj([("op", Json::str("shutdown"))]),
        }
    }
}

/// Builds an `"ok": true` response with `fields` merged in.
pub fn ok_response(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    Json::obj(all)
}

/// Builds an `"ok": false` response carrying `kind` and `message`.
pub fn error_response(kind: &str, message: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("kind", Json::str(kind)),
        ("message", Json::str(message)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let value = Request::Invoke {
            name: "sq".to_string(),
            arg: Some(9),
            limits: Limits::none().fuel(1000),
        }
        .to_json();
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &value).unwrap();
        write_frame(&mut buffer, &Json::Null).unwrap();
        let mut reader = buffer.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap(), Some(value));
        assert_eq!(read_frame(&mut reader).unwrap(), Some(Json::Null));
        assert_eq!(read_frame(&mut reader).unwrap(), None, "clean EOF reads as None");
    }

    #[test]
    fn requests_survive_an_encode_decode_round_trip() {
        let cases = [
            Request::Hello { tenant: "a".to_string() },
            Request::Load { name: "p".to_string(), source: "(unit …)".to_string(), sig: None },
            Request::Swap {
                name: "p".to_string(),
                source: "(unit …)".to_string(),
                sig: Some("(sig …)".to_string()),
            },
            Request::Invoke {
                name: "p".to_string(),
                arg: None,
                limits: Limits::none().max_depth(64).max_store_cells(10),
            },
            Request::Run { source: "(invoke …)".to_string(), limits: Limits::none() },
            Request::Stats,
            Request::Shutdown,
        ];
        for request in cases {
            let decoded = Request::from_json(&request.to_json()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn malformed_requests_are_described_not_crashed() {
        let bad = [
            (r#"{"tenant":"a"}"#, "op"),
            (r#"{"op":"teleport"}"#, "unknown op"),
            (r#"{"op":"load","name":"p"}"#, "source"),
            (r#"{"op":"invoke","name":"p","fuel":-1}"#, "non-negative"),
            // Present but mistyped optional fields are refused, not
            // silently read as absent.
            (r#"{"op":"invoke","name":"p","arg":"7"}"#, "field `arg` must be an integer"),
            (r#"{"op":"invoke","name":"p","arg":7.5}"#, "field `arg`"),
            (r#"{"op":"invoke","name":"p","arg":null}"#, "field `arg`"),
            // An integer too large for i64 parses as a float: refused
            // as a mistyped field, not dropped as an unreadable frame.
            (r#"{"op":"invoke","name":"p","arg":100000000000000000000}"#, "field `arg`"),
            (r#"{"op":"load","name":"p","source":"(unit)","sig":5}"#, "field `sig`"),
            (r#"{"op":"swap","name":"p","source":"(unit)","sig":["s"]}"#, "field `sig`"),
            (r#"{"op":"invoke","name":"p","fuel":"10"}"#, "field `fuel`"),
            (r#"{"op":"invoke","name":"p","fuel":1.5}"#, "field `fuel`"),
            (r#"{"op":"invoke","name":"p","fuel":true}"#, "field `fuel`"),
            (r#"{"op":"run","source":"(+ 1 2)","depth":"64"}"#, "field `depth`"),
            (r#"{"op":"invoke","name":"p","cells":{}}"#, "field `cells`"),
        ];
        for (src, needle) in bad {
            let value = crate::json::parse(src).unwrap();
            let err = Request::from_json(&value).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn oversized_frames_are_refused_without_allocating() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let err = read_frame(&mut buffer.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
