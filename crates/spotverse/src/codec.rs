//! Typed field codecs for the JSON this crate writes: the trace JSONL
//! (`trace_schema!` in `trace.rs`), which `replay` reads back, and the
//! `analyse --output json` document (`replay/views.rs`,
//! `replay/analytics.rs`).
//!
//! [`Codec`] says how one Rust type is written and read back; [`Field`]
//! places a value under a key, leaving `None` out. [`object_codec!`] and
//! [`array_codec!`] derive both directions for a struct from one list of
//! its fields; their expansions name every field without `..`, so a field
//! missing from the list fails to compile. Parsing and string escaping go
//! through `sim_kernel::json`.

use std::fmt::Write as _;
use std::str::FromStr;

use cloud_compute::InstanceId;
use cloud_market::Region;
use sim_kernel::json::{push_json_str, Fields, JsonVal};
use sim_kernel::{SimDuration, SimTime};

use crate::fleet::Priority;
use crate::health::BreakerState;
use crate::optimizer::{CandidateOutcome, CandidateVerdict, Placement};
use crate::trace::{ChaosFaultKind, DecisionKind};

/// How one type is written as JSON text and read back from a parsed value.
pub(crate) trait Codec: Sized {
    fn put(&self, out: &mut String);
    fn take(v: JsonVal<'_>) -> Result<Self, String>;
}

/// A value under a key: `,"key":value`. An `Option` is left out when
/// `None` and read back as `None` when absent.
pub(crate) trait Field: Sized {
    /// Appends `prefix` (`,"key":`) and the value.
    fn put_field(&self, prefix: &str, out: &mut String);
    fn take_field(fields: &mut Fields<'_>, key: &str) -> Result<Self, String>;
}

impl<T: Codec> Field for T {
    #[inline]
    fn put_field(&self, prefix: &str, out: &mut String) {
        out.push_str(prefix);
        self.put(out);
    }

    #[inline]
    fn take_field(fields: &mut Fields<'_>, key: &str) -> Result<Self, String> {
        T::take(fields.require(key)?).map_err(|e| format!("`{key}`: {e}"))
    }
}

impl<T: Codec> Field for Option<T> {
    #[inline]
    fn put_field(&self, prefix: &str, out: &mut String) {
        if let Some(value) = self {
            value.put_field(prefix, out);
        }
    }

    #[inline]
    fn take_field(fields: &mut Fields<'_>, key: &str) -> Result<Self, String> {
        fields.take(key).map(T::take).transpose().map_err(|e| format!("`{key}`: {e}"))
    }
}

/// Writes `items` — each appended with a leading `,` — between `open` and
/// `close`: the first item's `,` becomes `open`.
pub(crate) fn put_delimited(
    out: &mut String,
    open: &str,
    close: char,
    items: impl FnOnce(&mut String),
) {
    let start = out.len();
    items(out);
    if out.len() == start {
        out.push_str(open);
    } else {
        out.replace_range(start..=start, open);
    }
    out.push(close);
}

/// Appends `n` in decimal.
pub(crate) fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// An unsigned integer that must fit `T`.
fn uint<T: TryFrom<u64>>(v: &JsonVal<'_>) -> Result<T, String> {
    let n = v.as_u64()?;
    T::try_from(n).map_err(|_| format!("`{n}` exceeds {}", std::any::type_name::<T>()))
}

fn region(name: &str) -> Result<Region, String> {
    Region::from_str(name).map_err(|_| format!("unknown region `{name}`"))
}

fn instance_id(s: &str) -> Result<InstanceId, String> {
    let hex = s
        .strip_prefix("i-")
        .ok_or_else(|| format!("instance id `{s}` does not start with `i-`"))?;
    u64::from_str_radix(hex, 16)
        .map(InstanceId::from_raw)
        .map_err(|_| format!("instance id `{s}` is not hex"))
}

fn placement(s: &str) -> Result<Placement, String> {
    match s.split_once(':') {
        Some(("spot", name)) => region(name).map(Placement::Spot),
        Some(("od", name)) => region(name).map(Placement::OnDemand),
        _ => Err(format!("placement `{s}` is neither `spot:<region>` nor `od:<region>`")),
    }
}

/// One [`Codec`] per row: `Type: |value, out| write, |json| read;`.
macro_rules! codecs {
    ($($ty:ty: |$value:ident, $out:ident| $put:expr, |$json:ident| $take:expr;)+) => {$(
        impl Codec for $ty {
            #[inline]
            fn put(&self, $out: &mut String) {
                let $value = self;
                $put;
            }

            #[inline]
            fn take($json: JsonVal<'_>) -> Result<Self, String> {
                $take
            }
        }
    )+};
}

// Integers and booleans bare, floats in Rust's shortest-round-trip
// `Display`, instants and durations in whole seconds, strings escaped,
// everything else as its lowercase label.
codecs! {
    u8: |n, out| push_uint(out, u64::from(*n)), |v| uint(&v);
    u32: |n, out| push_uint(out, u64::from(*n)), |v| uint(&v);
    u64: |n, out| push_uint(out, *n), |v| v.as_u64();
    usize: |n, out| push_uint(out, *n as u64), |v| v.as_usize();
    i64: |n, out| write!(out, "{n}").expect("writing to a String"), |v| match &v {
        JsonVal::Num(raw) => raw.parse().map_err(|_| format!("`{raw}` is not an i64")),
        other => Err(format!("expected an integer, found {}", other.type_name())),
    };
    bool: |b, out| out.push_str(if *b { "true" } else { "false" }), |v| v.as_bool();
    f64: |x, out| write!(out, "{x}").expect("writing to a String"), |v| v.as_f64();
    String: |s, out| push_json_str(out, s), |v| v.into_string();
    SimTime: |t, out| push_uint(out, t.as_secs()), |v| v.as_u64().map(SimTime::from_secs);
    SimDuration: |d, out| push_uint(out, d.as_secs()), |v| v.as_u64().map(SimDuration::from_secs);
    Region: |r, out| push_json_str(out, r.name()), |v| region(v.as_str()?);
    InstanceId: |id, out| write!(out, "\"{id}\"").expect("writing to a String"),
        |v| instance_id(v.as_str()?);
    Placement: |p, out| {
        out.push_str(if matches!(p, Placement::Spot(_)) { "\"spot:" } else { "\"od:" });
        out.push_str(p.region().name());
        out.push('"');
    }, |v| placement(v.as_str()?);
    CandidateOutcome: |o, out| push_json_str(out, &o.label()), |v| v.as_str()?.parse();
    DecisionKind: |k, out| push_json_str(out, k.label()), |v| v.as_str()?.parse();
    ChaosFaultKind: |k, out| push_json_str(out, k.label()), |v| v.as_str()?.parse();
    BreakerState: |s, out| push_json_str(out, s.label()), |v| v.as_str()?.parse();
    Priority: |p, out| push_json_str(out, p.label()), |v| v.as_str()?.parse();
}

fn put_items<'a, T: Codec + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.put(out);
    }
    out.push(']');
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut String) {
        put_items(out, self);
    }

    fn take(v: JsonVal<'_>) -> Result<Self, String> {
        v.into_arr()?.into_iter().map(T::take).collect()
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn put(&self, out: &mut String) {
        put_items(out, self);
    }

    fn take(v: JsonVal<'_>) -> Result<Self, String> {
        let items = Vec::<T>::take(v)?;
        let found = items.len();
        items.try_into().map_err(|_| format!("expected {N} entries, found {found}"))
    }
}

/// A pair as a two-entry array.
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, out: &mut String) {
        out.push('[');
        self.0.put(out);
        out.push(',');
        self.1.put(out);
        out.push(']');
    }

    fn take(v: JsonVal<'_>) -> Result<Self, String> {
        let [a, b]: [JsonVal<'_>; 2] = v
            .into_arr()?
            .try_into()
            .map_err(|items: Vec<_>| format!("expected a pair, found {} entries", items.len()))?;
        Ok((A::take(a)?, B::take(b)?))
    }
}

/// A field's JSON key: its name, or the rename the list gives it.
macro_rules! field_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Writes one field; `omit_empty` leaves an empty collection out.
macro_rules! put_field {
    ($out:ident, $value:expr, $key:expr) => {
        $crate::codec::Field::put_field($value, concat!(",\"", $key, "\":"), $out)
    };
    ($out:ident, $value:expr, $key:expr, omit_empty) => {
        if !$value.is_empty() {
            $crate::codec::put_field!($out, $value, $key);
        }
    };
}

/// Reads one field back; an absent `omit_empty` field is empty.
macro_rules! take_field {
    ($fields:expr, $key:expr) => {
        $crate::codec::Field::take_field($fields, $key)?
    };
    ($fields:expr, $key:expr, omit_empty) => {
        <Option<_> as $crate::codec::Field>::take_field($fields, $key)?.unwrap_or_default()
    };
}

/// A struct as a JSON object, one entry per listed field in list order.
/// A field is keyed by its name unless renamed (`field: "key"`);
/// `[omit_empty]` leaves an empty collection out.
macro_rules! object_codec {
    ($ty:ident { $($field:ident $(: $key:literal)? $([$mode:ident])?),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn put(&self, out: &mut String) {
                let $ty { $($field),+ } = self;
                $crate::codec::put_delimited(out, "{", '}', |out| {
                    $($crate::codec::put_field!(
                        out, $field, $crate::codec::field_key!($field $($key)?) $(, $mode)?
                    );)+
                });
            }

            fn take(v: sim_kernel::json::JsonVal<'_>) -> Result<Self, String> {
                let mut fields = sim_kernel::json::Fields::new(v.into_obj()?);
                let value = $ty {
                    $($field: $crate::codec::take_field!(
                        &mut fields, $crate::codec::field_key!($field $($key)?) $(, $mode)?
                    ),)+
                };
                fields.finish()?;
                Ok(value)
            }
        }
    };
}

/// A struct as a JSON array of its listed fields, in list order.
macro_rules! array_codec {
    ($ty:ident [$($field:ident),+ $(,)?]) => {
        impl $crate::codec::Codec for $ty {
            fn put(&self, out: &mut String) {
                let $ty { $($field),+ } = self;
                $crate::codec::put_delimited(out, "[", ']', |out| {
                    $(out.push(',');
                    $crate::codec::Codec::put($field, out);)+
                });
            }

            fn take(v: sim_kernel::json::JsonVal<'_>) -> Result<Self, String> {
                const LEN: usize = [$(stringify!($field)),+].len();
                let items = v.into_arr()?;
                if items.len() != LEN {
                    return Err(format!(
                        "{} must have {LEN} entries, found {}",
                        stringify!($ty),
                        items.len()
                    ));
                }
                let mut items = items.into_iter();
                Ok($ty {
                    $($field: $crate::codec::Codec::take(items.next().expect("length checked"))?,)+
                })
            }
        }
    };
}

pub(crate) use {array_codec, field_key, object_codec, put_field, take_field};

object_codec!(CandidateVerdict { region, combined, spot_price: "price", outcome });
