//! Typed field codecs for the JSON this crate writes: the trace JSONL
//! (`trace_schema!` in `trace.rs`), which `replay` reads back, and the
//! `analyse --output json` document (`replay/views.rs`,
//! `replay/analytics.rs`), which nothing reads back.
//!
//! [`Codec`] says how one Rust type is written; [`Decode`] reads the types
//! a trace holds straight from a `sim_kernel::json::Scanner`, with no
//! value tree in between. [`Field`] places a value under a key, leaving
//! `None` out; [`read_field`] and [`finish_field`] read one back into a
//! slot, rejecting a repeated key and naming a missing one.
//! [`object_codec!`] and [`array_codec!`] derive the writer for a struct
//! from one list of its fields, and `object_codec!` its reader too when
//! asked; their expansions name every field without `..`, so a field
//! missing from the list fails to compile. Tokenizing and string escaping
//! go through `sim_kernel::json`.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::str::FromStr;

use cloud_compute::InstanceId;
use cloud_market::Region;
use sim_kernel::json::{push_json_str, Scanner};
use sim_kernel::{SimDuration, SimTime};

use crate::fleet::Priority;
use crate::health::BreakerState;
use crate::optimizer::{CandidateOutcome, CandidateVerdict, Placement};
use crate::trace::{ChaosFaultKind, DecisionKind};

/// How one type is written as JSON text.
pub(crate) trait Codec {
    fn put(&self, out: &mut String);
}

/// How one type a trace holds is read back from the JSON reader.
pub(crate) trait Decode: Sized {
    fn read(r: &mut Scanner<'_>) -> Result<Self, String>;
}

/// A value under a key: `,"key":value`. An `Option` is left out when
/// `None` and read back as `None` when absent.
pub(crate) trait Field {
    /// Appends `prefix` (`,"key":`) and the value.
    fn put_field(&self, prefix: &str, out: &mut String);
}

impl<T: Codec> Field for T {
    #[inline]
    fn put_field(&self, prefix: &str, out: &mut String) {
        out.push_str(prefix);
        self.put(out);
    }
}

impl<T: Codec> Field for Option<T> {
    #[inline]
    fn put_field(&self, prefix: &str, out: &mut String) {
        if let Some(value) = self {
            value.put_field(prefix, out);
        }
    }
}

/// The read side of [`Field`]: what a key's value decodes to, and what
/// its absence means.
pub(crate) trait ReadField: Sized {
    fn read_value(r: &mut Scanner<'_>) -> Result<Self, String>;
    fn absent(key: &str) -> Result<Self, String>;
}

impl<T: Decode> ReadField for T {
    #[inline]
    fn read_value(r: &mut Scanner<'_>) -> Result<Self, String> {
        T::read(r)
    }

    #[inline]
    fn absent(key: &str) -> Result<Self, String> {
        Err(format!("missing field `{key}`"))
    }
}

impl<T: Decode> ReadField for Option<T> {
    #[inline]
    fn read_value(r: &mut Scanner<'_>) -> Result<Self, String> {
        T::read(r).map(Some)
    }

    #[inline]
    fn absent(_key: &str) -> Result<Self, String> {
        Ok(None)
    }
}

/// Reads the value of `key` into its empty `slot`; a second value for
/// the same key is an error.
#[inline]
pub(crate) fn read_field<F: ReadField>(
    slot: &mut Option<F>,
    key: &str,
    r: &mut Scanner<'_>,
) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("duplicate key `{key}`"));
    }
    *slot = Some(F::read_value(r).map_err(|e| format!("`{key}`: {e}"))?);
    Ok(())
}

/// The value read into `slot`, or what the key's absence means.
#[inline]
pub(crate) fn finish_field<F: ReadField>(slot: Option<F>, key: &str) -> Result<F, String> {
    slot.map_or_else(|| F::absent(key), Ok)
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
fn uint<T: TryFrom<u64>>(r: &mut Scanner<'_>) -> Result<T, String> {
    let n = r.read_u64()?;
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

/// One [`Codec`] per row, `Type: |value, out| write`, and a [`Decode`]
/// when the row goes on `, |reader| read`.
macro_rules! codecs {
    ($($ty:ty: |$value:ident, $out:ident| $put:expr $(, |$r:ident| $read:expr)?;)+) => {$(
        impl Codec for $ty {
            #[inline]
            fn put(&self, $out: &mut String) {
                let $value = self;
                $put;
            }
        }

        $(impl Decode for $ty {
            #[inline]
            fn read($r: &mut Scanner<'_>) -> Result<Self, String> {
                $read
            }
        })?
    )+};
}

// Integers and booleans bare, floats in Rust's shortest-round-trip
// `Display`, instants and durations in whole seconds, strings escaped,
// everything else as its lowercase label.
codecs! {
    u8: |n, out| push_uint(out, u64::from(*n)), |r| uint(r);
    u32: |n, out| push_uint(out, u64::from(*n)), |r| uint(r);
    u64: |n, out| push_uint(out, *n), |r| r.read_u64();
    usize: |n, out| push_uint(out, *n as u64), |r| uint(r);
    i64: |n, out| write!(out, "{n}").expect("writing to a String");
    bool: |b, out| out.push_str(if *b { "true" } else { "false" }), |r| r.read_bool();
    f64: |x, out| write!(out, "{x}").expect("writing to a String"), |r| r.read_f64();
    String: |s, out| push_json_str(out, s), |r| r.read_str().map(Cow::into_owned);
    SimTime: |t, out| push_uint(out, t.as_secs());
    SimDuration: |d, out| push_uint(out, d.as_secs()), |r| r.read_u64().map(SimDuration::from_secs);
    Region: |r, out| push_json_str(out, r.name()), |r| region(&r.read_str()?);
    InstanceId: |id, out| write!(out, "\"{id}\"").expect("writing to a String"),
        |r| instance_id(&r.read_str()?);
    Placement: |p, out| {
        out.push_str(if matches!(p, Placement::Spot(_)) { "\"spot:" } else { "\"od:" });
        out.push_str(p.region().name());
        out.push('"');
    }, |r| placement(&r.read_str()?);
    CandidateOutcome: |o, out| match o {
        CandidateOutcome::Selected { rank } => {
            out.push_str("\"selected:");
            push_uint(out, *rank as u64);
            out.push('"');
        }
        CandidateOutcome::Quarantined => out.push_str("\"quarantined\""),
        CandidateOutcome::NotPreferred => out.push_str("\"not-preferred\""),
        CandidateOutcome::BelowThreshold => out.push_str("\"below-threshold\""),
        CandidateOutcome::OverCap => out.push_str("\"over-cap\""),
        CandidateOutcome::InterruptedHere => out.push_str("\"interrupted-here\""),
    }, |r| r.read_str()?.parse();
    DecisionKind: |k, out| push_json_str(out, k.label()), |r| r.read_str()?.parse();
    ChaosFaultKind: |k, out| push_json_str(out, k.label()), |r| r.read_str()?.parse();
    BreakerState: |s, out| push_json_str(out, s.label()), |r| r.read_str()?.parse();
    Priority: |p, out| push_json_str(out, p.label()), |r| r.read_str()?.parse();
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
}

/// Arrays up to this long (a decision's candidate audit lists at most
/// 12 regions) are read onto the stack, then moved into one exact-size
/// allocation; a longer one counts its remaining items first.
const INLINE_ITEMS: usize = 16;

impl<T: Decode> Decode for Vec<T> {
    fn read(r: &mut Scanner<'_>) -> Result<Self, String> {
        // Empty and one-item arrays, the most common, skip the stack copy.
        r.begin_array()?;
        if !r.next_item()? {
            return Ok(Vec::new());
        }
        let first = T::read(r)?;
        if !r.next_item()? {
            return Ok(vec![first]);
        }
        let mut head: [Option<T>; INLINE_ITEMS] = std::array::from_fn(|_| None);
        head[0] = Some(first);
        let mut n = 1;
        loop {
            if n == INLINE_ITEMS {
                let mut items = Vec::with_capacity(n + items_left(r.clone()));
                items.extend(head.into_iter().flatten());
                items.push(T::read(r)?);
                while r.next_item()? {
                    items.push(T::read(r)?);
                }
                return Ok(items);
            }
            head[n] = Some(T::read(r)?);
            n += 1;
            if !r.next_item()? {
                break;
            }
        }
        let mut items = Vec::with_capacity(n);
        items.extend(head.into_iter().flatten());
        Ok(items)
    }
}

/// How many items are left in the array `probe` is reading, the one it
/// is at included. A malformed item ends the count; the typed read then
/// fails on it.
fn items_left(mut probe: Scanner<'_>) -> usize {
    let mut n = 0;
    while probe.skip_value().is_ok() {
        n += 1;
        if probe.next_item() != Ok(true) {
            break;
        }
    }
    n
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn put(&self, out: &mut String) {
        put_items(out, self);
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

/// The value read into a field's slot once its object is read; an absent
/// `omit_empty` field is empty.
macro_rules! take_field {
    ($slot:expr, $key:expr) => {
        $crate::codec::finish_field($slot, $key)?
    };
    ($slot:expr, $key:expr, omit_empty) => {
        $slot.unwrap_or_default()
    };
}

/// A struct as a JSON object, one entry per listed field in list order.
/// A field is keyed by its name unless renamed (`field: "key"`);
/// `[omit_empty]` leaves an empty collection out. Ending the list with
/// `read` also derives a [`Decode`] that takes the keys in any order and
/// rejects a repeated, unknown or missing one.
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
        }
    };
    ($ty:ident { $($field:ident $(: $key:literal)? $([$mode:ident])?),+ $(,)? } read) => {
        $crate::codec::object_codec!($ty { $($field $(: $key)? $([$mode])?),+ });

        impl $crate::codec::Decode for $ty {
            fn read(r: &mut sim_kernel::json::Scanner<'_>) -> Result<Self, String> {
                $(let mut $field = None;)+
                r.begin_object()?;
                // The writer's own spelling and order, tried first.
                $(if r.next_key_is($crate::codec::field_key!($field $($key)?)) {
                    $crate::codec::read_field(
                        &mut $field, $crate::codec::field_key!($field $($key)?), r,
                    )?;
                })+
                while let Some(key) = r.next_key()? {
                    match &*key {
                        $(k if k == $crate::codec::field_key!($field $($key)?) => {
                            $crate::codec::read_field(&mut $field, k, r)?;
                        })+
                        other => return Err(format!("unexpected field `{other}`")),
                    }
                }
                Ok($ty {
                    $($field: $crate::codec::take_field!(
                        $field, $crate::codec::field_key!($field $($key)?) $(, $mode)?
                    ),)+
                })
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
        }
    };
}

pub(crate) use {array_codec, field_key, object_codec, put_field, take_field};

object_codec!(CandidateVerdict { region, combined, spot_price: "price", outcome } read);

#[cfg(test)]
mod tests {
    use super::*;

    fn read_array<T: Decode>(text: &str) -> Result<Vec<T>, String> {
        let mut r = Scanner::new(text);
        Vec::read(&mut r).and_then(|items| r.finish().map(|()| items))
    }

    /// Arrays below, at and past the inline limit, and nested ones, each
    /// decode into a vector allocated at exactly its length; a malformed
    /// item fails the array on either side of the limit.
    #[test]
    fn arrays_decode_into_one_exact_allocation() {
        for n in [0, 1, 12, INLINE_ITEMS, INLINE_ITEMS + 1, 40] {
            let mut items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            let got: Vec<usize> = read_array(&format!("[{}]", items.join(", "))).unwrap();
            assert_eq!((got.len(), got.capacity()), (n, n));
            assert!(got.iter().enumerate().all(|(i, &v)| i == v));
            if let Some(last) = items.last_mut() {
                *last = "\"x\"".into();
                let err = read_array::<usize>(&format!("[{}]", items.join(","))).unwrap_err();
                assert!(err.contains("expected an integer"), "{err}");
            }
        }
        let nested: Vec<Vec<String>> = read_array(r#"[["a"], [], ["b", "c"]]"#).unwrap();
        assert_eq!(nested, [vec!["a"], vec![], vec!["b", "c"]]);
        assert!(nested.iter().all(|v| v.capacity() == v.len()));
    }

    /// Each outcome writes its quoted label, which parses back to it.
    #[test]
    fn candidate_outcomes_write_labels_that_parse_back() {
        let cases = [
            (CandidateOutcome::Selected { rank: 0 }, "selected:0"),
            (CandidateOutcome::Selected { rank: 11 }, "selected:11"),
            (CandidateOutcome::Quarantined, "quarantined"),
            (CandidateOutcome::NotPreferred, "not-preferred"),
            (CandidateOutcome::BelowThreshold, "below-threshold"),
            (CandidateOutcome::OverCap, "over-cap"),
            (CandidateOutcome::InterruptedHere, "interrupted-here"),
        ];
        for (outcome, label) in cases {
            let mut out = String::new();
            outcome.put(&mut out);
            assert_eq!(out, format!("\"{label}\""));
            assert_eq!(label.parse::<CandidateOutcome>(), Ok(outcome));
        }
    }
}
