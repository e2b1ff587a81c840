//! Event tables: each trace event variant declared once.
//!
//! The engine and the store each describe their observable decisions as
//! one enum. [`event_table!`](crate::event_table) takes a table with one
//! row per variant (the variant, its `kind` string, its category and its
//! documented fields) and generates from it:
//!
//! - the enum itself;
//! - the accessors `kind`, `category`, `at`, `session` and `instance`;
//! - the JSON encoding (`serde::Serialize`): `kind` first, then the
//!   fields in declared order;
//! - a static schema, `SCHEMA`: one [`EventSchema`] per variant naming
//!   its kind, category, and each field's key, JSON type and whether it
//!   may be absent. Trace validators check exported lines against it.
//!
//! A field's JSON key is its name unless the row renames it
//! (`kind as "fetch": FetchKind`). An `Option` field is omitted from the
//! encoding when `None`, unless the row marks it `| null`, in which case
//! it is written as `null`.

use crate::Time;

/// The JSON tree events encode into and schemas check.
pub use serde::Value;

#[doc(hidden)]
pub use serde as __serde;

/// JSON type of an encoded event field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// A non-negative integer.
    Integer,
    /// A floating-point number (always written with a `.` or exponent).
    Number,
    /// `true` or `false`.
    Bool,
    /// A string.
    String,
}

impl FieldType {
    /// Lowercase name used in schema messages.
    fn label(self) -> &'static str {
        match self {
            FieldType::Integer => "integer",
            FieldType::Number => "number",
            FieldType::Bool => "bool",
            FieldType::String => "string",
        }
    }

    /// Whether `v` is a value of this type.
    fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (FieldType::Integer, Value::U64(_))
                | (FieldType::Number, Value::F64(_))
                | (FieldType::Bool, Value::Bool(_))
                | (FieldType::String, Value::Str(_))
        )
    }
}

/// How an encoded field may be absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absence {
    /// Always present with a value of its type.
    Never,
    /// An `Option` field whose key is omitted when `None`.
    Omitted,
    /// An `Option` field written as `null` when `None`.
    Null,
}

impl Absence {
    /// The absence rule of a field: `optional` says whether its type is
    /// an `Option`, `nullable` whether its row is marked `| null`.
    pub const fn of(optional: bool, nullable: bool) -> Absence {
        match (optional, nullable) {
            (false, _) => Absence::Never,
            (true, false) => Absence::Omitted,
            (true, true) => Absence::Null,
        }
    }
}

/// One declared field of an event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSchema {
    /// The JSON key.
    pub key: &'static str,
    /// The JSON type of a present value.
    pub ty: FieldType,
    /// Whether, and how, the field may be absent.
    pub absence: Absence,
}

/// The declaration of one event kind, generated from its table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSchema {
    /// The `kind` string.
    pub kind: &'static str,
    /// The coarse category.
    pub category: &'static str,
    /// The payload fields, in encoding order.
    pub fields: &'static [FieldSchema],
}

impl EventSchema {
    /// Checks an encoded event's payload (the keys after `kind`) against
    /// the declaration: every key declared, each value of its declared
    /// type, `null` only where the row allows it, and no declared field
    /// missing unless it may be omitted. Repeated keys are the caller's
    /// to reject (a trace line can repeat one across its envelope and
    /// payload).
    pub fn check(&self, payload: &[(String, Value)]) -> Result<(), String> {
        for (key, value) in payload {
            let Some(field) = self.fields.iter().find(|f| f.key == key) else {
                return Err(format!("`{}` carries undeclared field `{key}`", self.kind));
            };
            let ok =
                field.ty.admits(value) || (field.absence == Absence::Null && *value == Value::Null);
            if !ok {
                return Err(format!(
                    "`{}` field `{key}` is {}, declared {}",
                    self.kind,
                    value.kind(),
                    field.ty.label()
                ));
            }
        }
        for field in self.fields {
            if field.absence != Absence::Omitted && !payload.iter().any(|(k, _)| k == field.key) {
                return Err(format!("`{}` is missing field `{}`", self.kind, field.key));
            }
        }
        Ok(())
    }
}

/// A type an event field may have: how it encodes, and its JSON type.
pub trait EventField {
    /// JSON type of the encoded value.
    const TYPE: FieldType;
    /// Whether the field is an `Option` (may be absent).
    const OPTIONAL: bool = false;
    /// The encoded value; `None` only for an absent optional field.
    fn encode(&self) -> Option<Value>;
}

macro_rules! integer_fields {
    ($($t:ty),*) => {$(
        impl EventField for $t {
            const TYPE: FieldType = FieldType::Integer;
            fn encode(&self) -> Option<Value> {
                Some(Value::U64(*self as u64))
            }
        }
    )*};
}

integer_fields!(u32, u64, usize);

impl EventField for f64 {
    const TYPE: FieldType = FieldType::Number;
    fn encode(&self) -> Option<Value> {
        Some(Value::F64(*self))
    }
}

impl EventField for bool {
    const TYPE: FieldType = FieldType::Bool;
    fn encode(&self) -> Option<Value> {
        Some(Value::Bool(*self))
    }
}

impl EventField for &'static str {
    const TYPE: FieldType = FieldType::String;
    fn encode(&self) -> Option<Value> {
        Some(Value::Str((*self).to_string()))
    }
}

/// Virtual instants encode as fractional seconds.
impl EventField for Time {
    const TYPE: FieldType = FieldType::Number;
    fn encode(&self) -> Option<Value> {
        Some(Value::F64(self.as_secs_f64()))
    }
}

impl<T: EventField> EventField for Option<T> {
    const TYPE: FieldType = T::TYPE;
    const OPTIONAL: bool = true;
    fn encode(&self) -> Option<Value> {
        self.as_ref().and_then(T::encode)
    }
}

/// Appends one encoded field: absent optional fields are skipped, or
/// written as `null` when `nullable`.
#[doc(hidden)]
pub fn push_field(
    pairs: &mut Vec<(String, Value)>,
    key: &str,
    value: Option<Value>,
    nullable: bool,
) {
    match value {
        Some(v) => pairs.push((key.to_string(), v)),
        None if nullable => pairs.push((key.to_string(), Value::Null)),
        None => {}
    }
}

/// Declares an event enum from a table: one row per variant.
///
/// ```
/// sim::event_table! {
///     /// What a toy store did.
///     #[derive(Debug, Clone, Copy, PartialEq)]
///     pub enum ToyEvent {
///         /// A session was saved.
///         Saved: "saved" in cache {
///             /// External session id.
///             session: u64,
///             /// Payload size.
///             bytes as "size": u64,
///             /// Queue position, written as `null` when unknown.
///             queue_pos: Option<usize> | null,
///             /// Owning instance, omitted when unknown.
///             instance: Option<u32>,
///             /// Virtual time.
///             at: sim::Time,
///         },
///     }
/// }
///
/// let ev = ToyEvent::Saved {
///     session: 3,
///     bytes: 10,
///     queue_pos: None,
///     instance: None,
///     at: sim::Time::ZERO,
/// };
/// assert_eq!(ev.kind(), "saved");
/// assert_eq!(ev.category(), "cache");
/// assert_eq!(ev.session(), Some(3));
/// assert_eq!(ev.instance(), None);
/// assert_eq!(
///     serde_json::to_string(&ev).unwrap(),
///     r#"{"kind":"saved","session":3,"size":10,"queue_pos":null,"at":0.0}"#
/// );
/// assert_eq!(ToyEvent::SCHEMA[0].fields[1].key, "size");
/// ```
///
/// Every row must have an `at: Time` field. `session()` returns the
/// row's `session` field and `instance()` its `instance` field (plain or
/// `Option`), or `None` for rows without one.
#[macro_export]
macro_rules! event_table {
    (
        $(#[$emeta:meta])*
        $vis:vis enum $Enum:ident {
            $(
                $(#[$vmeta:meta])*
                $Variant:ident: $kind:literal in $cat:ident {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident $(as $key:literal)?: $fty:ty $(| $null:ident)?
                    ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$emeta])*
        $vis enum $Enum {
            $(
                $(#[$vmeta])*
                $Variant {
                    $(
                        $(#[$fmeta])*
                        $field: $fty,
                    )*
                },
            )*
        }

        impl $Enum {
            /// The generated schema: one entry per variant, in table order.
            pub const SCHEMA: &'static [$crate::events::EventSchema] = &[
                $(
                    $crate::events::EventSchema {
                        kind: $kind,
                        category: stringify!($cat),
                        fields: &[
                            $(
                                $crate::events::FieldSchema {
                                    key: $crate::__event_key!($field $(, $key)?),
                                    ty: <$fty as $crate::events::EventField>::TYPE,
                                    absence: $crate::events::Absence::of(
                                        <$fty as $crate::events::EventField>::OPTIONAL,
                                        $crate::__event_nullable!($($null)?),
                                    ),
                                },
                            )*
                        ],
                    },
                )*
            ];

            /// Snake-case name of the variant, used as the `kind` field in
            /// serialized traces.
            pub fn kind(&self) -> &'static str {
                match self {
                    $($Enum::$Variant { .. } => $kind,)*
                }
            }

            /// Coarse category of the variant.
            pub fn category(&self) -> &'static str {
                match self {
                    $($Enum::$Variant { .. } => stringify!($cat),)*
                }
            }

            /// The event's virtual timestamp.
            pub fn at(&self) -> $crate::Time {
                match *self {
                    $($Enum::$Variant { at, .. } => at,)*
                }
            }

            /// The session the event concerns (`None` for events without
            /// a `session` field).
            #[allow(unused_variables)]
            pub fn session(&self) -> Option<u64> {
                match *self {
                    $($Enum::$Variant { $($field),* } => {
                        None $(.or($crate::__event_pick!(session, $field, $field)))*
                    })*
                }
            }

            /// The serving instance the event names (`None` for events
            /// without an `instance` field, or when it is unknown).
            #[allow(unused_variables)]
            pub fn instance(&self) -> Option<u32> {
                match *self {
                    $($Enum::$Variant { $($field),* } => {
                        None $(.or($crate::__event_pick!(instance, $field, $field)))*
                    })*
                }
            }
        }

        impl $crate::events::__serde::Serialize for $Enum {
            /// Serializes as a tagged object: `kind` first, then the
            /// fields in declared order.
            fn to_value(&self) -> $crate::events::Value {
                match *self {
                    $($Enum::$Variant { $($field),* } => {
                        let mut pairs = Vec::with_capacity(1 + [$(stringify!($field)),*].len());
                        pairs.push((
                            "kind".to_string(),
                            $crate::events::Value::Str($kind.to_string()),
                        ));
                        $(
                            $crate::events::push_field(
                                &mut pairs,
                                $crate::__event_key!($field $(, $key)?),
                                $crate::events::EventField::encode(&$field),
                                $crate::__event_nullable!($($null)?),
                            );
                        )*
                        $crate::events::Value::Object(pairs)
                    })*
                }
            }
        }
    };
}

/// A field's JSON key: its name, or the row's rename.
#[doc(hidden)]
#[macro_export]
macro_rules! __event_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident, $key:literal) => {
        $key
    };
}

/// Whether a row marked its `Option` field `| null`.
#[doc(hidden)]
#[macro_export]
macro_rules! __event_nullable {
    () => {
        false
    };
    (null) => {
        true
    };
}

/// The value of field `$field` when it is the one an accessor wants.
#[doc(hidden)]
#[macro_export]
macro_rules! __event_pick {
    (session, session, $v:ident) => {
        Option::<u64>::from($v)
    };
    (instance, instance, $v:ident) => {
        Option::<u32>::from($v)
    };
    ($want:ident, $field:ident, $v:ident) => {
        None
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(pairs: &[(&str, Value)]) -> Vec<(String, Value)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    const SCHEMA: EventSchema = EventSchema {
        kind: "toy",
        category: "cache",
        fields: &[
            FieldSchema {
                key: "session",
                ty: FieldType::Integer,
                absence: Absence::Never,
            },
            FieldSchema {
                key: "queue_pos",
                ty: FieldType::Integer,
                absence: Absence::Null,
            },
            FieldSchema {
                key: "instance",
                ty: FieldType::Integer,
                absence: Absence::Omitted,
            },
            FieldSchema {
                key: "at",
                ty: FieldType::Number,
                absence: Absence::Never,
            },
        ],
    };

    #[test]
    fn schema_accepts_every_legal_absence() {
        let full = payload(&[
            ("session", Value::U64(1)),
            ("queue_pos", Value::U64(2)),
            ("instance", Value::U64(0)),
            ("at", Value::F64(1.0)),
        ]);
        assert_eq!(SCHEMA.check(&full), Ok(()));
        let sparse = payload(&[
            ("session", Value::U64(1)),
            ("queue_pos", Value::Null),
            ("at", Value::F64(1.0)),
        ]);
        assert_eq!(SCHEMA.check(&sparse), Ok(()));
    }

    #[test]
    fn schema_rejects_each_malformation() {
        let cases: [(&[(&str, Value)], &str); 5] = [
            (
                &[("queue_pos", Value::Null), ("at", Value::F64(1.0))],
                "missing field `session`",
            ),
            (
                &[("session", Value::U64(1)), ("at", Value::F64(1.0))],
                "missing field `queue_pos`",
            ),
            (
                &[
                    ("session", Value::F64(1.0)),
                    ("queue_pos", Value::Null),
                    ("at", Value::F64(1.0)),
                ],
                "field `session` is number, declared integer",
            ),
            (
                &[
                    ("session", Value::U64(1)),
                    ("queue_pos", Value::Null),
                    ("instance", Value::Null),
                    ("at", Value::F64(1.0)),
                ],
                "field `instance` is null, declared integer",
            ),
            (
                &[
                    ("session", Value::U64(1)),
                    ("queue_pos", Value::Null),
                    ("bytes", Value::U64(1)),
                    ("at", Value::F64(1.0)),
                ],
                "undeclared field `bytes`",
            ),
        ];
        for (pairs, want) in cases {
            let err = SCHEMA.check(&payload(pairs)).unwrap_err();
            assert!(err.contains(want), "{err} lacks {want}");
        }
    }

    #[test]
    fn absence_follows_the_type_and_the_marker() {
        assert_eq!(Absence::of(u64::OPTIONAL, false), Absence::Never);
        assert_eq!(
            Absence::of(Option::<u64>::OPTIONAL, false),
            Absence::Omitted
        );
        assert_eq!(Absence::of(Option::<u64>::OPTIONAL, true), Absence::Null);
        assert_eq!(<Option<Time> as EventField>::TYPE, FieldType::Number);
        assert_eq!(Some(3u32).encode(), Some(Value::U64(3)));
        assert_eq!(None::<u32>.encode(), None);
    }
}
