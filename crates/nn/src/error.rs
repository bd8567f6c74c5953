//! The workspace-wide fallible-construction error type.

use std::fmt;

/// Error type shared by every spec builder, fallible constructor and
/// checked forward path in the workspace.
///
/// A serving system must *reject* an invalid layer configuration with a
/// diagnosable error rather than abort the process, so every `*Spec`
/// builder (`Conv2dSpec`, `LinearSpec`, `BatchNormSpec`, `ConvSpec`,
/// `ModelSpec`) returns `Result<_, WaError>` and every paper constraint
/// (nonzero dims, Winograd ⇒ stride 1, kernel 3 or 5, supported tile sizes)
/// maps to a variant here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaError {
    /// A spec field has an invalid value (zero channels, even kernel for
    /// Winograd, non-positive width multiplier, …).
    InvalidSpec {
        /// Which spec type was being built (e.g. `"ConvSpec"`).
        spec: &'static str,
        /// The offending field.
        field: &'static str,
        /// Human-readable explanation.
        reason: String,
    },
    /// Tensor shapes disagree (checked forward paths, weight imports,
    /// per-layer assignment lists of the wrong length).
    ShapeMismatch {
        /// Where the mismatch was detected.
        context: String,
        /// The shape the operation required.
        expected: Vec<usize>,
        /// The shape it received.
        found: Vec<usize>,
    },
    /// The requested convolution algorithm is outside the supported set
    /// (e.g. a Winograd tile size the paper never uses).
    UnsupportedAlgo {
        /// Display form of the algorithm (e.g. `"F3-flex"`).
        algo: String,
        /// Why it is unsupported.
        reason: String,
    },
}

impl WaError {
    /// Convenience constructor for [`WaError::InvalidSpec`].
    pub fn invalid(spec: &'static str, field: &'static str, reason: impl Into<String>) -> WaError {
        WaError::InvalidSpec {
            spec,
            field,
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`WaError::ShapeMismatch`].
    pub fn shape(context: impl Into<String>, expected: &[usize], found: &[usize]) -> WaError {
        WaError::ShapeMismatch {
            context: context.into(),
            expected: expected.to_vec(),
            found: found.to_vec(),
        }
    }

    /// Convenience constructor for [`WaError::UnsupportedAlgo`].
    pub fn unsupported(algo: impl fmt::Display, reason: impl Into<String>) -> WaError {
        WaError::UnsupportedAlgo {
            algo: algo.to_string(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for WaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaError::InvalidSpec {
                spec,
                field,
                reason,
            } => {
                write!(f, "invalid {spec}: field `{field}`: {reason}")
            }
            WaError::ShapeMismatch {
                context,
                expected,
                found,
            } => {
                write!(
                    f,
                    "shape mismatch in {context}: expected {expected:?}, found {found:?}"
                )
            }
            WaError::UnsupportedAlgo { algo, reason } => {
                write!(f, "unsupported algorithm {algo}: {reason}")
            }
        }
    }
}

impl std::error::Error for WaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = WaError::invalid("ConvSpec", "in_channels", "must be nonzero");
        assert_eq!(
            e.to_string(),
            "invalid ConvSpec: field `in_channels`: must be nonzero"
        );
    }

    #[test]
    fn display_shows_shapes() {
        let e = WaError::shape("Conv2d `c`", &[1, 3, 8, 8], &[1, 4, 8, 8]);
        assert!(e.to_string().contains("[1, 3, 8, 8]"));
        assert!(e.to_string().contains("[1, 4, 8, 8]"));
    }

    #[test]
    fn is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(WaError::unsupported("F3", "m must be even"));
        assert!(e.to_string().contains("F3"));
    }
}
