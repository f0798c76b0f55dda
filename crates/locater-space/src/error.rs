//! Error type for space construction and lookups.

use std::fmt;

/// Errors produced while building or querying a [`crate::Space`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// A room name was used twice with conflicting definitions.
    DuplicateRoom(String),
    /// An access point name was registered twice.
    DuplicateAccessPoint(String),
    /// A referenced room does not exist.
    UnknownRoom(String),
    /// A referenced access point does not exist.
    UnknownAccessPoint(String),
    /// The space has no access points (and therefore no regions).
    EmptySpace,
    /// The space has more access points than [`crate::MAX_ACCESS_POINTS`]:
    /// a stored event keeps its access point id in 16 bits.
    TooManyAccessPoints(usize),
    /// An access point covers no rooms, which would make fine localization impossible
    /// for devices connected to it.
    EmptyCoverage(String),
    /// Metadata (de)serialization failure.
    Metadata(String),
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::DuplicateRoom(name) => write!(f, "duplicate room definition: {name}"),
            SpaceError::DuplicateAccessPoint(name) => {
                write!(f, "duplicate access point definition: {name}")
            }
            SpaceError::UnknownRoom(name) => write!(f, "unknown room: {name}"),
            SpaceError::UnknownAccessPoint(name) => write!(f, "unknown access point: {name}"),
            SpaceError::EmptySpace => write!(f, "space has no access points"),
            SpaceError::TooManyAccessPoints(count) => write!(
                f,
                "space has {count} access points (limit {})",
                crate::MAX_ACCESS_POINTS
            ),
            SpaceError::EmptyCoverage(name) => {
                write!(f, "access point {name} covers no rooms")
            }
            SpaceError::Metadata(msg) => write!(f, "space metadata error: {msg}"),
        }
    }
}

impl std::error::Error for SpaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(SpaceError::DuplicateRoom("2065".into())
            .to_string()
            .contains("2065"));
        assert!(SpaceError::UnknownAccessPoint("wap9".into())
            .to_string()
            .contains("wap9"));
        assert_eq!(
            SpaceError::EmptySpace.to_string(),
            "space has no access points"
        );
    }

    #[test]
    fn error_trait_is_implemented() {
        let err: Box<dyn std::error::Error> = Box::new(SpaceError::EmptySpace);
        assert!(err.source().is_none());
    }
}
