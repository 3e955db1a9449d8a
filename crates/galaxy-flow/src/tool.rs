//! Tool ids: the Galaxy tool (FastQC, DADA2, Pangolin…) a workflow step
//! runs.

use std::borrow::Cow;
use std::fmt;

/// Identifier of a tool, e.g. `"fastqc"`.
///
/// Stored as a `Cow` so the static tool names of the built-in workflows
/// are borrowed, not copied. Workflows are built for `.ga` export and
/// tests; the fleet runtime builds its plans from step tables and makes
/// no `Workflow`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ToolId(Cow<'static, str>);

impl ToolId {
    /// Creates a tool id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is empty.
    pub fn new(id: impl Into<Cow<'static, str>>) -> Self {
        let id = id.into();
        assert!(!id.is_empty(), "ToolId: empty id");
        ToolId(id)
    }

    /// The raw id string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ToolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&'static str> for ToolId {
    fn from(s: &'static str) -> Self {
        ToolId::new(s)
    }
}

impl From<String> for ToolId {
    fn from(s: String) -> Self {
        ToolId::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "empty id")]
    fn empty_tool_id_panics() {
        ToolId::new("");
    }
}
