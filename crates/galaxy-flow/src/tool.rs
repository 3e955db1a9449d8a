//! Tools and the Tool Shed.
//!
//! Galaxy's Tool Shed is its package registry: administrators install
//! versioned tools (FastQC, DADA2, Pangolin…) which workflows then reference
//! by id. This module reproduces the registry surface the paper's AMI setup
//! uses (§4: "installing and configuring Galaxy … along with necessary
//! tools").

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a tool within the shed, e.g. `"fastqc"`.
///
/// Stored as a `Cow` so the static tool names used by every built-in
/// workflow never hit the heap — workflow construction sits on the
/// fleet runtime's per-workload path, where each saved allocation is
/// multiplied by the fleet size.
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

/// The broad category a tool belongs to (mirrors Galaxy tool panels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ToolCategory {
    QualityControl,
    SequenceTrimming,
    Alignment,
    VariantAnalysis,
    Phylogenetics,
    Classification,
    Reporting,
    DataRetrieval,
    General,
}

/// Resource requirements a tool declares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToolRequirements {
    /// Minimum vCPUs.
    pub min_vcpus: u32,
    /// Minimum memory in GiB.
    pub min_memory_gib: u32,
}

impl Default for ToolRequirements {
    fn default() -> Self {
        ToolRequirements {
            min_vcpus: 1,
            min_memory_gib: 1,
        }
    }
}

/// A versioned tool.
#[derive(Debug, Clone, PartialEq)]
pub struct Tool {
    id: ToolId,
    name: String,
    version: String,
    category: ToolCategory,
    requirements: ToolRequirements,
}

impl Tool {
    /// Creates a tool description.
    pub fn new(
        id: impl Into<ToolId>,
        name: impl Into<String>,
        version: impl Into<String>,
        category: ToolCategory,
    ) -> Self {
        Tool {
            id: id.into(),
            name: name.into(),
            version: version.into(),
            category,
            requirements: ToolRequirements::default(),
        }
    }

    /// Sets explicit resource requirements (builder-style).
    pub fn with_requirements(mut self, requirements: ToolRequirements) -> Self {
        self.requirements = requirements;
        self
    }

    /// The tool id.
    pub fn id(&self) -> &ToolId {
        &self.id
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Version string.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// Panel category.
    pub fn category(&self) -> ToolCategory {
        self.category
    }

    /// Declared requirements.
    pub fn requirements(&self) -> ToolRequirements {
        self.requirements
    }
}

impl From<&'static str> for Tool {
    /// A minimal tool from a bare id (General category, version "1.0").
    fn from(id: &'static str) -> Self {
        Tool::new(id, id, "1.0", ToolCategory::General)
    }
}

/// Tool Shed errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolShedError {
    /// A tool with that id is already installed.
    AlreadyInstalled(ToolId),
    /// The tool is not installed.
    NotInstalled(ToolId),
}

impl fmt::Display for ToolShedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolShedError::AlreadyInstalled(id) => write!(f, "tool `{id}` already installed"),
            ToolShedError::NotInstalled(id) => write!(f, "tool `{id}` is not installed"),
        }
    }
}

impl std::error::Error for ToolShedError {}

/// The Tool Shed: the registry of installed tools.
///
/// # Examples
///
/// ```
/// use galaxy_flow::{Tool, ToolCategory, ToolShed};
///
/// let mut shed = ToolShed::new();
/// shed.install(Tool::new("fastqc", "FastQC", "0.12.1", ToolCategory::QualityControl))?;
/// assert!(shed.is_installed(&"fastqc".into()));
/// # Ok::<(), galaxy_flow::ToolShedError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ToolShed {
    tools: BTreeMap<ToolId, Tool>,
}

impl ToolShed {
    /// Creates an empty shed.
    pub fn new() -> Self {
        ToolShed::default()
    }

    /// Installs a tool.
    ///
    /// # Errors
    ///
    /// Returns [`ToolShedError::AlreadyInstalled`] on duplicates.
    pub fn install(&mut self, tool: Tool) -> Result<(), ToolShedError> {
        if self.tools.contains_key(tool.id()) {
            return Err(ToolShedError::AlreadyInstalled(tool.id().clone()));
        }
        self.tools.insert(tool.id().clone(), tool);
        Ok(())
    }

    /// Installs a tool, replacing any existing version.
    pub fn install_or_upgrade(&mut self, tool: Tool) {
        self.tools.insert(tool.id().clone(), tool);
    }

    /// Looks up a tool.
    ///
    /// # Errors
    ///
    /// Returns [`ToolShedError::NotInstalled`] when missing.
    pub fn get(&self, id: &ToolId) -> Result<&Tool, ToolShedError> {
        self.tools
            .get(id)
            .ok_or_else(|| ToolShedError::NotInstalled(id.clone()))
    }

    /// Whether a tool is installed.
    pub fn is_installed(&self, id: &ToolId) -> bool {
        self.tools.contains_key(id)
    }

    /// Iterates over installed tools in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Tool> {
        self.tools.values()
    }

    /// Number of installed tools.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// True if no tools are installed.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_lookup() {
        let mut shed = ToolShed::new();
        shed.install(Tool::new("dada2", "DADA2", "1.26", ToolCategory::QualityControl))
            .unwrap();
        let t = shed.get(&"dada2".into()).unwrap();
        assert_eq!(t.name(), "DADA2");
        assert_eq!(t.version(), "1.26");
        assert_eq!(t.category(), ToolCategory::QualityControl);
        assert_eq!(shed.len(), 1);
        assert!(!shed.is_empty());
    }

    #[test]
    fn duplicate_install_errors_but_upgrade_replaces() {
        let mut shed = ToolShed::new();
        shed.install(Tool::from("fastqc")).unwrap();
        assert!(matches!(
            shed.install(Tool::from("fastqc")),
            Err(ToolShedError::AlreadyInstalled(_))
        ));
        shed.install_or_upgrade(Tool::new(
            "fastqc",
            "FastQC",
            "0.12.1",
            ToolCategory::QualityControl,
        ));
        assert_eq!(shed.get(&"fastqc".into()).unwrap().version(), "0.12.1");
    }

    #[test]
    fn missing_tool_errors() {
        let shed = ToolShed::new();
        let err = shed.get(&"ghost".into()).unwrap_err();
        assert!(err.to_string().contains("ghost"));
        assert!(!shed.is_installed(&"ghost".into()));
    }

    #[test]
    fn requirements_builder() {
        let t = Tool::from("big").with_requirements(ToolRequirements {
            min_vcpus: 8,
            min_memory_gib: 32,
        });
        assert_eq!(t.requirements().min_vcpus, 8);
        assert_eq!(t.requirements().min_memory_gib, 32);
    }

    #[test]
    #[should_panic(expected = "empty id")]
    fn empty_tool_id_panics() {
        ToolId::new("");
    }

    #[test]
    fn iteration_is_ordered() {
        let mut shed = ToolShed::new();
        shed.install(Tool::from("b")).unwrap();
        shed.install(Tool::from("a")).unwrap();
        let ids: Vec<&str> = shed.iter().map(|t| t.id().as_str()).collect();
        assert_eq!(ids, vec!["a", "b"]);
    }
}
