//! The Galaxy server facade: admin configuration, tool installation,
//! histories.
//!
//! Mirrors the administrative surface the paper automates on its AMI (§4):
//! an `admin_users` list gating tool installation, and an API key used by
//! Planemo and the startup script to drive workflows headlessly.

use std::fmt;

use crate::dataset::History;
use crate::tool::{Tool, ToolShed, ToolShedError};

/// Galaxy server configuration (the relevant subset of `galaxy.yml`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GalaxyConfig {
    /// Emails with administrative privileges (`admin_users`).
    pub admin_users: Vec<String>,
    /// The API key automation uses, if configured.
    pub api_key: Option<String>,
}

impl GalaxyConfig {
    /// A config with one admin and an API key — the paper's AMI setup.
    pub fn automated(admin_email: impl Into<String>, api_key: impl Into<String>) -> Self {
        GalaxyConfig {
            admin_users: vec![admin_email.into()],
            api_key: Some(api_key.into()),
        }
    }

    /// Whether an email has admin rights.
    pub fn is_admin(&self, email: &str) -> bool {
        self.admin_users.iter().any(|a| a == email)
    }
}

/// Galaxy API errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GalaxyError {
    /// The caller lacks admin rights.
    NotAdmin(String),
    /// The presented API key is wrong or missing.
    InvalidApiKey,
    /// Tool Shed failure.
    ToolShed(ToolShedError),
    /// No history with that index.
    NoSuchHistory(usize),
}

impl fmt::Display for GalaxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GalaxyError::NotAdmin(email) => write!(f, "`{email}` is not an admin user"),
            GalaxyError::InvalidApiKey => write!(f, "invalid or missing API key"),
            GalaxyError::ToolShed(e) => write!(f, "tool shed: {e}"),
            GalaxyError::NoSuchHistory(i) => write!(f, "no history with index {i}"),
        }
    }
}

impl std::error::Error for GalaxyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GalaxyError::ToolShed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ToolShedError> for GalaxyError {
    fn from(e: ToolShedError) -> Self {
        GalaxyError::ToolShed(e)
    }
}

/// A Galaxy server instance.
///
/// # Examples
///
/// ```
/// use galaxy_flow::{GalaxyConfig, GalaxyInstance, Tool};
///
/// let mut galaxy = GalaxyInstance::new(GalaxyConfig::automated("admin@lab.org", "key-123"));
/// galaxy.install_tool("admin@lab.org", Tool::from("sra-toolkit"))?;
/// let history = galaxy.create_history("SARS-CoV-2 run");
/// assert_eq!(galaxy.history(history)?.name(), "SARS-CoV-2 run");
/// # Ok::<(), galaxy_flow::GalaxyError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GalaxyInstance {
    config: GalaxyConfig,
    shed: ToolShed,
    histories: Vec<History>,
}

impl GalaxyInstance {
    /// Boots a Galaxy instance with the given configuration.
    pub fn new(config: GalaxyConfig) -> Self {
        GalaxyInstance {
            config,
            shed: ToolShed::new(),
            histories: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GalaxyConfig {
        &self.config
    }

    /// The Tool Shed.
    pub fn tool_shed(&self) -> &ToolShed {
        &self.shed
    }

    /// Installs a tool, requiring admin rights (the paper's `admin_users`
    /// gate).
    ///
    /// # Errors
    ///
    /// Returns [`GalaxyError::NotAdmin`] for non-admin callers and
    /// [`GalaxyError::ToolShed`] for duplicate installs.
    pub fn install_tool(&mut self, caller: &str, tool: Tool) -> Result<(), GalaxyError> {
        if !self.config.is_admin(caller) {
            return Err(GalaxyError::NotAdmin(caller.to_owned()));
        }
        self.shed.install(tool)?;
        Ok(())
    }

    /// Authenticates an API key.
    ///
    /// # Errors
    ///
    /// Returns [`GalaxyError::InvalidApiKey`] on mismatch or when no key is
    /// configured.
    pub fn authenticate(&self, api_key: &str) -> Result<(), GalaxyError> {
        match &self.config.api_key {
            Some(expected) if expected == api_key => Ok(()),
            _ => Err(GalaxyError::InvalidApiKey),
        }
    }

    /// Creates a history, returning its index.
    pub fn create_history(&mut self, name: impl Into<String>) -> usize {
        self.histories.push(History::new(name));
        self.histories.len() - 1
    }

    /// Borrows a history.
    ///
    /// # Errors
    ///
    /// Returns [`GalaxyError::NoSuchHistory`] for bad indices.
    pub fn history(&self, index: usize) -> Result<&History, GalaxyError> {
        self.histories
            .get(index)
            .ok_or(GalaxyError::NoSuchHistory(index))
    }

    /// Mutably borrows a history.
    ///
    /// # Errors
    ///
    /// Returns [`GalaxyError::NoSuchHistory`] for bad indices.
    pub fn history_mut(&mut self, index: usize) -> Result<&mut History, GalaxyError> {
        self.histories
            .get_mut(index)
            .ok_or(GalaxyError::NoSuchHistory(index))
    }

    /// Number of histories.
    pub fn history_count(&self) -> usize {
        self.histories.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admin_gate_enforced() {
        let mut g = GalaxyInstance::new(GalaxyConfig::automated("admin@x", "k"));
        assert!(g.install_tool("admin@x", Tool::from("fastqc")).is_ok());
        let err = g.install_tool("user@x", Tool::from("dada2")).unwrap_err();
        assert!(matches!(err, GalaxyError::NotAdmin(_)));
        assert!(g.tool_shed().is_installed(&"fastqc".into()));
        assert!(!g.tool_shed().is_installed(&"dada2".into()));
    }

    #[test]
    fn api_key_authentication() {
        let g = GalaxyInstance::new(GalaxyConfig::automated("a@x", "secret"));
        assert!(g.authenticate("secret").is_ok());
        assert!(matches!(g.authenticate("wrong"), Err(GalaxyError::InvalidApiKey)));
        let no_key = GalaxyInstance::new(GalaxyConfig::default());
        assert!(matches!(no_key.authenticate("any"), Err(GalaxyError::InvalidApiKey)));
    }

    #[test]
    fn histories_are_indexed() {
        let mut g = GalaxyInstance::new(GalaxyConfig::default());
        let h0 = g.create_history("one");
        let h1 = g.create_history("two");
        assert_eq!(g.history(h0).unwrap().name(), "one");
        assert_eq!(g.history(h1).unwrap().name(), "two");
        assert_eq!(g.history_count(), 2);
        assert!(matches!(g.history(9), Err(GalaxyError::NoSuchHistory(9))));
        assert!(g.history_mut(0).is_ok());
    }

    #[test]
    fn duplicate_tool_surfaces_shed_error() {
        let mut g = GalaxyInstance::new(GalaxyConfig::automated("a@x", "k"));
        g.install_tool("a@x", Tool::from("t")).unwrap();
        let err = g.install_tool("a@x", Tool::from("t")).unwrap_err();
        assert!(matches!(err, GalaxyError::ToolShed(_)));
        assert!(std::error::Error::source(&err).is_some());
    }
}
