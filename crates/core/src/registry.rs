//! The function registry: the control-plane metadata a FaaS platform
//! keeps per deployed function — name, handler, memory reservation, and
//! invocation timeout.
//!
//! The paper's prototype hard-wires its 17 functions; a platform a user
//! would adopt needs deployment metadata and admission checks (the
//! BeagleBone's 512 MB ceiling), so this module provides them.

use std::collections::BTreeMap;
use std::fmt;

use microfaas_sim::SimDuration;
use microfaas_workloads::FunctionId;

/// Worker RAM available to a function on the BeagleBone Black.
const WORKER_MEMORY_MB: u32 = 512;

/// Metadata for one deployed function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSpec {
    /// The handler to execute.
    pub handler: FunctionId,
    /// Memory the function reserves, MB.
    pub memory_mb: u32,
    /// Kill the invocation after this long (None = run to completion,
    /// the paper's model).
    pub timeout: Option<SimDuration>,
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A function with this name already exists.
    NameTaken(String),
    /// The memory reservation exceeds the worker's RAM.
    MemoryExceedsWorker {
        /// Requested reservation.
        requested_mb: u32,
    },
    /// A zero timeout can never complete an invocation.
    ZeroTimeout,
    /// Lookup failed.
    NoSuchFunction(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::NameTaken(name) => write!(f, "function '{name}' already deployed"),
            RegistryError::MemoryExceedsWorker { requested_mb } => write!(
                f,
                "{requested_mb} MB exceeds the worker's {WORKER_MEMORY_MB} MB"
            ),
            RegistryError::ZeroTimeout => write!(f, "timeout must be positive"),
            RegistryError::NoSuchFunction(name) => write!(f, "no function named '{name}'"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Each function's effective invocation timeout, indexed by
/// [`FunctionId::index`]; built by [`FunctionRegistry::timeouts`]. The
/// default sets no limit, the paper's run-to-completion model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeoutTable([Option<SimDuration>; FunctionId::ALL.len()]);

impl TimeoutTable {
    /// The kill deadline for one invocation of `function`, if any.
    pub fn get(&self, function: FunctionId) -> Option<SimDuration> {
        self.0[function.index() as usize]
    }
}

/// The deployed-function catalog.
///
/// # Examples
///
/// ```
/// use microfaas::registry::{FunctionRegistry, FunctionSpec};
/// use microfaas_sim::SimDuration;
/// use microfaas_workloads::FunctionId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut registry = FunctionRegistry::default();
/// registry.deploy(
///     "thumbnailer",
///     FunctionSpec {
///         handler: FunctionId::Decompress,
///         memory_mb: 128,
///         timeout: Some(SimDuration::from_secs(30)),
///     },
/// )?;
/// assert_eq!(registry.resolve("thumbnailer")?.handler, FunctionId::Decompress);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FunctionRegistry {
    functions: BTreeMap<String, FunctionSpec>,
}

impl FunctionRegistry {
    /// A registry with every Table-I function deployed under its paper
    /// name, 128 MB, no timeout (the paper's run-to-completion model).
    pub fn paper_suite() -> Self {
        let mut registry = FunctionRegistry::default();
        for handler in FunctionId::ALL {
            registry
                .deploy(
                    handler.name(),
                    FunctionSpec {
                        handler,
                        memory_mb: 128,
                        timeout: None,
                    },
                )
                .expect("paper names are unique and within limits");
        }
        registry
    }

    /// Deploys a function.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] when the name is taken, the reservation
    /// exceeds the worker's 512 MB of RAM, or the timeout is zero.
    pub fn deploy(&mut self, name: &str, spec: FunctionSpec) -> Result<(), RegistryError> {
        if self.functions.contains_key(name) {
            return Err(RegistryError::NameTaken(name.to_string()));
        }
        if spec.memory_mb > WORKER_MEMORY_MB {
            return Err(RegistryError::MemoryExceedsWorker {
                requested_mb: spec.memory_mb,
            });
        }
        if spec.timeout == Some(SimDuration::ZERO) {
            return Err(RegistryError::ZeroTimeout);
        }
        self.functions.insert(name.to_string(), spec);
        Ok(())
    }

    /// Removes a deployment. Returns the removed spec.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::NoSuchFunction`] when absent.
    pub fn remove(&mut self, name: &str) -> Result<FunctionSpec, RegistryError> {
        self.functions
            .remove(name)
            .ok_or_else(|| RegistryError::NoSuchFunction(name.to_string()))
    }

    /// Looks a function up by name.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::NoSuchFunction`] when absent.
    pub fn resolve(&self, name: &str) -> Result<&FunctionSpec, RegistryError> {
        self.functions
            .get(name)
            .ok_or_else(|| RegistryError::NoSuchFunction(name.to_string()))
    }

    /// Every function's effective invocation timeout, resolved once per
    /// run: the tighter of `platform` and the timeout deployed under
    /// the function's paper name ([`FunctionId::name`]). A handler
    /// deployed only under another name gets no per-function limit from
    /// that deployment.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas::registry::{FunctionRegistry, FunctionSpec};
    /// use microfaas_sim::SimDuration;
    /// use microfaas_workloads::FunctionId;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut registry = FunctionRegistry::paper_suite();
    /// registry.remove("MatMul")?;
    /// registry.deploy(
    ///     "MatMul",
    ///     FunctionSpec {
    ///         handler: FunctionId::MatMul,
    ///         memory_mb: 128,
    ///         timeout: Some(SimDuration::from_secs(2)),
    ///     },
    /// )?;
    /// let timeouts = registry.timeouts(Some(SimDuration::from_secs(5)));
    /// assert_eq!(timeouts.get(FunctionId::MatMul), Some(SimDuration::from_secs(2)));
    /// assert_eq!(timeouts.get(FunctionId::FloatOps), Some(SimDuration::from_secs(5)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn timeouts(&self, platform: Option<SimDuration>) -> TimeoutTable {
        TimeoutTable(FunctionId::ALL.map(|function| {
            let deployed = self
                .functions
                .get(function.name())
                .and_then(|spec| spec.timeout);
            match (platform, deployed) {
                (Some(platform), Some(per_function)) => Some(platform.min(per_function)),
                (platform, per_function) => platform.or(per_function),
            }
        }))
    }

    /// Deployed names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.functions.keys().map(String::as_str).collect()
    }

    /// Number of deployments.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True if nothing is deployed.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

#[cfg(test)]
impl TimeoutTable {
    /// The paper suite's table under one platform-wide `limit`, for the
    /// engines' timeout tests.
    pub(crate) fn platform(limit: SimDuration) -> Self {
        FunctionRegistry::paper_suite().timeouts(Some(limit))
    }
}

#[cfg(test)]
impl FunctionRegistry {
    /// Redeploys `function` under its paper name with `timeout`, for the
    /// engines' timeout tests.
    pub(crate) fn redeploy_with_timeout(&mut self, function: FunctionId, timeout: SimDuration) {
        let mut spec = self
            .remove(function.name())
            .expect("the function is deployed under its paper name");
        spec.timeout = Some(timeout);
        self.deploy(function.name(), spec)
            .expect("redeploying a removed name succeeds");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(handler: FunctionId) -> FunctionSpec {
        FunctionSpec {
            handler,
            memory_mb: 64,
            timeout: None,
        }
    }

    #[test]
    fn deploy_resolve_remove() {
        let mut registry = FunctionRegistry::default();
        registry
            .deploy("f", spec(FunctionId::FloatOps))
            .expect("deploy");
        assert_eq!(
            registry.resolve("f").expect("found").handler,
            FunctionId::FloatOps
        );
        assert_eq!(registry.len(), 1);
        registry.remove("f").expect("removed");
        assert!(registry.is_empty());
        assert!(matches!(
            registry.resolve("f"),
            Err(RegistryError::NoSuchFunction(_))
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut registry = FunctionRegistry::default();
        registry
            .deploy("f", spec(FunctionId::FloatOps))
            .expect("deploy");
        assert_eq!(
            registry.deploy("f", spec(FunctionId::MatMul)),
            Err(RegistryError::NameTaken("f".to_string()))
        );
    }

    #[test]
    fn memory_admission_check() {
        let mut registry = FunctionRegistry::default();
        let fat = FunctionSpec {
            handler: FunctionId::MatMul,
            memory_mb: 1_024,
            timeout: None,
        };
        assert_eq!(
            registry.deploy("fat", fat),
            Err(RegistryError::MemoryExceedsWorker {
                requested_mb: 1_024
            })
        );
        // Exactly the worker's RAM is allowed (single tenancy).
        let exact = FunctionSpec {
            handler: FunctionId::MatMul,
            memory_mb: WORKER_MEMORY_MB,
            timeout: None,
        };
        registry.deploy("exact", exact).expect("fits");
    }

    #[test]
    fn zero_timeout_rejected() {
        let mut registry = FunctionRegistry::default();
        let broken = FunctionSpec {
            handler: FunctionId::FloatOps,
            memory_mb: 64,
            timeout: Some(SimDuration::ZERO),
        };
        assert_eq!(
            registry.deploy("broken", broken),
            Err(RegistryError::ZeroTimeout)
        );
    }

    #[test]
    fn paper_suite_has_all_seventeen() {
        let registry = FunctionRegistry::paper_suite();
        assert_eq!(registry.len(), 17);
        assert_eq!(
            registry.resolve("CascSHA").expect("deployed").handler,
            FunctionId::CascSha
        );
        assert!(registry.names().contains(&"COSGet"));
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert_eq!(
            RegistryError::MemoryExceedsWorker { requested_mb: 600 }.to_string(),
            "600 MB exceeds the worker's 512 MB"
        );
    }
}
