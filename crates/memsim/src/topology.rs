//! Multi-GPU topology description.

use crate::link::Link;
use serde::{Deserialize, Serialize};

/// Index of a GPU device in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GpuId(pub u32);

impl GpuId {
    /// The id as a `usize` for slice indexing.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A host with `n` GPUs, each with its own host link and device memory.
///
/// Matches the paper's testbed shape: every GPU hangs off its own PCIe 4.0
/// ×16 slot (so host→GPU transfers to different GPUs proceed in parallel),
/// and GPUs are pairwise NVLink-connected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of GPUs.
    pub num_gpus: u32,
    /// Device memory per GPU, in bytes.
    pub gpu_memory_bytes: u64,
    /// Host↔GPU link (one independent instance per GPU).
    pub host_link: Link,
    /// GPU↔GPU link.
    pub peer_link: Link,
    /// Host (CPU) memory in bytes — capacity for offloaded experts.
    pub host_memory_bytes: u64,
}

impl Topology {
    /// Start a validated [`TopologyBuilder`], seeded with the paper's
    /// per-GPU defaults (24 GiB devices, PCIe 4.0 ×16 host links,
    /// pairwise NVLink, 480 GiB host memory) and a single GPU.
    #[must_use]
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// The paper's six-GPU testbed: 6× RTX 3090 (24 GB), PCIe 4.0 ×16 to
    /// host, pairwise NVLink, 480 GB host memory.
    #[must_use]
    pub fn paper_testbed() -> Self {
        Self {
            num_gpus: 6,
            gpu_memory_bytes: 24 * (1u64 << 30),
            host_link: Link::pcie4_x16(),
            peer_link: Link::nvlink(),
            host_memory_bytes: 480 * (1u64 << 30),
        }
    }

    /// A single-GPU topology for unit tests and small examples.
    #[must_use]
    pub fn single_gpu(gpu_memory_bytes: u64) -> Self {
        Self {
            num_gpus: 1,
            gpu_memory_bytes,
            host_link: Link::pcie4_x16(),
            peer_link: Link::nvlink(),
            host_memory_bytes: 480 * (1u64 << 30),
        }
    }

    /// Iterator over all GPU ids.
    pub fn gpus(&self) -> impl Iterator<Item = GpuId> {
        (0..self.num_gpus).map(GpuId)
    }

    /// Total GPU memory across the cluster.
    #[must_use]
    pub fn total_gpu_memory(&self) -> u64 {
        u64::from(self.num_gpus) * self.gpu_memory_bytes
    }
}

/// Why a [`TopologyBuilder::build`] call was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// `num_gpus` was zero — a topology needs at least one device.
    ZeroGpus,
    /// Per-GPU device memory was zero.
    ZeroGpuMemory,
    /// Host memory was zero — the offload tier needs somewhere to live.
    ZeroHostMemory,
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ZeroGpus => write!(f, "topology must have at least one GPU"),
            Self::ZeroGpuMemory => write!(f, "per-GPU memory must be non-zero"),
            Self::ZeroHostMemory => write!(f, "host memory must be non-zero"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Validated builder for [`Topology`] — the one construction path for
/// custom shapes. Rejects degenerate configurations (`num_gpus == 0`,
/// zero device or host memory) that the raw struct literal would let
/// through into division-by-zero land.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    num_gpus: u32,
    gpu_memory_bytes: u64,
    host_link: Link,
    peer_link: Link,
    host_memory_bytes: u64,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self {
            num_gpus: 1,
            gpu_memory_bytes: 24 * (1u64 << 30),
            host_link: Link::pcie4_x16(),
            peer_link: Link::nvlink(),
            host_memory_bytes: 480 * (1u64 << 30),
        }
    }
}

impl TopologyBuilder {
    /// Number of GPUs in the replica.
    #[must_use]
    pub fn num_gpus(mut self, n: u32) -> Self {
        self.num_gpus = n;
        self
    }

    /// Device memory per GPU, in bytes.
    #[must_use]
    pub fn gpu_memory_bytes(mut self, bytes: u64) -> Self {
        self.gpu_memory_bytes = bytes;
        self
    }

    /// Host↔GPU link (one independent instance per GPU).
    #[must_use]
    pub fn host_link(mut self, link: Link) -> Self {
        self.host_link = link;
        self
    }

    /// GPU↔GPU peer link used by peer fetches and the EP all2all.
    #[must_use]
    pub fn peer_link(mut self, link: Link) -> Self {
        self.peer_link = link;
        self
    }

    /// Host (CPU) memory in bytes.
    #[must_use]
    pub fn host_memory_bytes(mut self, bytes: u64) -> Self {
        self.host_memory_bytes = bytes;
        self
    }

    /// Validate and build the topology.
    ///
    /// # Errors
    /// Returns a [`TopologyError`] when the shape is degenerate:
    /// zero GPUs, zero per-GPU memory, or zero host memory.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.num_gpus == 0 {
            return Err(TopologyError::ZeroGpus);
        }
        if self.gpu_memory_bytes == 0 {
            return Err(TopologyError::ZeroGpuMemory);
        }
        if self.host_memory_bytes == 0 {
            return Err(TopologyError::ZeroHostMemory);
        }
        Ok(Topology {
            num_gpus: self.num_gpus,
            gpu_memory_bytes: self.gpu_memory_bytes,
            host_link: self.host_link,
            peer_link: self.peer_link,
            host_memory_bytes: self.host_memory_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let t = Topology::paper_testbed();
        assert_eq!(t.num_gpus, 6);
        assert_eq!(t.total_gpu_memory(), 6 * 24 * (1u64 << 30));
        assert_eq!(t.gpus().count(), 6);
    }

    #[test]
    fn single_gpu_topology() {
        let t = Topology::single_gpu(8 << 30);
        assert_eq!(t.num_gpus, 1);
    }

    #[test]
    fn builder_matches_presets() {
        let built = Topology::builder()
            .num_gpus(6)
            .gpu_memory_bytes(24 * (1u64 << 30))
            .build()
            .expect("paper shape is valid");
        assert_eq!(built, Topology::paper_testbed());
        let single = Topology::builder()
            .gpu_memory_bytes(8 << 30)
            .build()
            .expect("single-GPU shape is valid");
        assert_eq!(single, Topology::single_gpu(8 << 30));
    }

    #[test]
    fn builder_rejects_degenerate_shapes() {
        assert_eq!(
            Topology::builder().num_gpus(0).build(),
            Err(TopologyError::ZeroGpus)
        );
        assert_eq!(
            Topology::builder().gpu_memory_bytes(0).build(),
            Err(TopologyError::ZeroGpuMemory)
        );
        assert_eq!(
            Topology::builder().host_memory_bytes(0).build(),
            Err(TopologyError::ZeroHostMemory)
        );
        assert!(TopologyError::ZeroGpus.to_string().contains("GPU"));
    }
}
