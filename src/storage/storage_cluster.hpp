// Convenience owner of the whole distributed storage layer: one catalog
// shard and one storage node per virtual node, wired peer-to-peer
// ("complete peer-to-peer connections between them" — paper Fig. 2).
#pragma once

#include <memory>
#include <vector>

#include "storage/storage_node.hpp"

namespace dooc::storage {

class StorageCluster {
 public:
  /// `base` is cloned per node (each gets its own scratch subdirectory and
  /// a derived RNG seed).
  StorageCluster(int num_nodes, const StorageConfig& base);
  ~StorageCluster();

  StorageCluster(const StorageCluster&) = delete;
  StorageCluster& operator=(const StorageCluster&) = delete;

  [[nodiscard]] int num_nodes() const noexcept { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] StorageNode& node(int id) { return *nodes_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] DistributedCatalog& catalog() noexcept { return *catalog_; }
  /// The cluster's shared fault-injection plan: the one from the base
  /// config, else DOOC_FAULTS, else null (faults off). With a plan present
  /// the engine runs its fault-recovery policy instead of aborting on the
  /// first storage error.
  [[nodiscard]] const std::shared_ptr<fault::FaultPlan>& fault_plan() const noexcept {
    return fault_plan_;
  }
  /// The cluster's resolved codec policy: the one from the base config,
  /// else DOOC_CODEC, else off (decode of frames always works regardless).
  [[nodiscard]] const spmv::codec::CodecConfig& codec() const noexcept { return codec_; }
  /// The cluster's resolved replication policy: the one from the base
  /// config, else DOOC_REPLICATION, else off. Resolved once so the heat
  /// thresholds, replica cap and decay agree on every node.
  [[nodiscard]] const ReplicationConfig& replication() const noexcept { return replication_; }

  /// Register / retire a tenant (job) on every node's fair-share arbiter.
  void set_tenant(TenantId tenant, double weight, int priority = 0);
  void retire_tenant(TenantId tenant);

  /// Aggregate statistics over all nodes.
  [[nodiscard]] StorageStats total_stats();
  [[nodiscard]] std::uint64_t total_resident_bytes();

  /// Lost-block recovery: purge the block's in-memory state on every node
  /// and wipe its catalog entry so a resurrected producer may rewrite it.
  /// Returns false (and changes nothing durable) when some node still has
  /// the block busy — the data is not actually lost then.
  bool forget_block(const BlockKey& key);

 private:
  std::vector<std::unique_ptr<CatalogShard>> shards_;
  std::unique_ptr<DistributedCatalog> catalog_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  std::shared_ptr<fault::FaultPlan> fault_plan_;
  spmv::codec::CodecConfig codec_;
  ReplicationConfig replication_;
};

}  // namespace dooc::storage
