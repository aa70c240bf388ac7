#include "storage/storage_cluster.hpp"

#include "common/error.hpp"
#include "fault/fault_plan.hpp"

namespace dooc::storage {

StorageCluster::StorageCluster(int num_nodes, const StorageConfig& base) {
  DOOC_REQUIRE(num_nodes > 0, "storage cluster needs at least one node");
  shards_.reserve(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) shards_.push_back(std::make_unique<CatalogShard>());
  std::vector<CatalogShard*> shard_ptrs;
  shard_ptrs.reserve(shards_.size());
  for (auto& s : shards_) shard_ptrs.push_back(s.get());
  catalog_ = std::make_unique<DistributedCatalog>(std::move(shard_ptrs));

  // One shared plan per cluster (it is cluster state). Programmatic config
  // wins; otherwise DOOC_FAULTS activates injection for the whole run.
  fault_plan_ = base.fault_plan != nullptr ? base.fault_plan : fault::FaultPlan::from_env();
  // Same resolution for the codec policy: programmatic config, else
  // DOOC_CODEC, else off. Resolved once so every node agrees.
  codec_ = base.codec ? *base.codec : spmv::codec::CodecConfig::from_env();
  // And for the replication policy: every node must agree on the heat
  // thresholds, replica cap and decay, or the catalog's decisions would
  // mean different things to different fetchers.
  replication_ = base.replication ? *base.replication : ReplicationConfig::from_env();

  nodes_.reserve(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    StorageConfig cfg = base;
    cfg.seed = base.seed + static_cast<std::uint64_t>(i) * 1000003;
    cfg.fault_plan = fault_plan_;
    cfg.codec = codec_;
    cfg.replication = replication_;
    nodes_.push_back(std::make_unique<StorageNode>(i, cfg, catalog_.get()));
  }
  std::vector<StorageNode*> peers;
  peers.reserve(nodes_.size());
  for (auto& n : nodes_) peers.push_back(n.get());
  for (auto& n : nodes_) n->set_peers(peers);
}

StorageCluster::~StorageCluster() {
  // A node's fetchers call into its peers: stop every node's threads
  // before destroying any node.
  for (auto& n : nodes_) n->shutdown();
}

void StorageCluster::set_tenant(TenantId tenant, double weight, int priority) {
  for (auto& n : nodes_) n->set_tenant(tenant, weight, priority);
}

void StorageCluster::retire_tenant(TenantId tenant) {
  for (auto& n : nodes_) n->retire_tenant(tenant);
}

StorageStats StorageCluster::total_stats() {
  StorageStats total;
  for (auto& n : nodes_) {
    const StorageStats s = n->stats();
    total.disk_reads += s.disk_reads;
    total.disk_read_bytes += s.disk_read_bytes;
    total.disk_writes += s.disk_writes;
    total.disk_write_bytes += s.disk_write_bytes;
    total.remote_fetches += s.remote_fetches;
    total.remote_fetch_bytes += s.remote_fetch_bytes;
    total.remote_store_bytes += s.remote_store_bytes;
    total.evictions += s.evictions;
    total.evicted_bytes += s.evicted_bytes;
    total.lookup_hops += s.lookup_hops;
    total.read_requests += s.read_requests;
    total.write_requests += s.write_requests;
    total.prefetch_requests += s.prefetch_requests;
    total.decoded_blocks += s.decoded_blocks;
    total.decoded_bytes += s.decoded_bytes;
    total.replica_hits += s.replica_hits;
    total.replica_misses += s.replica_misses;
    total.replica_promotions += s.replica_promotions;
    total.replica_bypass += s.replica_bypass;
    total.disk_read_seconds += s.disk_read_seconds;
    total.disk_write_seconds += s.disk_write_seconds;
    total.decode_seconds += s.decode_seconds;
  }
  return total;
}

std::uint64_t StorageCluster::total_resident_bytes() {
  std::uint64_t total = 0;
  for (auto& n : nodes_) total += n->resident_bytes();
  return total;
}

bool StorageCluster::forget_block(const BlockKey& key) {
  // Refuse if any node still has the block busy (pinned / awaited / in
  // flight): then the data is not actually lost and must not be clobbered.
  for (auto& n : nodes_) {
    if (n->forget_block_local(key) == StorageNode::ForgetResult::Busy) return false;
  }
  catalog_->shard_for(key.array).reset_block(key);
  return true;
}

}  // namespace dooc::storage
