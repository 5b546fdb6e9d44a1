// ishare::shard — hash partitioning of base streams (DESIGN.md §14).
//
// A ShardPlan names, per base table, the column whose value decides which
// shard runtime owns a row. Tables absent from the plan are *broadcast*:
// every shard receives every row (the classic dimension-table strategy —
// replicating a small build side is cheaper than repartitioning the probe
// side). Ownership is a pure function of the key value and the shard
// count (Value::Hash() % N), so two runs — or a run and its crash-
// recovery replay — route every row identically.
//
// Correctness contract (the *co-partitioning* requirement, DESIGN.md
// §14): the sharded group is bit-exact with the single-runtime baseline
// when every query's group-by keys and join keys are aligned with the
// partition keys of the partitioned tables it reads — then each output
// group lives wholly in one shard, the per-query merged results are
// disjoint unions, and per-group floating-point accumulation order is
// the dataset order restricted to the group, exactly as unsharded. The
// shard harness and the 100-seed property test enforce this empirically;
// ValidateShardPlan checks the structural half (keys exist and are
// hashable columns of their tables).

#ifndef ISHARE_SHARD_PARTITIONER_H_
#define ISHARE_SHARD_PARTITIONER_H_

#include <map>
#include <string>

#include "ishare/common/status.h"
#include "ishare/types/schema.h"
#include "ishare/types/value.h"

namespace ishare::shard {

// table name -> partition key column. Tables not listed are broadcast.
struct ShardPlan {
  std::map<std::string, std::string> keys;
};

// Owning shard of a key value: Value::Hash() (Mix64 for ints/doubles,
// FNV-1a for strings) modulo the shard count. num_shards must be >= 1.
inline int OwnerShard(const Value& key, int num_shards) {
  CHECK(num_shards >= 1) << "bad shard count " << num_shards;
  return static_cast<int>(key.Hash() % static_cast<uint64_t>(num_shards));
}

// Structural validation of a plan against one table's schema: the key
// column must exist. Broadcast tables (not in the plan) always pass.
inline Status ValidateShardKey(const ShardPlan& plan,
                               const std::string& table,
                               const Schema& schema) {
  auto it = plan.keys.find(table);
  if (it == plan.keys.end()) return Status::OK();  // broadcast
  if (schema.IndexOf(it->second) < 0) {
    return Status::InvalidArgument("shard plan keys table '" + table +
                                   "' by unknown column '" + it->second +
                                   "'");
  }
  return Status::OK();
}

}  // namespace ishare::shard

#endif  // ISHARE_SHARD_PARTITIONER_H_
