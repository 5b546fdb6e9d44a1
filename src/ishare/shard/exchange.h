// ishare::shard — cross-shard delta exchange at pace boundaries
// (DESIGN.md §14).
//
// The ExchangeFabric models the repartitioning network between M arrival
// partitions (independent producer streams; think Kafka partitions) and N
// shard runtimes. Every base row has a fixed *global index* (its position
// in the preloaded dataset), an *arrival partition* (index mod M) and an
// *owner shard* (hash of its ShardPlan key mod N; broadcast tables are
// owned by every shard). Delivery and consumption are decoupled:
//
//   deliver   partition p's clock advances to window fraction f and
//             releases its next rows (possibly warped/reordered by a
//             PerturbedStreamSource clock) — each released row is routed
//             into the owner shard's in-flight staging set;
//   release   shard s may consume rows of a table only as the longest
//             *canonical* prefix — ascending global index restricted to
//             the rows s owns — that has been fully delivered. A lagging
//             arrival partition therefore head-of-line-blocks the shards
//             downstream of it: that is exactly the straggler signal the
//             slackness policy absorbs (DESIGN.md §14);
//   drain     DrainCanonical hands the next `count` canonical rows to
//             the shard source, CHECK-asserting that the ordered
//             in-flight set's minimum matches the canonical expectation
//             at every element. Multiple producers may deliver out of
//             order; consumption order is canonical or the process dies.
//
// Determinism contract: the delivered set is a pure monotone function of
// the window fraction (partition clocks are StreamSources, whose release
// schedule — perturbed or not — is deterministic in f and stable across
// Reset()). Hence the canonical release prefix K(f) is too, and a crash-
// recovery replay that re-advances a shard source to its checkpointed
// fraction regenerates a bit-identical base log. This is the property
// that lets shard checkpoints persist only consumer offsets for base
// buffers, exactly like the unsharded engine (DESIGN.md §8).
//
// Budget-visible staging (DESIGN.md §9): in-flight bytes per shard are
// published to the flow MemoryBudget under "xchg:s<k>" when a budget is
// attached.

#ifndef ISHARE_SHARD_EXCHANGE_H_
#define ISHARE_SHARD_EXCHANGE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ishare/common/fraction.h"
#include "ishare/common/status.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/shard/partitioner.h"
#include "ishare/storage/perturbed_source.h"
#include "ishare/storage/stream_source.h"

namespace ishare::shard {

struct ExchangeOptions {
  int num_shards = 1;
  // Arrival partitions; 0 means one per shard. Rows are assigned round-
  // robin by global index, modelling interleaved producer streams.
  int num_partitions = 0;
  // Optional perturbation of every arrival partition's release clock
  // (seeded per partition as plan.seed + partition index). kReorder events
  // make partitions deliver out of canonical order — the hazard
  // DrainCanonical's assert and the satellite test pin.
  FaultPlan partition_perturbation;
};

// Monotone counters describing what the fabric did.
struct ExchangeStats {
  int64_t delivered_tuples = 0;   // rows routed into staging (per shard copy)
  int64_t delivered_bytes = 0;
  int64_t drained_tuples = 0;     // rows handed to shard sources
  int64_t holds = 0;              // HoldPartition calls
};

class ExchangeFabric {
 public:
  ExchangeFabric() = default;
  ExchangeFabric(const ExchangeFabric&) = delete;
  ExchangeFabric& operator=(const ExchangeFabric&) = delete;

  // Copies every table of `dataset` (rows and schema) and precomputes the
  // routing: owner shard per row, arrival partition membership, canonical
  // per-shard orders, and the per-partition clock sources.
  Status Init(const StreamSource& dataset, const ShardPlan& plan,
              ExchangeOptions opts);

  int num_shards() const { return opts_.num_shards; }
  int num_partitions() const { return num_partitions_; }
  std::vector<std::string> TableNames() const;
  const Schema* TableSchema(const std::string& table) const;

  // Advances every (un-held) partition clock to `fraction` and routes the
  // newly released rows. Idempotent for a repeated fraction; partitions
  // already past `fraction` (a straggler shard re-asking for an older
  // point) are left untouched. At fraction >= 1 holds are ignored: the
  // trigger flushes all in-flight data, so a stall delays rows but never
  // loses them.
  Status DeliverUpTo(double fraction, const Fraction* exact);

  // Freezes / unfreezes partition p's clock (ChaosLayer::kShardStall's
  // actuator). Held partitions stop delivering until released or until
  // the trigger.
  Status HoldPartition(int p);
  Status ReleasePartition(int p);
  bool IsHeld(int p) const;

  // Longest canonical prefix of (table, shard) that is fully delivered,
  // in rows. Monotone in delivery; amortized O(1) via a cursor.
  int64_t ReleasableCount(const std::string& table, int shard);
  // Canonical rows already drained by the shard source.
  int64_t ConsumedCount(const std::string& table, int shard) const;
  // Rows of `table` owned by `shard` in total (the shard's window size).
  int64_t OwnedRows(const std::string& table, int shard) const;

  // Hands the next `count` canonical rows of (table, shard) to `out`,
  // asserting canonical consumption order (see file comment).
  Status DrainCanonical(const std::string& table, int shard, int64_t count,
                        std::vector<DeltaTuple>* out);

  // Clears all delivery/consumption state (clocks, staging, cursors) but
  // keeps datasets and routing. Holds are cleared too: a recovery rebuild
  // starts from a clean fabric and replays deterministically. Group
  // recovery calls this before shard sources replay.
  void ResetDelivery();

  // Publishes per-shard in-flight bytes to `budget` under "xchg:s<k>".
  void AttachBudget(flow::MemoryBudget* budget);

  // In-flight bytes staged for one shard (delivered, not yet drained).
  int64_t StagingBytes(int shard) const;

  const ExchangeStats& stats() const { return stats_; }

 private:
  struct ShardLane {
    std::set<int64_t> pending;  // delivered, not yet consumed (global idx)
    int64_t consumed = 0;       // canonical rows drained
    int64_t cursor = 0;         // releasable-prefix scan position
  };
  struct TableX {
    std::string name;
    Schema schema;
    std::vector<DeltaTuple> rows;  // full dataset, by global index
    int key_col = -1;              // -1 = broadcast
    std::vector<int> owner;        // per row; empty for broadcast
    std::vector<ShardLane> lanes;  // per shard
  };

  TableX* FindTable(const std::string& name);
  const TableX* FindTable(const std::string& name) const;
  void RouteRow(TableX& t, int64_t idx);
  void PublishStagingBytes();

  ExchangeOptions opts_;
  int num_partitions_ = 0;
  std::map<std::string, TableX> tables_;  // ordered: deterministic walks

  // Per-partition release clocks: each holds one single-column table per
  // fabric table whose rows are the partition's global indices in dataset
  // order; a consumer per (partition, table) tracks what the fabric has
  // already routed. Perturbed clocks deliver late/out of order, never
  // differently across replays.
  std::vector<std::unique_ptr<StreamSource>> clocks_;
  std::vector<std::map<std::string, int>> clock_consumers_;
  std::vector<bool> held_;

  std::vector<int64_t> staging_bytes_;     // per shard, across tables
  flow::MemoryBudget* budget_ = nullptr;
  std::vector<int> budget_components_;     // per shard
  ExchangeStats stats_;
};

// StreamSource facade one shard runtime consumes: its tables are the
// shard's canonical row sequences, released through the shared fabric.
// DoAdvance delivers (advancing partition clocks) and then appends the
// newly releasable canonical prefix of every table to the shard's base
// buffers — so a shard's base log is always the dataset order restricted
// to the rows it owns, bit-independent of arrival interleaving.
class ExchangeShardSource : public StreamSource {
 public:
  ExchangeShardSource(ExchangeFabric* fabric, int shard);

  int shard() const { return shard_; }

  // StreamSource::Reset clears the base buffers; fabric delivery state is
  // group-scoped and reset separately (ExchangeFabric::ResetDelivery).
  void Reset() override { StreamSource::Reset(); }

 protected:
  Status DoAdvance(double fraction, const Fraction* exact) override;

 private:
  ExchangeFabric* fabric_;
  int shard_;
};

}  // namespace ishare::shard

#endif  // ISHARE_SHARD_EXCHANGE_H_
