// ishare::shard — cross-shard delta exchange at pace boundaries
// (DESIGN.md §14).
//
// The ExchangeFabric models the repartitioning network between N arrival
// partitions (independent producer streams; think Kafka partitions) and
// the N shard runtimes. Every base row has a fixed *global index* (its
// position in the preloaded dataset), an *arrival partition* (index mod N)
// and an *owner shard* (hash of its ShardPlan key mod N; broadcast tables
// are owned by every shard). Delivery and consumption are decoupled:
//
//   deliver   DeliverUpTo(num/den) raises every partition's delivered
//             count to floor(num * n_p / den) of its n_p rows (all of them
//             at the trigger); a count never goes backwards, so a
//             straggler re-asking for an older point delivers nothing.
//             A row is delivered when its rank within its partition is
//             below that partition's count, and each delivered row is
//             staged for its owner shard (every shard, if broadcast);
//   release   shard s may consume its owned rows of a table, in dataset
//             order, up to the first one not yet delivered;
//   drain     DrainReleasable hands the releasable rows the shard has
//             not yet taken to its source and unstages them.
//
// Determinism contract: delivery is a pure monotone function of the
// furthest window point any shard asked for, and at one point every
// partition has delivered the same fraction of its rows, so the delivered
// rows always form a prefix in dataset order. A shard's base log is
// therefore the dataset order restricted to the rows it owns, and a
// crash-recovery replay that re-advances a shard source to its
// checkpointed point regenerates a bit-identical base log. This is the
// property that lets shard checkpoints persist only consumer offsets for
// base buffers, exactly like the unsharded engine (DESIGN.md §8).
//
// Budget-visible staging (DESIGN.md §9): in-flight bytes per shard —
// delivered, not yet drained — are published to the flow MemoryBudget
// under "xchg:s<k>" when a budget is attached.

#ifndef ISHARE_SHARD_EXCHANGE_H_
#define ISHARE_SHARD_EXCHANGE_H_

#include <map>
#include <string>
#include <vector>

#include "ishare/common/fraction.h"
#include "ishare/common/status.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/shard/partitioner.h"
#include "ishare/storage/stream_source.h"

namespace ishare::shard {

// Monotone counters describing what the fabric did.
struct ExchangeStats {
  int64_t delivered_tuples = 0;   // rows staged (per shard copy)
  int64_t delivered_bytes = 0;
  int64_t drained_tuples = 0;     // rows handed to shard sources
};

class ExchangeFabric {
 public:
  ExchangeFabric() = default;
  ExchangeFabric(const ExchangeFabric&) = delete;
  ExchangeFabric& operator=(const ExchangeFabric&) = delete;

  // Copies every table of `dataset` (rows and schema) and precomputes the
  // routing: owner shard per row and each shard's owned rows in dataset
  // order. A non-null `budget` sees each shard's in-flight bytes under
  // "xchg:s<k>".
  Status Init(const StreamSource& dataset, const ShardPlan& plan,
              int num_shards, flow::MemoryBudget* budget = nullptr);

  int num_shards() const { return num_shards_; }
  // Registers every table on `source`, empty: a shard source's base
  // buffers fill as the exchange delivers.
  void AddEmptyTables(StreamSource* source) const;

  // Delivers every partition up to window point `point` (0 <= num <= den,
  // den > 0) and stages the newly delivered rows. Idempotent for a
  // repeated point; an older point delivers nothing.
  Status DeliverUpTo(const Fraction& point);

  // Owned rows of (table, shard), in dataset order, up to the first one
  // not yet delivered. Monotone in delivery; amortized O(1) via a cursor.
  // An unknown table or shard is a CHECK failure here and below.
  int64_t ReleasableCount(const std::string& table, int shard);
  // Rows of `table` owned by `shard` in total (the shard's window size).
  int64_t OwnedRows(const std::string& table, int shard);

  // Appends the releasable rows of (table, shard) not yet drained to
  // `out`, in dataset order, and unstages them. Returns how many rows the
  // shard had drained before this call.
  int64_t DrainReleasable(const std::string& table, int shard,
                          std::vector<DeltaTuple>* out);

  // Clears all delivery/consumption state (counts, cursors, staging) but
  // keeps datasets and routing. Group recovery calls this before shard
  // sources replay.
  void ResetDelivery();

  // In-flight bytes staged for one shard (delivered, not yet drained).
  int64_t StagingBytes(int shard) const;

  const ExchangeStats& stats() const { return stats_; }

 private:
  struct ShardLane {
    std::vector<int64_t> owned;  // global indices, ascending
    int64_t released = 0;        // owned rows delivered without a gap
    int64_t drained = 0;         // owned rows handed to the shard source
  };
  struct TableX {
    Schema schema;
    std::vector<DeltaTuple> rows;   // full dataset, by global index
    bool broadcast = true;
    std::vector<int> owner;         // per row; empty for broadcast
    std::vector<int64_t> delivered; // per arrival partition
    std::vector<ShardLane> lanes;   // per shard
  };

  ShardLane& Lane(const std::string& table, int shard);
  void PublishStagingBytes();

  int num_shards_ = 0;
  std::map<std::string, TableX> tables_;  // ordered: deterministic walks
  std::vector<int64_t> staging_bytes_;    // per shard, across tables
  flow::MemoryBudget* budget_ = nullptr;
  std::vector<int> budget_components_;    // per shard
  ExchangeStats stats_;
};

// StreamSource facade one shard runtime consumes: its tables are the
// shard's owned rows in dataset order, released through the shared
// fabric. DoAdvance delivers and then appends the newly releasable rows
// of every table to the shard's base buffers — so a shard's base log is
// always the dataset order restricted to the rows it owns. It advances
// only to exact window points (AdvanceToStep); AdvanceTo returns
// InvalidArgument. Fabric delivery state is group-scoped and reset
// separately (ExchangeFabric::ResetDelivery).
class ExchangeShardSource : public StreamSource {
 public:
  ExchangeShardSource(ExchangeFabric* fabric, int shard);

 protected:
  Status DoAdvance(double fraction, const Fraction* exact) override;

 private:
  ExchangeFabric* fabric_;
  int shard_;
};

}  // namespace ishare::shard

#endif  // ISHARE_SHARD_EXCHANGE_H_
