#include "ishare/storage/perturbed_source.h"

#include <algorithm>
#include <cmath>

#include "ishare/common/rng.h"

namespace ishare {

namespace {

uint64_t HashName(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

const char* KindName(FaultEvent::Kind k) {
  switch (k) {
    case FaultEvent::Kind::kBurst:
      return "burst";
    case FaultEvent::Kind::kStall:
      return "stall";
    case FaultEvent::Kind::kRateDrift:
      return "drift";
    case FaultEvent::Kind::kJitter:
      return "jitter";
    case FaultEvent::Kind::kReorder:
      return "reorder";
  }
  return "?";
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string FaultEvent::ToString() const {
  std::string s = KindName(kind);
  s += "(at=" + Num(at);
  if (duration > 0) s += ", dur=" + Num(duration);
  if (kind != Kind::kStall && kind != Kind::kReorder) {
    s += ", mag=" + Num(magnitude);
  }
  if (!table.empty()) s += ", table=" + table;
  s += ")";
  return s;
}

Status FaultPlan::Validate() const {
  for (const FaultEvent& e : events) {
    if (std::isnan(e.at) || std::isnan(e.duration) ||
        std::isnan(e.magnitude)) {
      return Status::InvalidArgument("fault event has NaN field: " +
                                     e.ToString());
    }
    if (e.at < 0 || e.at > 1 || e.duration < 0 || e.at + e.duration > 1 + 1e-9) {
      return Status::OutOfRange("fault event outside the window: " +
                                e.ToString());
    }
    if (e.magnitude < 0) {
      return Status::InvalidArgument("negative fault magnitude: " +
                                     e.ToString());
    }
  }
  return Status::OK();
}

std::string FaultPlan::ToString() const {
  std::string s = "FaultPlan{seed=" + std::to_string(seed);
  for (const FaultEvent& e : events) s += ", " + e.ToString();
  s += "}";
  return s;
}

FaultPlan FaultPlan::Random(uint64_t seed, int num_events,
                            const std::vector<std::string>& tables) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  for (int i = 0; i < num_events; ++i) {
    FaultEvent e;
    switch (rng.UniformInt(0, 4)) {
      case 0:
        e.kind = FaultEvent::Kind::kBurst;
        e.at = rng.UniformDouble(0.1, 0.9);
        e.magnitude = rng.UniformDouble(0.05, 0.3);
        break;
      case 1:
        e.kind = FaultEvent::Kind::kStall;
        e.at = rng.UniformDouble(0.0, 0.7);
        e.duration = rng.UniformDouble(0.05, std::min(0.25, 1.0 - e.at));
        break;
      case 2:
        e.kind = FaultEvent::Kind::kRateDrift;
        e.at = rng.UniformDouble(0.0, 0.6);
        e.duration = rng.UniformDouble(0.1, std::min(0.4, 1.0 - e.at));
        e.magnitude = rng.UniformDouble(0.25, 2.0);
        break;
      case 3:
        e.kind = FaultEvent::Kind::kJitter;
        e.magnitude = rng.UniformDouble(0.0, 0.15);
        break;
      default:
        e.kind = FaultEvent::Kind::kReorder;
        e.at = rng.UniformDouble(0.0, 0.8);
        e.duration = rng.UniformDouble(0.05, std::min(0.2, 1.0 - e.at));
        break;
    }
    if (!tables.empty() && rng.Bernoulli(0.5)) {
      e.table =
          tables[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(tables.size()) - 1))];
    }
    plan.events.push_back(std::move(e));
  }
  return plan;
}

PerturbedStreamSource::PerturbedStreamSource(FaultPlan plan)
    : plan_(std::move(plan)), plan_status_(plan_.Validate()) {}

double PerturbedStreamSource::JitterLag(const std::string& table) const {
  double lag = 0;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind != FaultEvent::Kind::kJitter) continue;
    if (!e.table.empty() && e.table != table) continue;
    Rng rng(plan_.seed ^ HashName(table));
    lag += rng.UniformDouble(0.0, e.magnitude);
  }
  return std::min(lag, 1.0);
}

double PerturbedStreamSource::WarpFraction(const std::string& table,
                                           double t) const {
  double tt = std::max(0.0, std::min(t, 1.0) - JitterLag(table));
  // Integrate a non-negative arrival rate so overlapping events compose
  // monotonically: a stall zeroes the rate over its region, drifts
  // multiply it, bursts add an instantaneous step. Summing per-event
  // overlaps instead would double-subtract where two stalls overlap and
  // make W non-monotone.
  std::vector<double> cuts{0.0, tt};
  for (const FaultEvent& e : plan_.events) {
    if (!e.table.empty() && e.table != table) continue;
    if (e.kind == FaultEvent::Kind::kStall ||
        e.kind == FaultEvent::Kind::kRateDrift) {
      if (e.at < tt) cuts.push_back(e.at);
      if (e.at + e.duration < tt) cuts.push_back(e.at + e.duration);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  double w = 0;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    double lo = cuts[i], hi = cuts[i + 1];
    if (hi <= lo) continue;
    double mid = 0.5 * (lo + hi);
    double rate = 1.0;
    for (const FaultEvent& e : plan_.events) {
      if (!e.table.empty() && e.table != table) continue;
      bool covers = mid >= e.at && mid < e.at + e.duration;
      if (!covers) continue;
      if (e.kind == FaultEvent::Kind::kStall) rate = 0.0;
      if (e.kind == FaultEvent::Kind::kRateDrift) rate *= e.magnitude;
    }
    w += rate * (hi - lo);
  }
  for (const FaultEvent& e : plan_.events) {
    if (!e.table.empty() && e.table != table) continue;
    if (e.kind == FaultEvent::Kind::kBurst && tt >= e.at) w += e.magnitude;
  }
  return std::max(0.0, std::min(w, 1.0));
}

const std::vector<int64_t>& PerturbedStreamSource::Permutation(
    const std::string& name, const TableStream& t) {
  auto it = perms_.find(name);
  if (it != perms_.end()) return it->second;

  int64_t n = static_cast<int64_t>(t.rows.size());
  std::vector<int64_t> perm(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;

  int event_index = 0;
  for (const FaultEvent& e : plan_.events) {
    ++event_index;
    if (e.kind != FaultEvent::Kind::kReorder) continue;
    if (!e.table.empty() && e.table != name) continue;
    int64_t lo = FloorTarget(e.at, n);
    int64_t hi = std::min(n, FloorTarget(std::min(1.0, e.at + e.duration), n));
    if (hi - lo < 2) continue;
    // Reordering must not move a delete ahead of its insert; skip regions
    // containing retractions.
    bool insert_only = true;
    for (int64_t i = lo; i < hi; ++i) {
      if (t.rows[static_cast<size_t>(i)].weight <= 0) insert_only = false;
    }
    if (!insert_only) continue;
    Rng rng(plan_.seed ^ HashName(name) ^
            (0xa076'1d64'78bd'642fULL * static_cast<uint64_t>(event_index)));
    for (int64_t i = hi - 1; i > lo; --i) {
      int64_t j = lo + rng.UniformInt(0, i - lo);
      std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
    }
  }
  return perms_.emplace(name, std::move(perm)).first->second;
}

Status PerturbedStreamSource::DoAdvance(double fraction,
                                        const Fraction* exact) {
  ISHARE_RETURN_NOT_OK(plan_status_);
  // The warp is irrational in general, so the exact rational point does
  // not apply; the trigger point still releases everything.
  (void)exact;
  for (auto& [name, t] : tables_) {
    int64_t total = static_cast<int64_t>(t->rows.size());
    int64_t target = fraction >= 1.0
                         ? total
                         : FloorTarget(WarpFraction(name, fraction), total);
    target = std::min(target, total);
    const std::vector<int64_t>& perm = Permutation(name, *t);
    for (int64_t i = t->released; i < target; ++i) {
      t->buffer->Append(t->rows[static_cast<size_t>(perm[static_cast<size_t>(i)])]);
    }
    t->released = std::max(t->released, target);
  }
  return Status::OK();
}

}  // namespace ishare
