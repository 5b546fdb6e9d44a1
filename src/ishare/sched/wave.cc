#include "ishare/sched/wave.h"

#include <algorithm>

namespace ishare {
namespace sched {

std::vector<std::vector<int>> StaticLevels(const SubplanGraph& graph) {
  std::vector<int> level(graph.num_subplans(), -1);
  int max_level = -1;
  const std::vector<int> order = graph.TopoChildrenFirst();
  // One pass suffices because children precede parents.
  for (int s : order) {
    int l = 0;
    for (int c : graph.subplan(s).children) l = std::max(l, level[c] + 1);
    level[s] = l;
    max_level = std::max(max_level, l);
  }
  std::vector<std::vector<int>> levels(static_cast<size_t>(max_level + 1));
  for (int s : order) levels[level[s]].push_back(s);
  return levels;
}

}  // namespace sched
}  // namespace ishare
