#include "src/finality/safety.hpp"

#include <algorithm>

namespace leak::finality {

SafetyMonitor::SafetyMonitor(const chain::BlockTree& tree) : tree_(tree) {}

std::optional<SafetyViolation> SafetyMonitor::report(const Checkpoint& c) {
  std::optional<SafetyViolation> found;
  for (const Checkpoint& prev : distinct_) {
    if (prev.block == c.block) continue;
    const bool compatible = tree_.is_ancestor(prev.block, c.block) ||
                            tree_.is_ancestor(c.block, prev.block);
    if (!compatible) {
      found = SafetyViolation{prev, c};
      break;
    }
  }
  if (std::find(distinct_.begin(), distinct_.end(), c) == distinct_.end()) {
    distinct_.push_back(c);
  }
  if (found && !violation_) violation_ = found;
  return found;
}

}  // namespace leak::finality
