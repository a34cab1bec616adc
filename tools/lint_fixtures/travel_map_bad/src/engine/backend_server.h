// Lint fixture (check 7): per-travel state spread over travel-keyed maps.
// Never compiled; tools/test_gt_lint.py expects every member below to be
// flagged.
#pragma once

namespace gt::engine {

class BackendServer {
 private:
  // Not on the allowlist: belongs in the travel's record.
  std::unordered_map<TravelId, LocalWork> local_work_ GT_GUARDED_BY(mu_);
  // A set keyed by travel, declared over two lines.
  std::unordered_set<TravelId>
      warm_travels_ GT_GUARDED_BY(mu_);
  // A pair key holding the travel id.
  std::map<std::pair<ServerId, TravelId>, std::vector<TraceItem>> trace_buffer_
      GT_GUARDED_BY(mu_);
  // Allowlisted, but nothing ever erases it.
  std::unordered_map<TravelId, TravelLocal> locals_ GT_GUARDED_BY(mu_);
};

}  // namespace gt::engine
