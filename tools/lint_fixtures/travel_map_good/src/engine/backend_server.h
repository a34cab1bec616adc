// Lint fixture (check 7): one per-travel record map plus the allowlisted
// travel-keyed tables, each with an erase path. Never compiled;
// tools/test_gt_lint.py expects no finding.
#pragma once

namespace gt::engine {

class BackendServer {
 private:
  struct TravelLocal {
    // Keyed by exec id, not by travel: per-travel state lives in here.
    std::unordered_map<ExecId, std::unique_ptr<ExecState>> execs;
    std::unordered_set<graph::VertexId> accessed;
  };
  std::unordered_map<TravelId, TravelLocal> locals_ GT_GUARDED_BY(mu_);
  std::unordered_map<TravelId, TravelState> travels_ GT_GUARDED_BY(mu_);
  std::unordered_map<TravelId, std::shared_ptr<const graph::GraphStore::ReadSnapshot>>
      retained_snaps_ GT_GUARDED_BY(mu_);
  std::unordered_set<TravelId> aborted_travels_ GT_GUARDED_BY(mu_);
  // A pair key without a travel id is not travel-keyed.
  std::map<std::pair<uint32_t, ServerId>, PendingFrame> frames_;
};

}  // namespace gt::engine
