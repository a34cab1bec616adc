// Archived per-travel execution timeline. The coordinator already observes
// every execution's lifecycle through the status-tracing registry (TraceItem
// batches arriving as kTraceBatch); TravelTrace condenses those events into
// per-step spans that survive travel completion, and renders as Chrome
// trace-event JSON for chrome://tracing / Perfetto ("load trace.json").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/types.h"

namespace gt::engine {

struct TravelTrace {
  TravelId travel = 0;
  EngineMode mode = EngineMode::kGraphTrek;
  ServerId coordinator = 0;
  bool ok = false;
  uint64_t started_us = 0;   // submission accepted at the coordinator
  uint64_t finished_us = 0;  // completion streamed to the client
  uint64_t total_created = 0;
  uint64_t total_terminated = 0;
  uint64_t result_count = 0;

  // One span per traversal step: the window between the first execution
  // creation observed for the step and the last event that touched it.
  struct StepSpan {
    uint64_t first_event_us = 0;
    uint64_t last_event_us = 0;
    uint64_t created = 0;
    uint64_t terminated = 0;
  };
  std::vector<StepSpan> steps;  // index = step
};

// Chrome trace-event JSON: {"traceEvents": [...]} with one "ph":"X"
// (complete) event for the whole travel (tid 0) and one per step span
// (tid = step + 1); pid distinguishes travels when several are combined.
std::string ToChromeTraceJson(const TravelTrace& trace);
std::string ToChromeTraceJson(const std::vector<TravelTrace>& traces);

}  // namespace gt::engine
