// Check-10 fixture: two discards (lines 8 and 12) among uses that are not.
#include "src/engine/backend_server.h"

namespace gt::engine {

void Discards(graph::GraphStore* store, graph::VertexRecord* rec,
              graph::EdgeFn fn) {
  store->GetVertex(1, rec).ok();
  store
      ->ScanAllEdges(1,
                     fn)
      .ok();
}

bool Uses(graph::GraphStore* store, graph::VertexRecord* rec) {
  const bool read = store->GetVertex(1, rec).ok();  // a use: assigned
  // store->GetVertex(1, rec).ok();  a comment is not code
  auto check = [&] { return store->GetVertex(1, rec).ok(); };
  return read && check();
}

}  // namespace gt::engine
