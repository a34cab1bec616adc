// Check-10 fixture: two discards (lines 8 and 12) among uses that are not.
#include "src/engine/backend_server.h"

namespace gt::engine {

void Discards(graph::GraphStore* store, std::vector<graph::GraphStore::VertexLookup>* lookups,
              graph::EdgeFn fn) {
  store->MultiGetVertices(lookups).ok();
  store
      ->ScanAllEdges(1,
                     fn)
      .ok();
}

bool Uses(graph::GraphStore* store, std::vector<graph::GraphStore::VertexLookup>* lookups) {
  const bool read = store->MultiGetVertices(lookups).ok();  // a use: assigned
  // store->MultiGetVertices(lookups).ok();  a comment is not code
  auto check = [&] { return store->MultiGetVertices(lookups).ok(); };
  return read && check();
}

}  // namespace gt::engine
