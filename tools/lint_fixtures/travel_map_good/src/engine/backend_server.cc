// Lint fixture (check 7): the erase paths of the allowlisted containers.
#include "src/engine/backend_server.h"

namespace gt::engine {

void BackendServer::HandleAbort(TravelId travel) {
  locals_.erase(travel);
  travels_.erase(travel);
  retained_snaps_.erase(travel);
  aborted_travels_.erase(travel);
}

}  // namespace gt::engine
