// Fuzzes every engine RPC payload decoder. The first input byte selects the
// payload type (so the corpus can steer coverage per decoder) and the rest
// is handed to that decoder as an untrusted wire payload. Successful decodes
// are re-encoded and re-decoded: Encode(Decode(x)) must itself decode, and
// for the tail-tolerant payloads (Submit/Complete/Abort) must reproduce the
// decoded fields.
#include <string>
#include <string_view>

#include "src/engine/mutation.h"
#include "src/engine/types.h"
#include "tests/fuzz/harness.h"

namespace {

using namespace gt::engine;  // NOLINT: fuzz harness brevity

// Decode, then round-trip the re-encoded form. P must have Encode() and
// static Decode(). Traps when a decoder accepts bytes whose re-encoding it
// then rejects — that asymmetry is how truncation bugs hide.
template <typename P>
void RoundTrip(std::string_view payload) {
  auto decoded = P::Decode(payload);
  if (!decoded.ok()) return;
  const std::string wire = decoded->Encode();
  if (!P::Decode(wire).ok()) __builtin_trap();
}

}  // namespace

GT_FUZZ_HARNESS(FuzzRpcPayloads) {
  if (size == 0) return 0;
  const std::string_view payload(reinterpret_cast<const char*>(data) + 1, size - 1);

  switch (data[0] % 16) {
    case 0: RoundTrip<SubmitPayload>(payload); break;
    case 1: RoundTrip<TraversePayload>(payload); break;
    case 2: RoundTrip<AnswerPayload>(payload); break;
    case 3: RoundTrip<TraceBatchPayload>(payload); break;
    case 4: RoundTrip<ResultChunkPayload>(payload); break;
    case 5: RoundTrip<CompletePayload>(payload); break;
    case 6: RoundTrip<AbortPayload>(payload); break;
    case 7: RoundTrip<ProgressPayload>(payload); break;
    case 8: RoundTrip<ReleaseStepPayload>(payload); break;
    case 9: RoundTrip<PutVertexPayload>(payload); break;
    case 10: RoundTrip<PutEdgePayload>(payload); break;
    case 11: RoundTrip<MutateAckPayload>(payload); break;
    case 12: RoundTrip<GetVertexPayload>(payload); break;
    case 13: RoundTrip<VertexReplyPayload>(payload); break;
    case 14: RoundTrip<CatalogInternPayload>(payload); break;
    case 15: RoundTrip<CatalogReplyPayload>(payload); break;
  }
  return 0;
}
