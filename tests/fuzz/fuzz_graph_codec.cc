// Fuzzes the property-graph storage codec: KV key parsers (vertex, edge,
// type-index), the vertex/edge value decoders (and the edge-value validator
// the edge scans use, which must accept exactly what the decoder accepts),
// and the PropMap/PropValue wire format they share with the RPC payloads.
#include <string>
#include <string_view>

#include "src/common/codec.h"
#include "src/graph/encoding.h"
#include "src/graph/property.h"
#include "tests/fuzz/harness.h"

GT_FUZZ_HARNESS(FuzzGraphCodec) {
  if (size == 0) return 0;
  const std::string_view input(reinterpret_cast<const char*>(data) + 1, size - 1);

  switch (data[0] % 4) {
    case 0: {  // key parsers (all three run: they dispatch on the ns byte)
      gt::graph::VertexId vid = 0, src = 0, dst = 0;
      gt::graph::LabelId label = 0;
      (void)gt::graph::ParseVertexKey(input, &vid);
      (void)gt::graph::ParseEdgeKey(input, &src, &label, &dst);
      (void)gt::graph::ParseTypeIndexKey(input, &label, &vid);
      break;
    }
    case 1: {  // vertex value: varint label + props
      gt::graph::LabelId label = 0;
      gt::graph::PropMap props;
      if (gt::graph::DecodeVertexValue(input, &label, &props)) {
        const std::string wire = gt::graph::EncodeVertexValue(label, props);
        gt::graph::LabelId label2 = 0;
        gt::graph::PropMap props2;
        if (!gt::graph::DecodeVertexValue(wire, &label2, &props2)) __builtin_trap();
      }
      break;
    }
    case 2: {  // edge value: bare props; the allocation-free validator agrees
      gt::graph::PropMap props;
      const bool decoded = gt::graph::DecodeEdgeValue(input, &props);
      if (decoded != gt::graph::ValidEdgeValue(input)) __builtin_trap();
      if (decoded) {
        const std::string wire = gt::graph::EncodeEdgeValue(props);
        gt::graph::PropMap props2;
        if (!gt::graph::DecodeEdgeValue(wire, &props2)) __builtin_trap();
      }
      break;
    }
    case 3: {  // single PropValue
      gt::CheckedReader dec(input);
      gt::graph::PropValue value;
      if (gt::graph::PropValue::DecodeFrom(&dec, &value)) {
        std::string wire;
        value.EncodeTo(&wire);
        gt::CheckedReader dec2(wire);
        gt::graph::PropValue value2;
        if (!gt::graph::PropValue::DecodeFrom(&dec2, &value2)) __builtin_trap();
      }
      break;
    }
  }
  return 0;
}
