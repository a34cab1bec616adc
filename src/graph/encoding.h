// KV key layout for the property graph, designed (as in the paper) so that
// all edges of one vertex are stored together grouped by edge type, making
// per-type edge iteration a sequential scan.
//
// Namespaces (first key byte):
//   0x01 vertex:      [0x01][vid be64]                      -> label id + props
//   0x02 edge:        [0x02][src be64][label be32][dst be64] -> props
//   0x03 type index:  [0x03][label be32][vid be64]           -> (empty)
//
// All components are big-endian so bytewise key order matches logical order.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/codec.h"
#include "src/graph/property.h"

namespace gt::graph {

using VertexId = uint64_t;
using LabelId = uint32_t;

constexpr char kVertexNs = 0x01;
constexpr char kEdgeNs = 0x02;
constexpr char kTypeIndexNs = 0x03;

struct VertexRecord {
  VertexId id = 0;
  LabelId label = 0;
  PropMap props;
};

struct EdgeRecord {
  VertexId src = 0;
  LabelId label = 0;
  VertexId dst = 0;
  PropMap props;
};

// --- keys -------------------------------------------------------------

inline std::string VertexKey(VertexId vid) {
  std::string k;
  k.push_back(kVertexNs);
  PutFixed64BE(&k, vid);
  return k;
}

// ns byte + src + label + dst. The adjacency cache uses this to reconstruct
// per-edge byte accounting from rows that no longer store the keys.
inline constexpr size_t kEdgeKeyBytes = 1 + 8 + 4 + 8;

inline std::string EdgeKey(VertexId src, LabelId label, VertexId dst) {
  std::string k;
  k.push_back(kEdgeNs);
  PutFixed64BE(&k, src);
  PutFixed32BE(&k, label);
  PutFixed64BE(&k, dst);
  return k;
}

// Prefix of all edges of `src` with type `label` (the sequential-scan unit).
inline std::string EdgePrefix(VertexId src, LabelId label) {
  std::string k;
  k.push_back(kEdgeNs);
  PutFixed64BE(&k, src);
  PutFixed32BE(&k, label);
  return k;
}

// Prefix of all edges of `src`, any type.
inline std::string EdgePrefixAllLabels(VertexId src) {
  std::string k;
  k.push_back(kEdgeNs);
  PutFixed64BE(&k, src);
  return k;
}

inline std::string TypeIndexKey(LabelId label, VertexId vid) {
  std::string k;
  k.push_back(kTypeIndexNs);
  PutFixed32BE(&k, label);
  PutFixed64BE(&k, vid);
  return k;
}

inline std::string TypeIndexPrefix(LabelId label) {
  std::string k;
  k.push_back(kTypeIndexNs);
  PutFixed32BE(&k, label);
  return k;
}

// --- key parsing -------------------------------------------------------

inline bool ParseVertexKey(std::string_view key, VertexId* vid) {
  if (key.size() != 9 || key[0] != kVertexNs) return false;
  CheckedReader dec(key.substr(1));
  return dec.GetFixed64BE(vid);
}

inline bool ParseEdgeKey(std::string_view key, VertexId* src, LabelId* label, VertexId* dst) {
  if (key.size() != 21 || key[0] != kEdgeNs) return false;
  CheckedReader dec(key.substr(1));
  return dec.GetFixed64BE(src) && dec.GetFixed32BE(label) && dec.GetFixed64BE(dst);
}

inline bool ParseTypeIndexKey(std::string_view key, LabelId* label, VertexId* vid) {
  if (key.size() != 13 || key[0] != kTypeIndexNs) return false;
  CheckedReader dec(key.substr(1));
  return dec.GetFixed32BE(label) && dec.GetFixed64BE(vid);
}

// --- values ------------------------------------------------------------

inline std::string EncodeVertexValue(LabelId label, const PropMap& props) {
  std::string v;
  PutVarint32(&v, label);
  props.EncodeTo(&v);
  return v;
}

inline bool DecodeVertexValue(std::string_view value, LabelId* label, PropMap* props) {
  CheckedReader dec(value);
  return dec.GetVarint32(label) && PropMap::DecodeFrom(&dec, props);
}

inline std::string EncodeEdgeValue(const PropMap& props) {
  std::string v;
  props.EncodeTo(&v);
  return v;
}

inline bool DecodeEdgeValue(std::string_view value, PropMap* props) {
  CheckedReader dec(value);
  return PropMap::DecodeFrom(&dec, props);
}

// True exactly when DecodeEdgeValue accepts `value`; allocates nothing. The
// edge scans check every value with it before handing the encoded bytes on.
inline bool ValidEdgeValue(std::string_view value) {
  CheckedReader dec(value);
  return PropMap::SkipFrom(&dec);
}

}  // namespace gt::graph
