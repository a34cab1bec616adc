// Property filters — the va()/ea() predicates of the GTravel language.
// Filter types follow the paper: EQ, IN and RANGE; several filters on one
// step AND-compose (OR is expressed by issuing separate traversals).
#pragma once

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/graph/catalog.h"
#include "src/graph/encoding.h"
#include "src/graph/property.h"

namespace gt::lang {

enum class FilterOp : uint8_t {
  kEq = 0,     // property == values[0]
  kIn = 1,     // property ∈ values
  kRange = 2,  // values[0] <= property <= values[1]
};

struct Filter {
  graph::Catalog::Id key = graph::Catalog::kInvalidId;
  FilterOp op = FilterOp::kEq;
  std::vector<graph::PropValue> values;

  // A missing property never matches.
  bool Matches(const graph::PropMap& props) const {
    const graph::PropValue* v = props.Find(key);
    if (v == nullptr) return false;
    switch (op) {
      case FilterOp::kEq:
        return !values.empty() && *v == values[0];
      case FilterOp::kIn:
        for (const auto& candidate : values) {
          if (*v == candidate) return true;
        }
        return false;
      case FilterOp::kRange:
        return values.size() == 2 && v->Compare(values[0]) >= 0 && v->Compare(values[1]) <= 0;
    }
    return false;
  }

  bool operator==(const Filter& o) const {
    return key == o.key && op == o.op && values == o.values;
  }

  void EncodeTo(std::string* out) const {
    PutVarint32(out, key);
    out->push_back(static_cast<char>(op));
    PutVarint32(out, static_cast<uint32_t>(values.size()));
    for (const auto& v : values) v.EncodeTo(out);
  }

  static Status DecodeFrom(CheckedReader* dec, Filter* out) {
    uint8_t op = 0;
    uint32_t n = 0;
    if (!dec->GetVarint32(&out->key) || !dec->GetByte(&op) || !dec->GetCount(&n)) {
      return Status::Corruption("filter: truncated header");
    }
    if (op > static_cast<uint8_t>(FilterOp::kRange)) {
      return Status::Corruption("filter: unknown op " + std::to_string(op));
    }
    out->op = static_cast<FilterOp>(op);
    out->values.clear();
    out->values.reserve(n);
    for (uint32_t i = 0; i < n; i++) {
      graph::PropValue v;
      if (!graph::PropValue::DecodeFrom(dec, &v)) {
        return Status::Corruption("filter: bad value");
      }
      out->values.push_back(std::move(v));
    }
    return Status::OK();
  }
};

// AND-composition over a filter list (empty list matches everything).
inline bool MatchesAll(const std::vector<Filter>& filters, const graph::PropMap& props) {
  for (const auto& f : filters) {
    if (!f.Matches(props)) return false;
  }
  return true;
}

// Vertex-filter evaluation with the implicit "type" pseudo-property: a
// filter keyed on "type" matches against the vertex's label name rather
// than a stored property. `type_key` is catalog id of "type" (or
// kInvalidId to disable the pseudo-property).
inline bool VertexMatches(const Filter& f, const graph::VertexRecord& rec,
                          const graph::Catalog& catalog, graph::Catalog::Id type_key) {
  if (f.key == type_key && type_key != graph::Catalog::kInvalidId &&
      rec.props.Find(f.key) == nullptr) {
    auto name = catalog.Name(rec.label);
    if (!name.ok()) return false;
    graph::PropMap synthetic;
    synthetic.Set(f.key, graph::PropValue(*name));
    return f.Matches(synthetic);
  }
  return f.Matches(rec.props);
}

// AND-composition of VertexMatches (empty list matches everything).
inline bool VertexMatchesAll(const std::vector<Filter>& filters,
                             const graph::VertexRecord& rec,
                             const graph::Catalog& catalog,
                             graph::Catalog::Id type_key) {
  for (const auto& f : filters) {
    if (!VertexMatches(f, rec, catalog, type_key)) return false;
  }
  return true;
}

}  // namespace gt::lang
