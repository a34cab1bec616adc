// Property values and property maps attached to vertices and edges.
// A PropValue is one of {int64, double, string, bytes}; a PropMap is a small
// ordered list of (interned key id, value) pairs.
//
// Binary encodings are stable and used both in the KV store and on the RPC
// wire (filters ship comparison values to remote servers).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/common/codec.h"
#include "src/common/status.h"

namespace gt::graph {

// Bytes payloads are strings tagged with a distinct type so that equality
// and display semantics can differ from text.
struct Bytes {
  std::string data;
  bool operator==(const Bytes& o) const { return data == o.data; }
  auto operator<=>(const Bytes& o) const { return data <=> o.data; }
};

class PropValue {
 public:
  enum class Kind : uint8_t { kInt = 0, kDouble = 1, kString = 2, kBytes = 3 };

  PropValue() : v_(int64_t{0}) {}
  PropValue(int64_t v) : v_(v) {}              // NOLINT
  PropValue(int v) : v_(int64_t{v}) {}         // NOLINT
  PropValue(double v) : v_(v) {}               // NOLINT
  PropValue(std::string v) : v_(std::move(v)) {}  // NOLINT
  PropValue(const char* v) : v_(std::string(v)) {}  // NOLINT
  PropValue(Bytes v) : v_(std::move(v)) {}     // NOLINT

  Kind kind() const { return static_cast<Kind>(v_.index()); }

  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_bytes() const { return kind() == Kind::kBytes; }

  int64_t as_int() const { return std::get<int64_t>(v_); }
  double as_double() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Bytes& as_bytes() const { return std::get<Bytes>(v_); }

  bool operator==(const PropValue& o) const { return v_ == o.v_; }

  // Three-way comparison used by RANGE filters. Values of different kinds
  // order by kind tag (so comparisons are total but cross-kind ranges never
  // match in practice). Int/double compare numerically.
  int Compare(const PropValue& o) const {
    if (IsNumeric() && o.IsNumeric()) {
      const double a = AsNumber();
      const double b = o.AsNumber();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    if (kind() != o.kind()) return kind() < o.kind() ? -1 : 1;
    switch (kind()) {
      case Kind::kInt: {
        const int64_t a = as_int(), b = o.as_int();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      case Kind::kDouble: {
        const double a = as_double(), b = o.as_double();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      case Kind::kString:
        return as_string().compare(o.as_string());
      case Kind::kBytes:
        return as_bytes().data.compare(o.as_bytes().data);
    }
    return 0;
  }

  bool IsNumeric() const { return is_int() || is_double(); }
  double AsNumber() const { return is_int() ? static_cast<double>(as_int()) : as_double(); }

  void EncodeTo(std::string* out) const {
    out->push_back(static_cast<char>(kind()));
    switch (kind()) {
      case Kind::kInt:
        PutVarSigned64(out, as_int());
        break;
      case Kind::kDouble: {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(double));
        std::memcpy(&bits, &std::get<double>(v_), 8);
        PutFixed64(out, bits);
        break;
      }
      case Kind::kString:
        PutLengthPrefixed(out, as_string());
        break;
      case Kind::kBytes:
        PutLengthPrefixed(out, as_bytes().data);
        break;
    }
  }

  static bool DecodeFrom(CheckedReader* dec, PropValue* out) {
    uint8_t tag = 0;
    if (!dec->GetByte(&tag)) return false;
    switch (static_cast<Kind>(tag)) {
      case Kind::kInt: {
        int64_t v;
        if (!dec->GetVarSigned64(&v)) return false;
        *out = PropValue(v);
        return true;
      }
      case Kind::kDouble: {
        uint64_t bits;
        if (!dec->GetFixed64(&bits)) return false;
        double d;
        std::memcpy(&d, &bits, 8);
        *out = PropValue(d);
        return true;
      }
      case Kind::kString: {
        std::string_view s;
        if (!dec->GetLengthPrefixed(&s)) return false;
        *out = PropValue(std::string(s));
        return true;
      }
      case Kind::kBytes: {
        std::string_view s;
        if (!dec->GetLengthPrefixed(&s)) return false;
        *out = PropValue(Bytes{std::string(s)});
        return true;
      }
    }
    return false;
  }

  // Walks one encoded value without materializing it: accepts exactly the
  // inputs DecodeFrom accepts.
  static bool SkipFrom(CheckedReader* dec) {
    uint8_t tag = 0;
    if (!dec->GetByte(&tag)) return false;
    std::string_view s;
    int64_t v;
    switch (static_cast<Kind>(tag)) {
      case Kind::kInt: return dec->GetVarSigned64(&v);
      case Kind::kDouble: return dec->Skip(8);
      case Kind::kString:
      case Kind::kBytes: return dec->GetLengthPrefixed(&s);
    }
    return false;
  }

  std::string ToString() const {
    switch (kind()) {
      case Kind::kInt: return std::to_string(as_int());
      case Kind::kDouble: return std::to_string(as_double());
      case Kind::kString: return as_string();
      case Kind::kBytes: return "<bytes:" + std::to_string(as_bytes().data.size()) + ">";
    }
    return "?";
  }

 private:
  std::variant<int64_t, double, std::string, Bytes> v_;
};

// Ordered (by insertion) list of properties with interned key ids.
class PropMap {
 public:
  using KeyId = uint32_t;

  void Set(KeyId key, PropValue value) {
    for (auto& [k, v] : entries_) {
      if (k == key) {
        v = std::move(value);
        return;
      }
    }
    entries_.emplace_back(key, std::move(value));
  }

  const PropValue* Find(KeyId key) const {
    for (const auto& [k, v] : entries_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

  bool operator==(const PropMap& o) const { return entries_ == o.entries_; }

  void EncodeTo(std::string* out) const {
    PutVarint32(out, static_cast<uint32_t>(entries_.size()));
    for (const auto& [k, v] : entries_) {
      PutVarint32(out, k);
      v.EncodeTo(out);
    }
  }

  static bool DecodeFrom(CheckedReader* dec, PropMap* out) {
    out->entries_.clear();
    uint32_t n;
    // 2 = minimum encoded entry (key varint + value tag byte); bounds a
    // hostile count before the reserve.
    if (!dec->GetCount(&n, 2)) return false;
    out->entries_.reserve(n);
    for (uint32_t i = 0; i < n; i++) {
      uint32_t key;
      PropValue value;
      if (!dec->GetVarint32(&key) || !PropValue::DecodeFrom(dec, &value)) return false;
      out->entries_.emplace_back(key, std::move(value));
    }
    return true;
  }

  // Walks one encoded map without materializing it (no allocation):
  // accepts exactly the inputs DecodeFrom accepts.
  static bool SkipFrom(CheckedReader* dec) {
    uint32_t n;
    if (!dec->GetCount(&n, 2)) return false;
    for (uint32_t i = 0; i < n; i++) {
      uint32_t key;
      if (!dec->GetVarint32(&key) || !PropValue::SkipFrom(dec)) return false;
    }
    return true;
  }

 private:
  std::vector<std::pair<KeyId, PropValue>> entries_;
};

}  // namespace gt::graph
