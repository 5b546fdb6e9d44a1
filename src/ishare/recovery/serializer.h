#ifndef ISHARE_RECOVERY_SERIALIZER_H_
#define ISHARE_RECOVERY_SERIALIZER_H_

// Compact binary serialization for checkpoint payloads (DESIGN.md §8).
//
// The format is deliberately boring: fixed-width little-endian integers,
// bit-cast doubles (so NaN payloads and signed zeros survive a round trip
// exactly — bit-exact recovery depends on it), and length-prefixed strings.
// There is no schema evolution inside a payload; the checkpoint frame
// carries a single format version and readers reject anything else
// (checkpoint.h).
//
// CheckpointReader is sticky-error: the first malformed read poisons the
// reader, every later read returns a zero value, and the error surfaces
// through status()/Finish(). This lets Restore() implementations read an
// entire payload linearly and check once at the end.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "ishare/common/query_set.h"
#include "ishare/common/status.h"
#include "ishare/types/value.h"

namespace ishare::recovery {

// Writes into a geometrically grown buffer through an explicit write
// position instead of std::string::append: a scalar write is then one
// bounds compare plus a fixed-size memcpy the compiler flattens to a
// store. Checkpointing serializes millions of values on the execution
// critical path, and the per-append bookkeeping was its dominant cost.
class CheckpointWriter {
 public:
  void U8(uint8_t v) {
    Ensure(1);
    buf_[pos_++] = static_cast<char>(v);
  }
  void U32(uint32_t v) { AppendScalar(v); }
  void U64(uint64_t v) { AppendScalar(v); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(std::string_view v) {
    Ensure(8 + v.size());
    AppendScalarUnchecked(static_cast<uint64_t>(v.size()));
    std::memcpy(&buf_[pos_], v.data(), v.size());
    pos_ += v.size();
  }
  void Raw(const void* data, size_t size) {
    Ensure(size);
    std::memcpy(&buf_[pos_], data, size);
    pos_ += size;
  }

  // Growth hint for large payloads; encoding is append-only so a good
  // guess turns thousands of growth checks into one resize.
  void Reserve(size_t bytes) { Ensure(bytes); }

  std::string_view data() const { return {buf_.data(), pos_}; }
  std::string Take() {
    buf_.resize(pos_);
    pos_ = 0;
    return std::move(buf_);
  }
  size_t size() const { return pos_; }

 private:
  void Ensure(size_t n) {
    if (pos_ + n > buf_.size()) buf_.resize(std::max(pos_ + n, buf_.size() * 2));
  }

  // The wire format is little-endian; on little-endian hosts a scalar is
  // one memcpy, elsewhere it is byte-swapped through a stack buffer.
  template <typename T>
  void AppendScalar(T v) {
    Ensure(sizeof(T));
    AppendScalarUnchecked(v);
  }
  template <typename T>
  void AppendScalarUnchecked(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&buf_[pos_], &v, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        buf_[pos_ + i] = static_cast<char>((v >> (8 * i)) & 0xff);
      }
    }
    pos_ += sizeof(T);
  }

  std::string buf_;
  size_t pos_ = 0;
};

class CheckpointReader {
 public:
  explicit CheckpointReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  bool Bool() { return U8() != 0; }
  std::string Str();

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return data_.size() - pos_; }

  // Marks the reader failed with a DataLoss status (e.g. a semantic
  // validation error found while decoding, not just a short read).
  void Fail(std::string msg);

  // OK iff no read failed AND the payload was fully consumed; trailing
  // bytes mean the payload came from a different writer than the reader
  // expects, which we treat as corruption rather than silently ignoring.
  Status Finish() const;

 private:
  bool Need(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

// ---- Codecs for engine types -------------------------------------------
//
// The value and row writers are inline: checkpointing a window serializes
// millions of values, and an out-of-line call per value showed up as the
// dominant cost of taking a snapshot.

namespace detail {
inline constexpr uint8_t kTagInt = 0;
inline constexpr uint8_t kTagDouble = 1;
inline constexpr uint8_t kTagString = 2;
}  // namespace detail

inline void WriteValue(CheckpointWriter* w, const Value& v) {
  switch (v.type()) {
    case DataType::kInt64:
      w->U8(detail::kTagInt);
      w->I64(v.AsInt());
      return;
    case DataType::kFloat64:
      w->U8(detail::kTagDouble);
      w->F64(v.AsDouble());
      return;
    case DataType::kString:
      w->U8(detail::kTagString);
      w->Str(v.AsString());
      return;
  }
}

Value ReadValue(CheckpointReader* r);

inline void WriteRow(CheckpointWriter* w, const Row& row) {
  w->U64(row.size());
  for (const Value& v : row) WriteValue(w, v);
}

Row ReadRow(CheckpointReader* r);

void WriteQuerySet(CheckpointWriter* w, QuerySet qs);
QuerySet ReadQuerySet(CheckpointReader* r);

// Canonical byte encoding of a row, usable as a sort key so hash-map state
// can be checkpointed in an order independent of bucket layout/history.
std::string EncodeRowKey(const Row& row);
// Reads a Str holding EncodeRowKey bytes back into the row; fails `r` when
// the bytes are not exactly one encoded row.
Row ReadRowKey(CheckpointReader* r);

}  // namespace ishare::recovery

#endif  // ISHARE_RECOVERY_SERIALIZER_H_
