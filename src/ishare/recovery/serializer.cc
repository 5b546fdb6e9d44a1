#include "ishare/recovery/serializer.h"

#include <bit>
#include <cstring>

namespace ishare::recovery {

bool CheckpointReader::Need(size_t n) {
  if (!status_.ok()) return false;
  if (remaining() < n) {
    status_ = Status::DataLoss("checkpoint payload truncated: need " +
                               std::to_string(n) + " bytes, have " +
                               std::to_string(remaining()));
    return false;
  }
  return true;
}

uint8_t CheckpointReader::U8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t CheckpointReader::U32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, data_.data() + pos_, 4);
  } else {
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
  }
  pos_ += 4;
  return v;
}

uint64_t CheckpointReader::U64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, data_.data() + pos_, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
  }
  pos_ += 8;
  return v;
}

double CheckpointReader::F64() {
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string CheckpointReader::Str() {
  uint64_t n = U64();
  if (!Need(n)) return "";
  std::string out(data_.substr(pos_, n));
  pos_ += n;
  return out;
}

void CheckpointReader::Fail(std::string msg) {
  if (status_.ok()) status_ = Status::DataLoss(std::move(msg));
}

Status CheckpointReader::Finish() const {
  if (!status_.ok()) return status_;
  if (remaining() != 0) {
    return Status::DataLoss("checkpoint payload has " +
                            std::to_string(remaining()) + " trailing bytes");
  }
  return Status::OK();
}

Value ReadValue(CheckpointReader* r) {
  uint8_t tag = r->U8();
  switch (tag) {
    case detail::kTagInt:
      return Value(r->I64());
    case detail::kTagDouble:
      return Value(r->F64());
    case detail::kTagString:
      return Value(r->Str());
    default:
      r->Fail("unknown value tag " + std::to_string(tag));
      return Value();
  }
}

Row ReadRow(CheckpointReader* r) {
  uint64_t n = r->U64();
  if (n > r->remaining()) {
    // Each value costs at least one tag byte; reject absurd counts before
    // trying to allocate them.
    r->Fail("row length " + std::to_string(n) + " exceeds payload");
    return {};
  }
  Row row;
  row.reserve(n);
  for (uint64_t i = 0; i < n && r->ok(); ++i) row.push_back(ReadValue(r));
  return row;
}

void WriteQuerySet(CheckpointWriter* w, QuerySet qs) {
  // Word-count-prefixed so sets beyond the inline 64-bit word round-trip;
  // word 0 is the inline word, words 1.. the spill.
  int n = qs.num_words();
  w->U64(static_cast<uint64_t>(n));
  for (int i = 0; i < n; ++i) w->U64(qs.word(i));
}

QuerySet ReadQuerySet(CheckpointReader* r) {
  uint64_t n = r->U64();
  constexpr uint64_t kMaxWords = QuerySet::kMaxQueryId / 64 + 1;
  if (n == 0 || n > kMaxWords) {
    r->Fail("query set word count " + std::to_string(n) + " out of range");
    return QuerySet();
  }
  QuerySet qs;
  // Highest word first so set_word resizes once and the trailing-zero
  // normalization never strips a word a later set_word would re-add.
  std::vector<uint64_t> words(n);
  for (uint64_t i = 0; i < n && r->ok(); ++i) words[i] = r->U64();
  if (!r->ok()) return QuerySet();
  for (uint64_t i = n; i-- > 0;) {
    qs.set_word(static_cast<int>(i), words[i]);
  }
  return qs;
}

std::string EncodeRowKey(const Row& row) {
  CheckpointWriter w;
  WriteRow(&w, row);
  return w.Take();
}

Row ReadRowKey(CheckpointReader* r) {
  std::string bytes = r->Str();
  CheckpointReader key_reader(bytes);
  Row key = ReadRow(&key_reader);
  if (r->ok() && !key_reader.Finish().ok()) {
    r->Fail("malformed row key in checkpoint");
  }
  return key;
}

}  // namespace ishare::recovery
