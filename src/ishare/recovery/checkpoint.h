#ifndef ISHARE_RECOVERY_CHECKPOINT_H_
#define ISHARE_RECOVERY_CHECKPOINT_H_

// Checkpoint frame format (DESIGN.md §8):
//
//   offset  size  field
//   0       8     magic "ISHCKPT1"
//   8       4     format version (u32 LE)
//   12      8     epoch id (i64 LE)
//   20      8     execution step the snapshot was taken after (i64 LE)
//   28      8     payload size in bytes (u64 LE)
//   36      n     payload (CheckpointWriter stream)
//   36+n    8     FNV-1a 64 checksum over bytes [0, 36+n)
//
// Decode distinguishes two failure classes: a *version mismatch* is
// kNotSupported (the blob is intact, we just cannot read it), while torn
// writes, bad magic, truncation and checksum failures are kDataLoss. The
// recovery path discards kDataLoss frames and falls back to an older
// committed epoch; kNotSupported also falls back but is counted the same
// way (a checkpoint we cannot use is a checkpoint we do not have).

#include <cstdint>
#include <string>
#include <string_view>

#include "ishare/common/status.h"

namespace ishare::recovery {

// Version history: 1 = initial layout; 2 = DeltaBuffer payloads gained a
// leading trim base offset (bounded buffers, DESIGN.md §9); 3 = a shared
// arrangement's join rows carry a counter-width word, the layout operator
// checkpoints use (DESIGN.md §15.5).
inline constexpr uint32_t kCheckpointFormatVersion = 3;
inline constexpr std::string_view kCheckpointMagic = "ISHCKPT1";

// FNV-1a 64-bit hash; simple, dependency-free, and plenty for detecting
// torn writes (this guards against corruption, not adversaries).
uint64_t Fnv1a64(std::string_view data);

struct CheckpointHeader {
  uint32_t version = kCheckpointFormatVersion;
  int64_t epoch = 0;
  int64_t step = 0;
};

struct DecodedCheckpoint {
  CheckpointHeader header;
  std::string payload;
};

// Wraps `payload` in a framed, checksummed blob ready for a store.
std::string EncodeCheckpoint(const CheckpointHeader& header,
                             std::string_view payload);

// Validates magic/version/size/checksum and returns header + payload.
Result<DecodedCheckpoint> DecodeCheckpoint(std::string_view frame);

}  // namespace ishare::recovery

#endif  // ISHARE_RECOVERY_CHECKPOINT_H_
