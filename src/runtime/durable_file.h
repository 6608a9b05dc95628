// File-backed durable store: the real-process counterpart of the sim's
// NVRAM model (sim/durable.h).
//
// A FileDurableStore persists the whole key/value image to one file in a
// caller-chosen directory, committed atomically on every mutation:
//
//     serialize image -> store.tmp -> fsync -> rotate store.img to
//     store.prev -> rename store.tmp to store.img -> fsync(dir)
//
// Rename is atomic on POSIX, so a crash (including kill -9 or power loss
// between any two syscalls) leaves either the new image, the previous
// image, or both — never a half-written store.img visible under that name.
// The previous image is additionally retained as store.prev so that even a
// *detectably corrupt* store.img (torn by a buggy filesystem, truncated by
// an operator, bit-flipped at rest) falls back to the last good state
// instead of booting empty.
//
// Image format (little-endian fixed-width, version 1):
//
//     magic   u32  'UDS1' (0x31534455)
//     version u32  1
//     gen     u64  commit generation (monotonic; higher image wins ties)
//     count   u64  number of records
//     records count times:
//         key_len u32, val_len u32, key bytes, val bytes,
//         crc32 u32 over that record's four preceding fields
//     trailer crc32 u32 over every byte before it
//
// Parsing is strict: truncation anywhere, any CRC mismatch, a bad magic or
// version, an impossible length, or trailing garbage rejects the whole
// image (load() then falls back or reports "absent") — it never yields a
// partial map and never throws on corrupt input.
//
// Writes go through at put/erase/clear granularity. Protocol persist()
// calls are already batched into one put per decision point (see
// ReplicaCore::persist), so the write amplification is one image per
// durable decision — the same commit points the sim model charges.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "sim/durable.h"

namespace unidir::runtime {

struct FileDurableStoreStats {
  std::uint64_t commits = 0;         ///< successful image commits
  std::uint64_t images_rejected = 0; ///< corrupt/torn images seen at open
  bool loaded_fallback = false;      ///< open used store.prev, not store.img
  bool recovered = false;            ///< open found any valid prior image
};

class FileDurableStore final : public sim::DurableStore {
 public:
  /// Opens (creating `dir` if needed) and loads the newest valid image.
  /// Corrupt or absent images are handled silently (see stats()); real I/O
  /// failures — unwritable directory, failed fsync — abort via UNIDIR_CHECK,
  /// since a store that cannot persist must not pretend to.
  explicit FileDurableStore(std::filesystem::path dir);

  void put(std::string key, Bytes value) override;
  void erase(const std::string& key) override;
  void clear() override;

  std::uint64_t generation() const { return generation_; }
  const FileDurableStoreStats& stats() const { return stats_; }
  const std::filesystem::path& dir() const { return dir_; }
  std::filesystem::path image_path() const { return dir_ / "store.img"; }
  std::filesystem::path prev_path() const { return dir_ / "store.prev"; }

  /// Serializes an image (exposed so tests can build corrupt variants).
  static Bytes serialize_image(const std::map<std::string, Bytes>& entries,
                               std::uint64_t generation);
  /// Strict parse: nullopt on any deviation from the format.
  static std::optional<std::map<std::string, Bytes>> parse_image(
      ByteSpan data, std::uint64_t* generation_out = nullptr);

  /// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `data`.
  static std::uint32_t crc32(ByteSpan data);

 private:
  void commit();

  std::filesystem::path dir_;
  std::uint64_t generation_ = 0;
  FileDurableStoreStats stats_;
};

}  // namespace unidir::runtime
