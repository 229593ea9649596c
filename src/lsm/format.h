// SSTable physical format shared by writer and reader:
//
//   [data block 1..n] [filter block] [metaindex block] [index block] [footer]
//
// Each block on disk is: contents | type(1) | crc32c(4). The footer holds
// the metaindex and index BlockHandles plus a magic number.
#pragma once

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "lsm/options.h"
#include "vfs/vfs.h"

namespace lsmio::lsm {

/// Location of a block within the table file.
class BlockHandle {
 public:
  [[nodiscard]] uint64_t offset() const noexcept { return offset_; }
  void set_offset(uint64_t offset) noexcept { offset_ = offset; }
  [[nodiscard]] uint64_t size() const noexcept { return size_; }
  void set_size(uint64_t size) noexcept { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

  /// Max encoded length: two varint64s.
  static constexpr size_t kMaxEncodedLength = 10 + 10;

 private:
  uint64_t offset_ = ~0ULL;
  uint64_t size_ = ~0ULL;
};

/// Fixed-length table trailer.
class Footer {
 public:
  [[nodiscard]] const BlockHandle& metaindex_handle() const noexcept { return metaindex_handle_; }
  void set_metaindex_handle(const BlockHandle& h) noexcept { metaindex_handle_ = h; }
  [[nodiscard]] const BlockHandle& index_handle() const noexcept { return index_handle_; }
  void set_index_handle(const BlockHandle& h) noexcept { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

  /// Two padded handles + 8-byte magic.
  static constexpr size_t kEncodedLength = 2 * BlockHandle::kMaxEncodedLength + 8;

 private:
  BlockHandle metaindex_handle_;
  BlockHandle index_handle_;
};

inline constexpr uint64_t kTableMagicNumber = 0x4c534d494f2023ULL;  // "LSMIO #"

/// Per-block trailer: 1-byte compression type + 4-byte masked CRC.
inline constexpr size_t kBlockTrailerSize = 5;

/// Reads the block identified by `handle` from file, verifying the CRC when
/// `verify_checksums` and decompressing as needed. On success *contents
/// holds the uncompressed block bytes; the file is read into *contents
/// itself, so an uncompressed block is not copied. On failure *contents is
/// unspecified.
Status ReadBlockContents(vfs::RandomAccessFile* file, const ReadOptions& options,
                         bool always_verify, const BlockHandle& handle,
                         std::string* contents);

/// Verifies and decompresses one on-disk block given its raw bytes
/// (contents + trailer). Lets callers that fetched several adjacent blocks
/// in a single coalesced read decode each block from the shared buffer.
Status DecodeBlockContents(const Slice& raw, const ReadOptions& options,
                           bool always_verify, std::string* contents);

/// Zero-copy variant of DecodeBlockContents: when the block is stored
/// uncompressed, *view points into `raw` (the caller keeps those bytes
/// alive); otherwise the block is decompressed into *scratch and *view
/// points at it.
Status DecodeBlockView(const Slice& raw, const ReadOptions& options,
                       bool always_verify, std::string* scratch, Slice* view);

}  // namespace lsmio::lsm
