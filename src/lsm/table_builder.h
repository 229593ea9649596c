// Builds an immutable SSTable (the C1..Ck on-disk tree nodes, paper §2.2):
// sorted keys arrive once, data blocks stream out as large sequential
// appends — the access pattern the whole paper is built on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/slice.h"
#include "common/status.h"
#include "lsm/options.h"
#include "vfs/vfs.h"

namespace lsmio::lsm {

class BlockBuilder;
class FilterBlockBuilder;
class Comparator;
class FilterPolicy;

/// Encoded blocks and their trailers collect in a staging buffer of this
/// size, so the file sees one append per full buffer plus one at Finish()
/// rather than two per block. A block that does not fit in an empty buffer
/// goes to the file directly.
inline constexpr size_t kTableStagingBytes = 256 * 1024;

class TableBuilder {
 public:
  /// Writes a table to `file` (caller keeps ownership of the file and must
  /// Close() it after Finish()). `filter_policy` may be null. Bytes reach
  /// the file in staged chunks, so an append error may surface only from a
  /// later Add() (through status()) or from Finish().
  TableBuilder(const Options& options, const Comparator* comparator,
               const FilterPolicy* filter_policy, vfs::WritableFile* file);
  ~TableBuilder();

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  /// Adds key/value. Keys must be added in strictly increasing order.
  void Add(const Slice& key, const Slice& value);

  /// Ends the current data block (if non-empty) and stages it for the file.
  void Flush();

  /// Finishes the table: filter, metaindex, index blocks and footer.
  Status Finish();

  /// Abandons the table (no further methods except destructor).
  void Abandon();

  [[nodiscard]] Status status() const;
  [[nodiscard]] uint64_t NumEntries() const;
  /// File bytes produced so far, staged bytes included.
  [[nodiscard]] uint64_t FileSize() const;

 private:
  struct Rep;

  /// Marks the data block just written as awaiting its index entry.
  void EndDataBlock();
  /// Writes key/value as a data block of its own, byte for byte what
  /// BlockBuilder would make, without copying the value into a block
  /// buffer. Returns false, having written nothing, when the entry is too
  /// small to fill a block alone, the table is compressed, or the entry
  /// would cost an extra file append.
  bool WriteOneEntryBlock(const Slice& key, const Slice& value);
  void WriteBlock(BlockBuilder* block, class BlockHandle* handle);
  void WriteRawBlock(const Slice& contents, CompressionType type,
                     class BlockHandle* handle);
  /// Writes out the staging buffer if `n` more bytes would overflow it.
  void MakeRoom(size_t n);
  /// Appends the staged bytes to the file and empties the buffer.
  void WriteStaged();

  std::unique_ptr<Rep> rep_;
};

}  // namespace lsmio::lsm
