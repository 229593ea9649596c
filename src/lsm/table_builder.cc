#include "lsm/table_builder.h"

#include <cassert>

#include "common/coding.h"
#include "common/crc32c.h"
#include "lsm/block_builder.h"
#include "lsm/comparator.h"
#include "lsm/dbformat.h"
#include "lsm/compression.h"
#include "lsm/filter_block.h"
#include "lsm/format.h"

namespace lsmio::lsm {
namespace {

// Fills a block trailer: the type byte, then the masked CRC of the block
// contents (`crc`) extended over that byte.
void EncodeTrailer(uint32_t crc, CompressionType type, char* trailer) {
  trailer[0] = static_cast<char>(type);
  EncodeFixed32(trailer + 1, crc32c::Mask(crc32c::Extend(crc, trailer, 1)));
}

}  // namespace

struct TableBuilder::Rep {
  Rep(const Options& opt, const Comparator* cmp, const FilterPolicy* filter,
      vfs::WritableFile* f)
      : options(opt),
        comparator(cmp),
        file(f),
        data_block(&options),
        index_block(&options),
        filter_block(filter == nullptr
                         ? nullptr
                         : std::make_unique<FilterBlockBuilder>(filter)) {
    staging.reserve(kTableStagingBytes);
  }

  Options options;
  const Comparator* comparator;
  vfs::WritableFile* file;
  uint64_t offset = 0;
  Status status;
  BlockBuilder data_block;
  BlockBuilder index_block;
  std::unique_ptr<FilterBlockBuilder> filter_block;
  std::string last_key;
  uint64_t num_entries = 0;
  bool closed = false;

  // Deferred index entry: emitted when the next block's first key is known,
  // allowing a shortened separator key.
  bool pending_index_entry = false;
  BlockHandle pending_handle;

  std::string compressed_output;
  // Encoded blocks and trailers not yet handed to `file`; `offset` counts
  // them already.
  std::string staging;
};

TableBuilder::TableBuilder(const Options& options, const Comparator* comparator,
                           const FilterPolicy* filter_policy,
                           vfs::WritableFile* file)
    : rep_(std::make_unique<Rep>(options, comparator, filter_policy, file)) {
  if (rep_->filter_block != nullptr) rep_->filter_block->StartBlock(0);
}

TableBuilder::~TableBuilder() { assert(rep_->closed); }

void TableBuilder::Add(const Slice& key, const Slice& value) {
  Rep* r = rep_.get();
  assert(!r->closed);
  if (!r->status.ok()) return;
  if (r->num_entries > 0) {
    assert(r->comparator->Compare(key, Slice(r->last_key)) > 0);
  }

  if (r->pending_index_entry) {
    assert(r->data_block.empty());
    r->comparator->FindShortestSeparator(&r->last_key, key);
    std::string handle_encoding;
    r->pending_handle.EncodeTo(&handle_encoding);
    r->index_block.Add(Slice(r->last_key), Slice(handle_encoding));
    r->pending_index_entry = false;
  }

  // Filter on the user key: lookups probe with a fresh sequence tag, so the
  // tag bytes must not participate in the bloom hash.
  if (r->filter_block != nullptr) {
    r->filter_block->AddKey(key.size() >= 8 ? ExtractUserKey(key) : key);
  }

  r->last_key.assign(key.data(), key.size());
  ++r->num_entries;
  if (r->data_block.empty() && WriteOneEntryBlock(key, value)) {
    EndDataBlock();
    return;
  }
  r->data_block.Add(key, value);

  if (r->data_block.CurrentSizeEstimate() >= r->options.block_size) Flush();
}

void TableBuilder::Flush() {
  Rep* r = rep_.get();
  assert(!r->closed);
  if (!r->status.ok() || r->data_block.empty()) return;
  assert(!r->pending_index_entry);
  WriteBlock(&r->data_block, &r->pending_handle);
  EndDataBlock();
}

void TableBuilder::EndDataBlock() {
  Rep* r = rep_.get();
  if (r->status.ok()) r->pending_index_entry = true;
  if (r->filter_block != nullptr) r->filter_block->StartBlock(r->offset);
}

bool TableBuilder::WriteOneEntryBlock(const Slice& key, const Slice& value) {
  Rep* r = rep_.get();
  if (r->options.compression != CompressionType::kNone) return false;

  // The bytes BlockBuilder would produce for this entry alone: header
  // (no shared prefix in a fresh block), key, value, then a restart array
  // holding the single restart point 0, and its count.
  char prefix[3 * 5];
  char* end = EncodeVarint32(prefix, 0);
  end = EncodeVarint32(end, static_cast<uint32_t>(key.size()));
  end = EncodeVarint32(end, static_cast<uint32_t>(value.size()));
  const Slice header(prefix, static_cast<size_t>(end - prefix));
  char suffix[2 * sizeof(uint32_t)];
  EncodeFixed32(suffix, 0);
  EncodeFixed32(suffix + sizeof(uint32_t), 1);

  const size_t size = header.size() + key.size() + value.size() + sizeof suffix;
  // Smaller entries would share their block with the next ones.
  if (size < r->options.block_size) return false;
  const size_t n = size + kBlockTrailerSize;
  const bool direct = n > kTableStagingBytes;
  // A value too large to stage is appended straight from the caller's
  // memory, behind the staged bytes that carry its header and key. With
  // nothing staged yet (the table's first block), that would cost one
  // append more than the contiguous block does, so that block takes the
  // BlockBuilder path.
  if (direct && (r->staging.empty() ||
                 r->staging.size() + header.size() + key.size() >
                     kTableStagingBytes)) {
    return false;
  }

  r->pending_handle.set_offset(r->offset);
  r->pending_handle.set_size(size);
  if (!direct) MakeRoom(n);
  r->staging.append(header.data(), header.size());
  r->staging.append(key.data(), key.size());
  uint32_t crc = crc32c::Value(header.data(), header.size());
  crc = crc32c::Extend(crc, key.data(), key.size());
  crc = crc32c::Extend(crc, value.data(), value.size());
  if (direct) {
    WriteStaged();
    if (r->status.ok()) r->status = r->file->Append(value);
  } else {
    r->staging.append(value.data(), value.size());
  }
  r->staging.append(suffix, sizeof suffix);
  crc = crc32c::Extend(crc, suffix, sizeof suffix);

  char trailer[kBlockTrailerSize];
  EncodeTrailer(crc, CompressionType::kNone, trailer);
  r->staging.append(trailer, kBlockTrailerSize);
  if (r->status.ok()) r->offset += n;
  return true;
}

void TableBuilder::WriteBlock(BlockBuilder* block, BlockHandle* handle) {
  Rep* r = rep_.get();
  const Slice raw = block->Finish();

  Slice block_contents;
  CompressionType type = r->options.compression;
  switch (type) {
    case CompressionType::kNone:
      block_contents = raw;
      break;
    case CompressionType::kLzLite: {
      LzLiteCompress(raw, &r->compressed_output);
      if (r->compressed_output.size() < raw.size() - raw.size() / 8) {
        block_contents = Slice(r->compressed_output);
      } else {
        // Not compressible enough: store raw.
        block_contents = raw;
        type = CompressionType::kNone;
      }
      break;
    }
  }
  WriteRawBlock(block_contents, type, handle);
  r->compressed_output.clear();
  block->Reset();
}

void TableBuilder::WriteRawBlock(const Slice& contents, CompressionType type,
                                 BlockHandle* handle) {
  Rep* r = rep_.get();
  handle->set_offset(r->offset);
  handle->set_size(contents.size());
  char trailer[kBlockTrailerSize];
  EncodeTrailer(crc32c::Value(contents.data(), contents.size()), type, trailer);

  const size_t n = contents.size() + kBlockTrailerSize;
  MakeRoom(n);
  if (n > kTableStagingBytes) {
    // Too large to stage: the buffer is empty now, so the block can go to
    // the file directly; its trailer starts the next staged chunk.
    if (r->status.ok()) r->status = r->file->Append(contents);
  } else {
    r->staging.append(contents.data(), contents.size());
  }
  r->staging.append(trailer, kBlockTrailerSize);
  if (r->status.ok()) r->offset += n;
}

void TableBuilder::MakeRoom(size_t n) {
  if (rep_->staging.size() + n > kTableStagingBytes) WriteStaged();
}

void TableBuilder::WriteStaged() {
  Rep* r = rep_.get();
  if (!r->status.ok() || r->staging.empty()) return;
  r->status = r->file->Append(Slice(r->staging));
  r->staging.clear();
}

Status TableBuilder::Finish() {
  Rep* r = rep_.get();
  Flush();
  assert(!r->closed);
  r->closed = true;

  BlockHandle filter_block_handle;
  BlockHandle metaindex_block_handle;
  BlockHandle index_block_handle;

  // Filter block (raw, uncompressed).
  if (r->status.ok() && r->filter_block != nullptr) {
    WriteRawBlock(r->filter_block->Finish(), CompressionType::kNone,
                  &filter_block_handle);
  }

  // Metaindex block.
  if (r->status.ok()) {
    BlockBuilder metaindex_block(&r->options);
    if (r->filter_block != nullptr) {
      std::string handle_encoding;
      filter_block_handle.EncodeTo(&handle_encoding);
      metaindex_block.Add("filter.lsmio.BuiltinBloomFilter",
                          Slice(handle_encoding));
    }
    WriteBlock(&metaindex_block, &metaindex_block_handle);
  }

  // Index block.
  if (r->status.ok()) {
    if (r->pending_index_entry) {
      r->comparator->FindShortSuccessor(&r->last_key);
      std::string handle_encoding;
      r->pending_handle.EncodeTo(&handle_encoding);
      r->index_block.Add(Slice(r->last_key), Slice(handle_encoding));
      r->pending_index_entry = false;
    }
    WriteBlock(&r->index_block, &index_block_handle);
  }

  // Footer.
  if (r->status.ok()) {
    Footer footer;
    footer.set_metaindex_handle(metaindex_block_handle);
    footer.set_index_handle(index_block_handle);
    std::string footer_encoding;
    footer.EncodeTo(&footer_encoding);
    MakeRoom(footer_encoding.size());
    r->staging.append(footer_encoding);
    if (r->status.ok()) r->offset += footer_encoding.size();
  }
  WriteStaged();
  return r->status;
}

void TableBuilder::Abandon() {
  rep_->closed = true;
}

Status TableBuilder::status() const { return rep_->status; }
uint64_t TableBuilder::NumEntries() const { return rep_->num_entries; }
uint64_t TableBuilder::FileSize() const { return rep_->offset; }

}  // namespace lsmio::lsm
