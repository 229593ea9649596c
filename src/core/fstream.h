// FStream API (paper §3.1.6): a C++ IOStream-like interface over the LSMIO
// store — "a user-space POSIX implementation" the developer links against.
// File bodies are sharded into chunk values; a std::streambuf implementation
// provides the standard open/read/write/seekp/tellp/rdbuf/fail/good/flush/
// close surface via std::iostream.
//
//   lsmio::FStreamApi::Initialize(options, "/dir/store");
//   {
//     lsmio::FStream out("results.dat", std::ios::out);
//     out << "hello";
//     out.flush();
//   }
//   lsmio::FStreamApi::WriteBarrier();
//   lsmio::FStreamApi::Cleanup();
#pragma once

#include <istream>
#include <map>
#include <memory>
#include <streambuf>
#include <string>

#include "core/manager.h"

namespace lsmio {

/// Static lifecycle of the store backing all FStream objects (paper Table 3:
/// initialize/cleanup/writeBarrier are static methods).
class FStreamApi {
 public:
  /// Opens (or creates) the backing store. Must precede any FStream use.
  static Status Initialize(const LsmioOptions& options, const std::string& path);

  /// Flushes all pending writes to storage; blocks until done.
  static Status WriteBarrier();

  /// Closes the backing store; outstanding FStream objects must be closed.
  static Status Cleanup();

  /// The process-wide manager (null before Initialize / after Cleanup).
  static Manager* manager();
};

/// streambuf storing the stream's bytes in chunked K/V records.
class KvStreamBuf final : public std::streambuf {
 public:
  /// `manager` must outlive the buffer. Loads existing contents metadata.
  KvStreamBuf(Manager* manager, std::string name, std::ios_base::openmode mode);
  ~KvStreamBuf() override;

  KvStreamBuf(const KvStreamBuf&) = delete;
  KvStreamBuf& operator=(const KvStreamBuf&) = delete;

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// Logical size of the stored file.
  [[nodiscard]] uint64_t size() const noexcept { return size_; }

  /// Persists the current chunk and size metadata.
  int sync() override;

 protected:
  int_type overflow(int_type ch) override;
  int_type underflow() override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  std::streampos seekoff(std::streamoff off, std::ios_base::seekdir dir,
                         std::ios_base::openmode which) override;
  std::streampos seekpos(std::streampos pos, std::ios_base::openmode which) override;

 private:
  void SyncPositionFromGetArea();
  Status LoadChunk(uint64_t chunk_index);
  void PrefetchFrom(uint64_t chunk_index);
  Status FlushChunk();
  Status LoadMeta();
  Status StoreMeta();

  Manager* manager_;
  std::string name_;
  uint64_t chunk_size_;
  uint64_t size_ = 0;      // logical file size
  uint64_t position_ = 0;  // current byte position
  uint64_t loaded_chunk_ = ~0ULL;
  bool chunk_dirty_ = false;
  bool ok_ = true;
  bool readable_ = false;
  std::string chunk_;  // working buffer of the loaded chunk
  /// Chunks batch-loaded ahead of the read position (consumed by LoadChunk,
  /// so a later read-modify-write never sees a stale copy).
  std::map<uint64_t, std::string> prefetched_;
};

/// An iostream over the LSMIO store. Matches the std::fstream surface the
/// paper lists: open/read/write/seekp/tellp/rdbuf/fail/good/flush/close.
class FStream : public std::iostream {
 public:
  FStream() : std::iostream(nullptr) {}
  /// Opens `name` with the given mode (in|out|trunc honoured).
  FStream(const std::string& name, std::ios_base::openmode mode);
  ~FStream() override;

  void open(const std::string& name, std::ios_base::openmode mode);
  [[nodiscard]] bool is_open() const noexcept { return buf_ != nullptr; }
  void close();

  /// Size of the stored file (metadata read).
  [[nodiscard]] uint64_t size() const noexcept { return buf_ ? buf_->size() : 0; }

 private:
  std::unique_ptr<KvStreamBuf> buf_;
};

/// Removes a stored file (all chunks + metadata).
Status FStreamRemove(const std::string& name);

/// True if the file exists in the store.
bool FStreamExists(const std::string& name);

}  // namespace lsmio
