#include "core/fstream.h"

#include "common/synchronization.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/coding.h"

namespace lsmio {

// --- FStreamApi -----------------------------------------------------------------

namespace {
Mutex g_api_mu;
std::unique_ptr<Manager> g_manager GUARDED_BY(g_api_mu);
/// Read by KvStreamBuf constructors without the API mutex, so it is a
/// relaxed atomic rather than GUARDED_BY(g_api_mu).
std::atomic<uint64_t> g_chunk_size{1 * MiB};

std::string MetaKey(const std::string& name) { return "F!" + name + "!meta"; }

std::string ChunkKey(const std::string& name, uint64_t chunk_index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "!%016" PRIx64, chunk_index);
  return "F!" + name + buf;
}

/// Deletes the chunk records of a stored file of `size` bytes.
Status DeleteChunks(Manager* manager, const std::string& name, uint64_t size,
                    uint64_t chunk_size) {
  const uint64_t chunks = (size + chunk_size - 1) / chunk_size;
  for (uint64_t c = 0; c < chunks; ++c) {
    LSMIO_RETURN_IF_ERROR(manager->Del(ChunkKey(name, c)));
  }
  return Status::OK();
}
}  // namespace

Status FStreamApi::Initialize(const LsmioOptions& options, const std::string& path) {
  MutexLock lock(&g_api_mu);
  if (g_manager != nullptr) return Status::Busy("FStreamApi already initialized");
  g_chunk_size.store(options.fstream_chunk_size, std::memory_order_relaxed);
  return Manager::Open(options, path, &g_manager);
}

Status FStreamApi::WriteBarrier() {
  MutexLock lock(&g_api_mu);
  if (g_manager == nullptr) return Status::InvalidArgument("FStreamApi not initialized");
  return g_manager->WriteBarrier(BarrierMode::kSync);
}

Status FStreamApi::Cleanup() {
  MutexLock lock(&g_api_mu);
  if (g_manager == nullptr) return Status::OK();
  Status s = g_manager->WriteBarrier(BarrierMode::kSync);
  g_manager.reset();
  return s;
}

Manager* FStreamApi::manager() {
  MutexLock lock(&g_api_mu);
  return g_manager.get();
}

// --- KvStreamBuf ------------------------------------------------------------------

KvStreamBuf::KvStreamBuf(Manager* manager, std::string name,
                         std::ios_base::openmode mode)
    : manager_(manager), name_(std::move(name)), chunk_size_(g_chunk_size.load(std::memory_order_relaxed)) {
  if (manager_ == nullptr) {
    ok_ = false;
    return;
  }
  readable_ = (mode & std::ios_base::in) != 0;
  const Status meta = LoadMeta();
  if (meta.IsNotFound()) {
    if ((mode & std::ios_base::in) != 0 && (mode & std::ios_base::out) == 0) {
      ok_ = false;  // reading a missing file
      return;
    }
    size_ = 0;
  } else if (!meta.ok()) {
    ok_ = false;
    return;
  }
  if ((mode & std::ios_base::trunc) != 0) {
    // Drop the old chunks too: a hole later seeked over must read as
    // zeros, not as bytes from before the truncation.
    if (size_ > 0 && !DeleteChunks(manager_, name_, size_, chunk_size_).ok()) {
      ok_ = false;
      return;
    }
    size_ = 0;
  }
  if ((mode & std::ios_base::ate) != 0 || (mode & std::ios_base::app) != 0) {
    position_ = size_;
  }
}

KvStreamBuf::~KvStreamBuf() { sync(); }

Status KvStreamBuf::LoadMeta() {
  uint64_t stored = 0;
  LSMIO_RETURN_IF_ERROR(manager_->GetUint64(MetaKey(name_), &stored));
  size_ = stored;
  return Status::OK();
}

Status KvStreamBuf::StoreMeta() { return manager_->PutUint64(MetaKey(name_), size_); }

Status KvStreamBuf::LoadChunk(uint64_t chunk_index) {
  if (loaded_chunk_ == chunk_index) return Status::OK();
  LSMIO_RETURN_IF_ERROR(FlushChunk());
  setg(nullptr, nullptr, nullptr);  // get area pointed into the old chunk
  if (chunk_index * chunk_size_ >= size_) {
    chunk_.clear();  // wholly past the end of the file: no live bytes
  } else {
    if (readable_ && !prefetched_.contains(chunk_index)) PrefetchFrom(chunk_index);
    auto it = prefetched_.find(chunk_index);
    if (it != prefetched_.end()) {
      chunk_ = std::move(it->second);
      prefetched_.erase(it);
    } else {
      Status s = manager_->Get(ChunkKey(name_, chunk_index), &chunk_);
      if (s.IsNotFound()) {
        chunk_.clear();
      } else if (!s.ok()) {
        return s;
      }
    }
  }
  loaded_chunk_ = chunk_index;
  return Status::OK();
}

// Batch-loads `chunk_index` and the next few chunks via one engine MultiGet
// (readahead for sequential restore reads). Only runs for readable streams;
// a trailing single chunk falls through to the plain Get in LoadChunk.
void KvStreamBuf::PrefetchFrom(uint64_t chunk_index) {
  static constexpr uint64_t kPrefetchChunks = 4;
  const uint64_t last_chunk = (size_ - 1) / chunk_size_;
  if (chunk_index >= last_chunk) return;  // nothing ahead to batch with
  const uint64_t end = std::min(last_chunk, chunk_index + kPrefetchChunks - 1);

  std::vector<std::string> key_storage;
  key_storage.reserve(static_cast<size_t>(end - chunk_index + 1));
  for (uint64_t c = chunk_index; c <= end; ++c) {
    key_storage.push_back(ChunkKey(name_, c));
  }
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  if (!manager_->GetBatch(keys, &values, &statuses).ok()) return;
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok()) {
      prefetched_[chunk_index + i] = std::move(values[i]);
    } else if (statuses[i].IsNotFound()) {
      prefetched_[chunk_index + i].clear();  // sparse chunk reads as empty
    }
    // Other errors: leave unstashed so LoadChunk's Get surfaces them.
  }
}

// Folds the consumed part of an active get area into position_ and drops
// the area (called before any operation that moves or mutates the chunk).
void KvStreamBuf::SyncPositionFromGetArea() {
  if (gptr() != nullptr) {
    position_ = loaded_chunk_ * chunk_size_ + static_cast<uint64_t>(gptr() - eback());
    setg(nullptr, nullptr, nullptr);
  }
}

Status KvStreamBuf::FlushChunk() {
  if (!chunk_dirty_ || loaded_chunk_ == ~0ULL) return Status::OK();
  chunk_dirty_ = false;
  return manager_->Put(ChunkKey(name_, loaded_chunk_), chunk_);
}

int KvStreamBuf::sync() {
  if (!ok_) return -1;
  SyncPositionFromGetArea();
  if (!FlushChunk().ok() || !StoreMeta().ok()) {
    ok_ = false;
    return -1;
  }
  return 0;
}

KvStreamBuf::int_type KvStreamBuf::overflow(int_type ch) {
  if (!ok_) return traits_type::eof();
  if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
  SyncPositionFromGetArea();

  const uint64_t chunk_index = position_ / chunk_size_;
  const uint64_t within = position_ % chunk_size_;
  if (!LoadChunk(chunk_index).ok()) {
    ok_ = false;
    return traits_type::eof();
  }
  if (chunk_.size() <= within) chunk_.resize(static_cast<size_t>(within) + 1, '\0');
  chunk_[static_cast<size_t>(within)] = traits_type::to_char_type(ch);
  chunk_dirty_ = true;
  ++position_;
  if (position_ > size_) size_ = position_;
  return ch;
}

std::streamsize KvStreamBuf::xsputn(const char* s, std::streamsize n) {
  if (!ok_ || n <= 0) return 0;
  SyncPositionFromGetArea();
  std::streamsize written = 0;
  while (written < n) {
    const uint64_t chunk_index = position_ / chunk_size_;
    const uint64_t within = position_ % chunk_size_;
    if (!LoadChunk(chunk_index).ok()) {
      ok_ = false;
      break;
    }
    const uint64_t room = chunk_size_ - within;
    const uint64_t take =
        std::min<uint64_t>(room, static_cast<uint64_t>(n - written));
    if (chunk_.size() < within + take) {
      chunk_.resize(static_cast<size_t>(within + take), '\0');
    }
    std::memcpy(chunk_.data() + within, s + written, static_cast<size_t>(take));
    chunk_dirty_ = true;
    position_ += take;
    written += static_cast<std::streamsize>(take);
    if (position_ > size_) size_ = position_;
  }
  return written;
}

KvStreamBuf::int_type KvStreamBuf::underflow() {
  if (!ok_) return traits_type::eof();
  SyncPositionFromGetArea();
  if (position_ >= size_) return traits_type::eof();
  const uint64_t chunk_index = position_ / chunk_size_;
  const uint64_t within = position_ % chunk_size_;
  if (!LoadChunk(chunk_index).ok()) {
    ok_ = false;
    return traits_type::eof();
  }
  // Expose the remainder of this chunk (clamped to logical size) as the
  // get area so bulk reads (sgetn) are chunk-at-a-time. A chunk stored
  // shorter than that is followed by a hole, which reads as zeros.
  const size_t avail = static_cast<size_t>(
      std::min<uint64_t>(chunk_size_, size_ - (chunk_index * chunk_size_)));
  if (chunk_.size() < avail) chunk_.resize(avail, '\0');
  char* base = chunk_.data();
  setg(base, base + within, base + avail);
  // Note: position_ is advanced in seek/overflow paths; for the get area we
  // track via gptr on seek. Advance position_ lazily when the area drains.
  return traits_type::to_int_type(chunk_[static_cast<size_t>(within)]);
}

std::streampos KvStreamBuf::seekoff(std::streamoff off, std::ios_base::seekdir dir,
                                    std::ios_base::openmode which) {
  SyncPositionFromGetArea();
  int64_t base;
  switch (dir) {
    case std::ios_base::beg: base = 0; break;
    case std::ios_base::cur: base = static_cast<int64_t>(position_); break;
    case std::ios_base::end: base = static_cast<int64_t>(size_); break;
    default: return {std::streamoff(-1)};
  }
  const int64_t target = base + off;
  if (target < 0) return {std::streamoff(-1)};
  position_ = static_cast<uint64_t>(target);
  (void)which;
  return {static_cast<std::streamoff>(position_)};
}

std::streampos KvStreamBuf::seekpos(std::streampos pos, std::ios_base::openmode which) {
  return seekoff(std::streamoff(pos), std::ios_base::beg, which);
}

// --- FStream -----------------------------------------------------------------------

FStream::FStream(const std::string& name, std::ios_base::openmode mode)
    : std::iostream(nullptr) {
  open(name, mode);
}

FStream::~FStream() { close(); }

void FStream::open(const std::string& name, std::ios_base::openmode mode) {
  close();
  Manager* manager = FStreamApi::manager();
  auto buf = std::make_unique<KvStreamBuf>(manager, name, mode);
  if (!buf->ok()) {
    setstate(std::ios_base::failbit);
    return;
  }
  buf_ = std::move(buf);
  rdbuf(buf_.get());
  clear();
}

void FStream::close() {
  if (buf_ == nullptr) return;
  buf_->sync();
  rdbuf(nullptr);
  buf_.reset();
}

Status FStreamRemove(const std::string& name) {
  Manager* manager = FStreamApi::manager();
  if (manager == nullptr) return Status::InvalidArgument("FStreamApi not initialized");
  uint64_t size = 0;
  Status s = manager->GetUint64(MetaKey(name), &size);
  if (s.IsNotFound()) return s;
  LSMIO_RETURN_IF_ERROR(s);
  LSMIO_RETURN_IF_ERROR(DeleteChunks(manager, name, size, g_chunk_size));
  return manager->Del(MetaKey(name));
}

bool FStreamExists(const std::string& name) {
  Manager* manager = FStreamApi::manager();
  if (manager == nullptr) return false;
  uint64_t size = 0;
  return manager->GetUint64(MetaKey(name), &size).ok();
}

}  // namespace lsmio
