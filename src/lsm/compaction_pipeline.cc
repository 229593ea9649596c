#include "lsm/compaction_pipeline.h"

#include <utility>

#include "common/coding.h"

namespace lsmio::lsm {

PipelinedKvSource::PipelinedKvSource(Iterator* iter)
    : producer_([this, iter] { ProducerLoop(iter); }) {}

PipelinedKvSource::~PipelinedKvSource() {
  {
    MutexLock lock(&mu_);
    cancelled_ = true;
    producer_cv_.SignalAll();
  }
  producer_.join();
}

void PipelinedKvSource::ProducerLoop(Iterator* iter) {
  // Batch layout: repeated [fixed32 klen][key][fixed32 vlen][value]. The
  // cancelled flag is only checked at batch boundaries: the worst case is
  // one extra batch of input I/O on teardown, and it keeps the per-entry
  // hot loop lock-free.
  std::string batch;
  batch.reserve(kBatchBytes);
  bool aborted = false;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    const Slice key = iter->key();
    const Slice value = iter->value();
    PutFixed32(&batch, static_cast<uint32_t>(key.size()));
    batch.append(key.data(), key.size());
    PutFixed32(&batch, static_cast<uint32_t>(value.size()));
    batch.append(value.data(), value.size());
    if (batch.size() >= kBatchBytes) {
      if (!PushBatch(std::move(batch))) {
        aborted = true;
        break;
      }
      batch.clear();
      batch.reserve(kBatchBytes);
    }
  }
  if (!aborted && !batch.empty()) PushBatch(std::move(batch));

  MutexLock lock(&mu_);
  producer_status_ = iter->status();
  done_ = true;
  consumer_cv_.SignalAll();
}

bool PipelinedKvSource::PushBatch(std::string batch) {
  MutexLock lock(&mu_);
  while (ready_.size() >= kMaxQueuedBatches && !cancelled_) {
    producer_cv_.Wait();
  }
  if (cancelled_) return false;
  ready_.push_back(std::move(batch));
  ++batches_;
  consumer_cv_.Signal();
  return true;
}

bool PipelinedKvSource::Next(Slice* key, Slice* value) {
  if (cursor_ >= current_.size()) {
    MutexLock lock(&mu_);
    while (ready_.empty() && !done_) consumer_cv_.Wait();
    if (ready_.empty()) return false;  // producer done, everything consumed
    current_ = std::move(ready_.front());
    ready_.pop_front();
    cursor_ = 0;
    producer_cv_.Signal();
  }
  const char* p = current_.data() + cursor_;
  const uint32_t klen = DecodeFixed32(p);
  *key = Slice(p + 4, klen);
  const uint32_t vlen = DecodeFixed32(p + 4 + klen);
  *value = Slice(p + 8 + klen, vlen);
  cursor_ += 8 + static_cast<size_t>(klen) + vlen;
  return true;
}

Status PipelinedKvSource::status() const {
  MutexLock lock(&mu_);
  return producer_status_;
}

uint64_t PipelinedKvSource::batches() const {
  MutexLock lock(&mu_);
  return batches_;
}

}  // namespace lsmio::lsm
