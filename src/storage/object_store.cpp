#include "storage/object_store.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"

namespace rocket::storage {

namespace fs = std::filesystem;

void ObjectStore::put(const std::string&, const ByteBuffer&) {
  throw std::runtime_error("ObjectStore: write path not supported");
}

void ObjectStore::append(const std::string&, const ByteBuffer&) {
  throw std::runtime_error("ObjectStore: append path not supported");
}

void MemoryStore::put(const std::string& name, const ByteBuffer& data) {
  std::unique_lock lock(mutex_);
  objects_[name] = data;
}

void MemoryStore::append(const std::string& name, const ByteBuffer& data) {
  std::unique_lock lock(mutex_);
  ByteBuffer& object = objects_[name];
  object.insert(object.end(), data.begin(), data.end());
}

ByteBuffer MemoryStore::read(const std::string& name) {
  std::shared_lock lock(mutex_);
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    throw std::runtime_error("MemoryStore: no such object: " + name);
  }
  count_read(it->second.size());
  return it->second;
}

bool MemoryStore::exists(const std::string& name) const {
  std::shared_lock lock(mutex_);
  return objects_.count(name) != 0;
}

Bytes MemoryStore::size_of(const std::string& name) const {
  std::shared_lock lock(mutex_);
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    throw std::runtime_error("MemoryStore: no such object: " + name);
  }
  return it->second.size();
}

std::vector<std::string> MemoryStore::list() const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& [name, data] : objects_) names.push_back(name);
  return names;
}

Bytes MemoryStore::total_bytes() const {
  std::shared_lock lock(mutex_);
  Bytes total = 0;
  for (const auto& [name, data] : objects_) total += data.size();
  return total;
}

ByteBuffer ThrottledStore::read(const std::string& name) {
  if (read_latency_us_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(read_latency_us_));
  }
  return inner_->read(name);
}

bool ThrottledStore::exists(const std::string& name) const {
  return inner_->exists(name);
}

Bytes ThrottledStore::size_of(const std::string& name) const {
  return inner_->size_of(name);
}

std::vector<std::string> ThrottledStore::list() const {
  return inner_->list();
}

void ThrottledStore::put(const std::string& name, const ByteBuffer& data) {
  inner_->put(name, data);
}

void ThrottledStore::append(const std::string& name, const ByteBuffer& data) {
  inner_->append(name, data);
}

FlakyStore::FlakyStore(ObjectStore& inner, Config config)
    : inner_(&inner), cfg_(config) {}

bool FlakyStore::roll(double rate) {
  if (rate <= 0.0) return false;
  const std::uint64_t n = draws_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = mix64(cfg_.seed * 0x9E3779B97F4A7C15ULL + n + 1);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return u < rate;
}

ByteBuffer FlakyStore::read(const std::string& name) {
  if (cfg_.spike_us > 0 && roll(cfg_.spike_rate)) {
    spikes_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(cfg_.spike_us));
  }
  if (roll(cfg_.error_rate)) {
    std::scoped_lock lock(mutex_);
    std::uint32_t& run = consecutive_[name];
    if (run < cfg_.max_consecutive_failures) {
      ++run;
      errors_.fetch_add(1, std::memory_order_relaxed);
      throw TransientStoreError("FlakyStore: injected transient error on " +
                                name);
    }
  }
  {
    std::scoped_lock lock(mutex_);
    consecutive_.erase(name);
  }
  return inner_->read(name);
}

bool FlakyStore::exists(const std::string& name) const {
  return inner_->exists(name);
}

Bytes FlakyStore::size_of(const std::string& name) const {
  return inner_->size_of(name);
}

std::vector<std::string> FlakyStore::list() const { return inner_->list(); }

void FlakyStore::put(const std::string& name, const ByteBuffer& data) {
  inner_->put(name, data);
}

void FlakyStore::append(const std::string& name, const ByteBuffer& data) {
  inner_->append(name, data);
}

DirectoryStore::DirectoryStore(std::string root) : root_(std::move(root)) {
  fs::create_directories(root_);
}

std::string DirectoryStore::path_of(const std::string& name) const {
  return (fs::path(root_) / name).string();
}

ByteBuffer DirectoryStore::read(const std::string& name) {
  std::ifstream file(path_of(name), std::ios::binary);
  if (!file) {
    throw std::runtime_error("DirectoryStore: cannot open " + path_of(name));
  }
  file.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(file.tellg());
  file.seekg(0, std::ios::beg);
  ByteBuffer data(size);
  file.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(size));
  if (!file) {
    throw std::runtime_error("DirectoryStore: short read on " + name);
  }
  count_read(size);
  return data;
}

bool DirectoryStore::exists(const std::string& name) const {
  return fs::exists(path_of(name));
}

Bytes DirectoryStore::size_of(const std::string& name) const {
  std::error_code ec;
  const auto size = fs::file_size(path_of(name), ec);
  if (ec) {
    throw std::runtime_error("DirectoryStore: no such object: " + name);
  }
  return size;
}

std::vector<std::string> DirectoryStore::list() const {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(root_)) {
    if (entry.is_regular_file()) names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

void DirectoryStore::put(const std::string& name, const ByteBuffer& data) {
  std::ofstream file(path_of(name), std::ios::binary | std::ios::trunc);
  if (!file) {
    throw std::runtime_error("DirectoryStore: cannot create " + path_of(name));
  }
  file.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
  file.flush();
  if (!file) {
    throw std::runtime_error("DirectoryStore: short write on " + name);
  }
}

void DirectoryStore::append(const std::string& name, const ByteBuffer& data) {
  std::ofstream file(path_of(name), std::ios::binary | std::ios::app);
  if (!file) {
    throw std::runtime_error("DirectoryStore: cannot append " + path_of(name));
  }
  file.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
  file.flush();
  if (!file) {
    throw std::runtime_error("DirectoryStore: short append on " + name);
  }
}

}  // namespace rocket::storage
