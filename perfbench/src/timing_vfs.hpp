// A Vfs decorator that counts and times the store's filesystem calls.
//
// Every call is forwarded unchanged to the wrapped filesystem (RealFs in
// the benchmark), so a campaign run through it leaves the same files and
// the same series as one run without it. It counts every call and times
// writes and fsyncs; only the traced run uses it, so its own cost is part
// of the tracing overhead.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "store/vfs.hpp"

namespace perfbench {

class TimingVfs final : public pufaging::Vfs {
 public:
  struct Counters {
    std::uint64_t writes = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t fsyncs = 0;      ///< File fsyncs.
    std::uint64_t dir_fsyncs = 0;
    std::uint64_t renames = 0;
    std::uint64_t write_ns = 0;
    std::uint64_t fsync_ns = 0;    ///< File + directory fsyncs.
  };

  explicit TimingVfs(pufaging::Vfs& inner) : inner_(inner) {}

  Counters counters() const {
    Counters c;
    c.writes = writes_.load();
    c.bytes_written = bytes_.load();
    c.fsyncs = fsyncs_.load();
    c.dir_fsyncs = dir_fsyncs_.load();
    c.renames = renames_.load();
    c.write_ns = write_ns_.load();
    c.fsync_ns = fsync_ns_.load();
    return c;
  }

  void create_dirs(const std::string& dir) override { inner_.create_dirs(dir); }
  bool exists(const std::string& path) override { return inner_.exists(path); }
  std::vector<std::string> list_dir(const std::string& dir) override {
    return inner_.list_dir(dir);
  }
  void rename(const std::string& from, const std::string& to) override {
    ++renames_;
    inner_.rename(from, to);
  }
  void remove(const std::string& path) override { inner_.remove(path); }
  void fsync_dir(const std::string& dir) override {
    ++dir_fsyncs_;
    const std::uint64_t t0 = now_ns();
    inner_.fsync_dir(dir);
    fsync_ns_ += now_ns() - t0;
  }
  FileId open_append(const std::string& path,
                     bool truncate_existing) override {
    return inner_.open_append(path, truncate_existing);
  }
  std::size_t write_some(FileId file, const char* data,
                         std::size_t len) override {
    const std::uint64_t t0 = now_ns();
    const std::size_t n = inner_.write_some(file, data, len);
    write_ns_ += now_ns() - t0;
    ++writes_;
    bytes_ += n;
    return n;
  }
  void fsync(FileId file) override {
    ++fsyncs_;
    const std::uint64_t t0 = now_ns();
    inner_.fsync(file);
    fsync_ns_ += now_ns() - t0;
  }
  void close(FileId file) noexcept override { inner_.close(file); }
  std::uint64_t file_size(const std::string& path) override {
    return inner_.file_size(path);
  }
  std::string read_file(const std::string& path) override {
    return inner_.read_file(path);
  }
  void truncate(const std::string& path, std::uint64_t size) override {
    inner_.truncate(path, size);
  }
  pufaging::MappedFile map_file(const std::string& path) override {
    return inner_.map_file(path);
  }

 private:
  pufaging::Vfs& inner_;
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> dir_fsyncs_{0};
  std::atomic<std::uint64_t> renames_{0};
  std::atomic<std::uint64_t> write_ns_{0};
  std::atomic<std::uint64_t> fsync_ns_{0};
};

}  // namespace perfbench
