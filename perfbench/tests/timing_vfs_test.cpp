// The timing Vfs forwards every call unchanged: a campaign run through it
// leaves the same store files and the same series as one run without it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "testbed/campaign.hpp"
#include "timing_vfs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

std::map<std::string, std::string> tree(const fs::path& root) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    out[fs::relative(entry.path(), root).string()] = bytes.str();
  }
  return out;
}

pufaging::CampaignConfig field_campaign(const std::string& dir) {
  pufaging::CampaignConfig c;
  c.fleet.device_count = 4;
  c.fleet.seed = 0xF1E1D;
  c.months = 5;
  c.measurements_per_month = 6;
  c.threads = 2;
  c.schedule = pufaging::seasonal_schedule();
  c.faults = pufaging::parse_fault_plan("corrupt=0.05,drop=0.02,brownout=0.2");
  c.checkpoint_dir = dir;
  c.checkpoint_every_months = 2;
  c.fsync_every = 1;
  return c;
}

TEST(TimingVfs, SameFilesAndSeriesAsRealFs) {
  // Relative to the working directory, so the test writes only where it
  // is run.
  const fs::path root = fs::path(".perfbench-selftest-" +
                                 std::to_string(::getpid()));
  fs::remove_all(root);
  const std::string plain_dir = (root / "plain").string();
  const std::string timed_dir = (root / "timed").string();

  const pufaging::CampaignResult plain =
      pufaging::run_campaign(field_campaign(plain_dir));

  TimingVfs vfs(pufaging::RealFs::instance());
  pufaging::CampaignConfig c = field_campaign(timed_dir);
  c.vfs = &vfs;
  const pufaging::CampaignResult timed = pufaging::run_campaign(c);

  EXPECT_EQ(series_sha256(plain.series), series_sha256(timed.series));
  EXPECT_EQ(plain.persistence.snapshots, timed.persistence.snapshots);
  EXPECT_EQ(plain.persistence.wal_appends, timed.persistence.wal_appends);
  EXPECT_TRUE(timed.persistence.incidents.empty());

  const auto a = tree(plain_dir);
  const auto b = tree(timed_dir);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  const TimingVfs::Counters k = vfs.counters();
  EXPECT_GT(k.writes, 0U);
  EXPECT_GT(k.bytes_written, 0U);
  EXPECT_GT(k.fsyncs, 0U);
  EXPECT_GT(k.renames, 0U);
  EXPECT_GT(k.write_ns + k.fsync_ns, 0U);
  fs::remove_all(root);
}

}  // namespace
}  // namespace perfbench
