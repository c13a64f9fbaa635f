// Artifact front end tests (obs/artifacts.h): the one parser for the five
// artifact flags and the one writer for what a run produced.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/blob_file.h"
#include "obs/artifacts.h"
#include "obs/timeseries.h"

namespace hn::obs {
namespace {

/// Runs strip_artifact_flags over `args` (argv[0] is added) and returns
/// the flags plus whatever the parser left in argv.
struct Stripped {
  Result<ArtifactFlags> flags;
  std::vector<std::string> rest;
};

Stripped strip(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  Result<ArtifactFlags> flags = strip_artifact_flags(&argc, argv.data());
  return {std::move(flags),
          std::vector<std::string>(argv.begin() + 1, argv.begin() + argc)};
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::string read_text(const std::string& path) {
  std::vector<u8> blob;
  EXPECT_TRUE(read_blob_file(path, blob)) << path;
  return std::string(blob.begin(), blob.end());
}

TEST(ArtifactFlags, UnknownFlagsSurviveInOrder) {
  const Stripped s =
      strip({"--seed=3", "--metrics-out=m.json", "--jobs=2", "--profile",
             "pos", "--trace-out=t.trace", "--trace", "--profile=x"});
  ASSERT_TRUE(s.flags.ok());
  EXPECT_EQ(s.rest, (std::vector<std::string>{"--seed=3", "--jobs=2", "pos",
                                              "--trace", "--profile=x"}));
  const ArtifactFlags& f = s.flags.value();
  EXPECT_EQ(f.metrics_out, "m.json");
  EXPECT_EQ(f.trace_out, "t.trace");
  EXPECT_TRUE(f.timeseries_out.empty());
  EXPECT_TRUE(f.profile);
  EXPECT_EQ(f.sample_cycles, 0u);
  EXPECT_TRUE(f.registry());
}

TEST(ArtifactFlags, FlagOrderNeverChangesTheInterval) {
  const Stripped a = strip({"--timeseries-out=F", "--sample-cycles=0"});
  const Stripped b = strip({"--sample-cycles=0", "--timeseries-out=F"});
  ASSERT_TRUE(a.flags.ok());
  ASSERT_TRUE(b.flags.ok());
  EXPECT_EQ(a.flags.value().sample_cycles, kDefaultSampleCycles);
  EXPECT_EQ(b.flags.value().sample_cycles, kDefaultSampleCycles);

  const Stripped c = strip({"--timeseries-out=F", "--sample-cycles=100"});
  const Stripped d = strip({"--sample-cycles=100", "--timeseries-out=F"});
  EXPECT_EQ(c.flags.value().sample_cycles, 100u);
  EXPECT_EQ(d.flags.value().sample_cycles, 100u);
  EXPECT_FALSE(c.flags.value().registry());
}

TEST(ArtifactFlags, BareSampleCyclesGivesTheDefault) {
  EXPECT_EQ(strip({"--sample-cycles"}).flags.value().sample_cycles,
            kDefaultSampleCycles);
  EXPECT_EQ(strip({"--sample-cycles=0"}).flags.value().sample_cycles, 0u);
  EXPECT_EQ(strip({}).flags.value().sample_cycles, 0u);
}

TEST(ArtifactFlags, MalformedNumberAndEmptyPathAreErrors) {
  for (const char* bad :
       {"--sample-cycles=abc", "--sample-cycles=", "--sample-cycles=-1",
        "--metrics-out=", "--trace-out=", "--timeseries-out="}) {
    EXPECT_FALSE(strip({"--seed=1", bad}).flags.ok()) << bad;
  }
}

TEST(WriteArtifacts, ProfileFoldsIntoTheMetricsSnapshot) {
  ArtifactFlags flags;
  flags.metrics_out = temp_path("hn_artifacts_profile.json");
  flags.profile = true;
  Produced run;
  run.profile[Layer::kKernelSyscall] = {.self_cycles = 700, .self_ns = 5000,
                                        .scopes = 2};
  ASSERT_TRUE(write_artifacts(flags, std::move(run)));
  // Only the host column folds in: the simulated columns are the
  // registry's, which this run did not export.
  const std::string json = read_text(flags.metrics_out);
  EXPECT_NE(json.find("{\"path\": \"layer.kernel.syscall.self_ns\", \"kind\": "
                      "\"counter\", \"value\": 5000}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("layer.kernel.syscall.self_cycles"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("profile."), std::string::npos) << json;
}

TEST(WriteArtifacts, WritesEveryRequestedFile) {
  ArtifactFlags flags;
  flags.metrics_out = temp_path("hn_artifacts_metrics.csv");
  flags.trace_out = temp_path("hn_artifacts.trace");
  flags.timeseries_out = temp_path("hn_artifacts.timeseries");
  ASSERT_TRUE(write_artifacts(flags, {.trace = {1, 2, 3},
                                      .timeseries = {4, 5}}));
  EXPECT_EQ(read_text(flags.metrics_out).rfind("path,kind,", 0), 0u);
  EXPECT_EQ(read_text(flags.trace_out), "\x01\x02\x03");
  EXPECT_EQ(read_text(flags.timeseries_out), "\x04\x05");
}

TEST(WriteArtifacts, RequestedButUnproducedArtifactFails) {
  const std::string path = temp_path("hn_artifacts_unproduced.trace");
  std::remove(path.c_str());
  ArtifactFlags flags;
  flags.trace_out = path;
  EXPECT_FALSE(write_artifacts(flags, Produced{}));
  std::vector<u8> blob;
  EXPECT_FALSE(read_blob_file(path, blob));  // nothing was created

  ArtifactFlags profile;
  profile.profile = true;
  EXPECT_FALSE(write_artifacts(profile, Produced{}));
  // Nothing requested, nothing produced: nothing to fail.
  EXPECT_TRUE(write_artifacts(ArtifactFlags{}, Produced{}));
}

TEST(WriteArtifacts, UnwritablePathFails) {
  ArtifactFlags flags;
  flags.metrics_out = "/nonexistent-dir/metrics.json";
  EXPECT_FALSE(write_artifacts(flags, Produced{}));
  ArtifactFlags trace;
  trace.trace_out = "/nonexistent-dir/run.trace";
  EXPECT_FALSE(write_artifacts(trace, {.trace = {1}}));
}

}  // namespace
}  // namespace hn::obs
