// Tests for dataset persistence (save/load round trip).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "measure/dataset_io.h"
#include "scratch_path.h"

namespace dohperf::measure {
namespace {

namespace fs = std::filesystem;

Dataset sample_dataset() {
  Dataset data;
  ClientInfo info;
  info.exit_id = 17;
  info.iso2 = "SE";
  info.position = {59.33, 18.07};
  info.nameserver_distance_miles = 3912.5;
  data.add_client(info);

  DohRecord doh;
  doh.exit_id = 17;
  doh.iso2 = data.intern("SE");
  doh.provider = data.intern("Cloudflare");
  doh.run = 1;
  doh.pop_index = 42;
  doh.pop_distance_miles = 123.456789;
  doh.potential_improvement_miles = 0.125;
  doh.tdoh_ms = 338.0123456789;
  doh.tdohr_ms = 257.5;
  data.add_doh(doh);

  Do53Record do53;
  do53.exit_id = 17;
  do53.iso2 = data.intern("SE");
  do53.run = 0;
  do53.via_atlas = false;
  do53.do53_ms = 234.25;
  data.add_do53(do53);

  Do53Record atlas;
  atlas.exit_id = kAtlasExitId;
  atlas.iso2 = data.intern("US");
  atlas.via_atlas = true;
  atlas.do53_ms = 48.75;
  data.add_do53(atlas);

  data.discarded_mismatch = 3;
  data.failed_measurements = 9;
  return data;
}

std::string temp_dir(const char* name) {
  return tests::scratch_path(name).string();
}

TEST(DatasetIoTest, RoundTripsExactly) {
  const std::string dir = temp_dir("dohperf_io_roundtrip");
  const Dataset original = sample_dataset();
  save_dataset(original, dir);
  const Dataset loaded = load_dataset(dir);

  ASSERT_EQ(loaded.clients().size(), 1u);
  const ClientInfo& info = loaded.clients().at(17);
  EXPECT_EQ(info.iso2, "SE");
  EXPECT_DOUBLE_EQ(info.position.lat, 59.33);
  EXPECT_DOUBLE_EQ(info.nameserver_distance_miles, 3912.5);

  ASSERT_EQ(loaded.doh().size(), 1u);
  const DohRecord& doh = loaded.doh()[0];
  EXPECT_EQ(loaded.name(doh.provider), "Cloudflare");
  EXPECT_EQ(doh.run, 1);
  EXPECT_EQ(doh.pop_index, 42u);
  EXPECT_DOUBLE_EQ(doh.tdoh_ms, 338.0123456789);  // bit-exact via %.17g
  EXPECT_DOUBLE_EQ(doh.pop_distance_miles, 123.456789);

  ASSERT_EQ(loaded.do53().size(), 2u);
  EXPECT_FALSE(loaded.do53()[0].via_atlas);
  EXPECT_TRUE(loaded.do53()[1].via_atlas);
  EXPECT_EQ(loaded.do53()[1].exit_id, kAtlasExitId);

  EXPECT_EQ(loaded.discarded_mismatch, 3u);
  EXPECT_EQ(loaded.failed_measurements, 9u);
  fs::remove_all(dir);
}

TEST(DatasetIoTest, EmptyDatasetRoundTrips) {
  const std::string dir = temp_dir("dohperf_io_empty");
  save_dataset(Dataset{}, dir);
  const Dataset loaded = load_dataset(dir);
  EXPECT_TRUE(loaded.clients().empty());
  EXPECT_TRUE(loaded.doh().empty());
  EXPECT_TRUE(loaded.do53().empty());
  fs::remove_all(dir);
}

TEST(DatasetIoTest, AggregatesSurviveRoundTrip) {
  const std::string dir = temp_dir("dohperf_io_agg");
  const Dataset original = sample_dataset();
  save_dataset(original, dir);
  const Dataset loaded = load_dataset(dir);
  EXPECT_EQ(loaded.unique_clients("Cloudflare"),
            original.unique_clients("Cloudflare"));
  EXPECT_EQ(loaded.client_provider_stats().size(),
            original.client_provider_stats().size());
  fs::remove_all(dir);
}

TEST(DatasetIoTest, MissingDirectoryThrows) {
  EXPECT_THROW((void)load_dataset("/nonexistent/dohperf/dataset"),
               std::runtime_error);
}

TEST(DatasetIoTest, BadHeaderThrows) {
  const std::string dir = temp_dir("dohperf_io_badheader");
  save_dataset(sample_dataset(), dir);
  std::ofstream(fs::path(dir) / "doh.csv") << "wrong,header\n";
  EXPECT_THROW((void)load_dataset(dir), std::runtime_error);
  fs::remove_all(dir);
}

TEST(DatasetIoTest, MalformedNumberThrows) {
  const std::string dir = temp_dir("dohperf_io_badnum");
  save_dataset(sample_dataset(), dir);
  std::ofstream(fs::path(dir) / "do53.csv")
      << "exit_id,iso2,run,via_atlas,do53_ms\n17,SE,0,0,notanumber\n";
  EXPECT_THROW((void)load_dataset(dir), std::runtime_error);
  fs::remove_all(dir);
}

TEST(DatasetIoTest, ShortRowThrows) {
  const std::string dir = temp_dir("dohperf_io_shortrow");
  save_dataset(sample_dataset(), dir);
  std::ofstream(fs::path(dir) / "clients.csv")
      << "exit_id,iso2,lat,lon,ns_distance_miles\n17,SE,1.0\n";
  EXPECT_THROW((void)load_dataset(dir), std::runtime_error);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dohperf::measure
