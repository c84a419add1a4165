#include "measure/dataset_io.h"

#include <filesystem>

#include "report/csv.h"

namespace dohperf::measure {
namespace {

namespace fs = std::filesystem;
using report::CsvReader;
using report::NumText;
using enum report::CsvType;

/// A run index as the dataset stores it: an int, never negative.
std::int32_t run_of(const CsvReader& t, std::size_t column) {
  const int run = t.number<int>(column);
  if (run < 0) t.fail(column, "a run index must be >= 0");
  return run;
}

}  // namespace

void save_dataset(const Dataset& dataset, const std::string& directory) {
  fs::create_directories(directory);
  const fs::path dir(directory);

  report::CsvWriter clients(
      {"exit_id", "iso2", "lat", "lon", "ns_distance_miles"});
  for (const auto& [id, info] : dataset.clients()) {
    clients.add_row({NumText(id), info.iso2, NumText::g17(info.position.lat),
                     NumText::g17(info.position.lon),
                     NumText::g17(info.nameserver_distance_miles)});
  }
  clients.write_file((dir / "clients.csv").string());

  report::CsvWriter doh({"exit_id", "iso2", "provider", "run", "pop_index",
                         "pop_distance_miles", "potential_improvement_miles",
                         "tdoh_ms", "tdohr_ms"});
  for (const auto& rec : dataset.doh()) {
    doh.add_row({NumText(rec.exit_id), dataset.name(rec.iso2),
                 dataset.name(rec.provider), NumText(rec.run),
                 NumText(rec.pop_index), NumText::g17(rec.pop_distance_miles),
                 NumText::g17(rec.potential_improvement_miles),
                 NumText::g17(rec.tdoh_ms), NumText::g17(rec.tdohr_ms)});
  }
  doh.write_file((dir / "doh.csv").string());

  report::CsvWriter do53({"exit_id", "iso2", "run", "via_atlas", "do53_ms"});
  for (const auto& rec : dataset.do53()) {
    do53.add_row({NumText(rec.exit_id), dataset.name(rec.iso2),
                  NumText(rec.run), rec.via_atlas ? "1" : "0",
                  NumText::g17(rec.do53_ms)});
  }
  do53.write_file((dir / "do53.csv").string());

  report::CsvWriter meta({"discarded_mismatch", "failed_measurements"});
  meta.add_row({NumText(dataset.discarded_mismatch),
                NumText(dataset.failed_measurements)});
  meta.write_file((dir / "meta.csv").string());
}

Dataset load_dataset(const std::string& directory) {
  const fs::path dir(directory);
  Dataset dataset;

  CsvReader clients = CsvReader::open(
      (dir / "clients.csv").string(),
      {{"exit_id", kUint64}, {"iso2"}, {"lat", kDouble}, {"lon", kDouble},
       {"ns_distance_miles", kDouble}});
  while (clients.next()) {
    ClientInfo info;
    info.exit_id = clients.number<std::uint64_t>(0);
    info.iso2 = clients.text(1);
    info.position.lat = clients.number<double>(2);
    info.position.lon = clients.number<double>(3);
    info.nameserver_distance_miles = clients.number<double>(4);
    dataset.add_client(std::move(info));
  }

  CsvReader doh = CsvReader::open(
      (dir / "doh.csv").string(),
      {{"exit_id", kUint64}, {"iso2"}, {"provider"}, {"run", kInt},
       {"pop_index", kUint32}, {"pop_distance_miles", kDouble},
       {"potential_improvement_miles", kDouble}, {"tdoh_ms", kDouble},
       {"tdohr_ms", kDouble}});
  while (doh.next()) {
    DohRecord rec;
    rec.exit_id = doh.number<std::uint64_t>(0);
    rec.iso2 = dataset.intern(doh.text(1));
    rec.provider = dataset.intern(doh.text(2));
    rec.run = run_of(doh, 3);
    rec.pop_index = doh.number<std::uint32_t>(4);
    rec.pop_distance_miles = doh.number<double>(5);
    rec.potential_improvement_miles = doh.number<double>(6);
    rec.tdoh_ms = doh.number<double>(7);
    rec.tdohr_ms = doh.number<double>(8);
    dataset.add_doh(rec);
  }

  CsvReader do53 = CsvReader::open(
      (dir / "do53.csv").string(),
      {{"exit_id", kUint64}, {"iso2"}, {"run", kInt}, {"via_atlas"},
       {"do53_ms", kDouble}});
  while (do53.next()) {
    Do53Record rec;
    rec.exit_id = do53.number<std::uint64_t>(0);
    rec.iso2 = dataset.intern(do53.text(1));
    rec.run = run_of(do53, 2);
    const std::string_view via_atlas = do53.text(3);
    if (via_atlas != "0" && via_atlas != "1") {
      do53.fail(3, "expected 0 or 1, got \"" + std::string(via_atlas) + "\"");
    }
    rec.via_atlas = via_atlas == "1";
    rec.do53_ms = do53.number<double>(4);
    dataset.add_do53(rec);
  }

  CsvReader meta = CsvReader::open(
      (dir / "meta.csv").string(),
      {{"discarded_mismatch", kUint64}, {"failed_measurements", kUint64}});
  while (meta.next()) {
    dataset.discarded_mismatch = meta.number<std::uint64_t>(0);
    dataset.failed_measurements = meta.number<std::uint64_t>(1);
  }
  return dataset;
}

}  // namespace dohperf::measure
