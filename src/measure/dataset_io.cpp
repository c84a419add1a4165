#include "measure/dataset_io.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace dohperf::measure {
namespace {

namespace fs = std::filesystem;

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Splits a CSV line produced by this module (fields never contain commas
/// or quotes by construction: ISO codes, provider names, numbers).
std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

double parse_double(const std::string& s, const char* context) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("dataset_io: bad number in ") +
                             context + ": \"" + s + "\"");
  }
}

std::uint64_t parse_u64(const std::string& s, const char* context) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    throw std::runtime_error(std::string("dataset_io: bad integer in ") +
                             context + ": \"" + s + "\"");
  }
  return v;
}

std::ofstream open_out(const fs::path& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("dataset_io: cannot write " + path.string());
  }
  return out;
}

/// Closes `out`, then checks it: a failure in any write, the final
/// flush included, throws.
void close_out(std::ofstream& out, const fs::path& path) {
  out.close();
  if (!out) {
    throw std::runtime_error("dataset_io: cannot write " + path.string());
  }
}

std::ifstream open_in(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("dataset_io: cannot read " + path.string());
  }
  return in;
}

void expect_header(std::ifstream& in, const std::string& expected,
                   const char* file) {
  std::string line;
  if (!std::getline(in, line) || line != expected) {
    throw std::runtime_error(std::string("dataset_io: bad header in ") +
                             file);
  }
}

}  // namespace

void save_dataset(const Dataset& dataset, const std::string& directory) {
  fs::create_directories(directory);
  const fs::path dir(directory);

  {
    const fs::path path = dir / "clients.csv";
    auto out = open_out(path);
    out << "exit_id,iso2,lat,lon,ns_distance_miles\n";
    for (const auto& [id, info] : dataset.clients()) {
      out << id << ',' << info.iso2 << ',' << fmt_double(info.position.lat)
          << ',' << fmt_double(info.position.lon) << ','
          << fmt_double(info.nameserver_distance_miles) << '\n';
    }
    close_out(out, path);
  }
  {
    const fs::path path = dir / "doh.csv";
    auto out = open_out(path);
    out << "exit_id,iso2,provider,run,pop_index,pop_distance_miles,"
           "potential_improvement_miles,tdoh_ms,tdohr_ms\n";
    for (const auto& rec : dataset.doh()) {
      out << rec.exit_id << ',' << dataset.name(rec.iso2) << ','
          << dataset.name(rec.provider) << ','
          << rec.run << ',' << rec.pop_index << ','
          << fmt_double(rec.pop_distance_miles) << ','
          << fmt_double(rec.potential_improvement_miles) << ','
          << fmt_double(rec.tdoh_ms) << ',' << fmt_double(rec.tdohr_ms)
          << '\n';
    }
    close_out(out, path);
  }
  {
    const fs::path path = dir / "do53.csv";
    auto out = open_out(path);
    out << "exit_id,iso2,run,via_atlas,do53_ms\n";
    for (const auto& rec : dataset.do53()) {
      out << rec.exit_id << ',' << dataset.name(rec.iso2) << ','
          << rec.run << ','
          << (rec.via_atlas ? 1 : 0) << ',' << fmt_double(rec.do53_ms)
          << '\n';
    }
    close_out(out, path);
  }
  {
    const fs::path path = dir / "meta.csv";
    auto out = open_out(path);
    out << "discarded_mismatch,failed_measurements\n";
    out << dataset.discarded_mismatch << ','
        << dataset.failed_measurements << '\n';
    close_out(out, path);
  }
}

Dataset load_dataset(const std::string& directory) {
  const fs::path dir(directory);
  Dataset dataset;
  std::string line;

  {
    auto in = open_in(dir / "clients.csv");
    expect_header(in, "exit_id,iso2,lat,lon,ns_distance_miles",
                  "clients.csv");
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto f = split(line);
      if (f.size() != 5) {
        throw std::runtime_error("dataset_io: bad row in clients.csv");
      }
      ClientInfo info;
      info.exit_id = parse_u64(f[0], "clients.csv");
      info.iso2 = f[1];
      info.position.lat = parse_double(f[2], "clients.csv");
      info.position.lon = parse_double(f[3], "clients.csv");
      info.nameserver_distance_miles = parse_double(f[4], "clients.csv");
      dataset.add_client(std::move(info));
    }
  }
  {
    auto in = open_in(dir / "doh.csv");
    expect_header(in,
                  "exit_id,iso2,provider,run,pop_index,pop_distance_miles,"
                  "potential_improvement_miles,tdoh_ms,tdohr_ms",
                  "doh.csv");
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto f = split(line);
      if (f.size() != 9) {
        throw std::runtime_error("dataset_io: bad row in doh.csv");
      }
      DohRecord rec;
      rec.exit_id = parse_u64(f[0], "doh.csv");
      rec.iso2 = dataset.intern(f[1]);
      rec.provider = dataset.intern(f[2]);
      rec.run = static_cast<int>(parse_u64(f[3], "doh.csv"));
      rec.pop_index =
          static_cast<std::uint32_t>(parse_u64(f[4], "doh.csv"));
      rec.pop_distance_miles = parse_double(f[5], "doh.csv");
      rec.potential_improvement_miles = parse_double(f[6], "doh.csv");
      rec.tdoh_ms = parse_double(f[7], "doh.csv");
      rec.tdohr_ms = parse_double(f[8], "doh.csv");
      dataset.add_doh(rec);
    }
  }
  {
    auto in = open_in(dir / "do53.csv");
    expect_header(in, "exit_id,iso2,run,via_atlas,do53_ms", "do53.csv");
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto f = split(line);
      if (f.size() != 5) {
        throw std::runtime_error("dataset_io: bad row in do53.csv");
      }
      Do53Record rec;
      rec.exit_id = parse_u64(f[0], "do53.csv");
      rec.iso2 = dataset.intern(f[1]);
      rec.run = static_cast<int>(parse_u64(f[2], "do53.csv"));
      rec.via_atlas = f[3] == "1";
      rec.do53_ms = parse_double(f[4], "do53.csv");
      dataset.add_do53(rec);
    }
  }
  {
    auto in = open_in(dir / "meta.csv");
    expect_header(in, "discarded_mismatch,failed_measurements", "meta.csv");
    if (std::getline(in, line) && !line.empty()) {
      const auto f = split(line);
      if (f.size() != 2) {
        throw std::runtime_error("dataset_io: bad row in meta.csv");
      }
      dataset.discarded_mismatch = parse_u64(f[0], "meta.csv");
      dataset.failed_measurements = parse_u64(f[1], "meta.csv");
    }
  }
  return dataset;
}

}  // namespace dohperf::measure
