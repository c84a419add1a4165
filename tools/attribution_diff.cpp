// Differential comparison of two attribution CSV artifacts.
//
//   attribution_diff A.csv B.csv [--transport-a X] [--transport-b Y]
//                    [--svg out.svg]
//
// Loads both attribution CSVs (scenario outputs.attribution_csv or
// report::attribution_csv artifacts), aggregates each — optionally
// restricted to one transport label — and prints the per-phase delta
// waterfall: for every phase, the mean per-flow time in A, in B, and the
// delta, whose column sums exactly to the end-to-end mean delta (the
// 128-bit rational identity of report::make_waterfall). With --svg the
// same waterfall is rendered as a standalone SVG chart.
//
// Exit codes: 0 success, 1 usage, 2 unreadable/malformed input or an
// empty aggregate (no flows under the requested transport), 3 exactness
// violation (cells that are individually consistent can never trigger
// this; it guards artifact corruption).
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/trace_export.h"
#include "report/attribution.h"

namespace {

[[noreturn]] void die(int code, const std::string& message) {
  std::fprintf(stderr, "attribution_diff: %s\n", message.c_str());
  std::exit(code);
}

dohperf::report::AttributionTable load(const std::string& path) {
  const std::optional<std::string> text = dohperf::obs::read_text_file(path);
  if (!text) die(2, "cannot read " + path);
  std::string error;
  const std::optional<dohperf::report::AttributionTable> table =
      dohperf::report::load_attribution_csv(*text, path, &error);
  if (!table.has_value()) die(2, error);
  return *table;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path_a, path_b;
  std::string transport_a, transport_b;
  std::string svg_path;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take_value = [&]() -> std::string {
      if (i + 1 >= argc) die(1, "missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--transport-a") {
      transport_a = take_value();
    } else if (arg == "--transport-b") {
      transport_b = take_value();
    } else if (arg == "--transport") {
      transport_a = transport_b = take_value();
    } else if (arg == "--svg") {
      svg_path = take_value();
    } else if (!arg.empty() && arg[0] == '-') {
      die(1, "unknown option " + arg);
    } else if (positional == 0) {
      path_a = arg;
      ++positional;
    } else if (positional == 1) {
      path_b = arg;
      ++positional;
    } else {
      die(1, "unexpected argument " + arg);
    }
  }
  if (positional != 2) {
    std::fprintf(stderr,
                 "usage: attribution_diff <a.csv> <b.csv>"
                 " [--transport <t> | --transport-a <t> --transport-b <t>]"
                 " [--svg <out.svg>]\n");
    return 1;
  }

  const dohperf::report::AttributionTable table_a = load(path_a);
  const dohperf::report::AttributionTable table_b = load(path_b);
  const dohperf::report::AttributionCell cell_a =
      dohperf::report::aggregate(table_a, transport_a);
  const dohperf::report::AttributionCell cell_b =
      dohperf::report::aggregate(table_b, transport_b);
  if (cell_a.flows == 0) {
    die(2, "no flows in " + path_a +
               (transport_a.empty() ? std::string()
                                    : " under transport " + transport_a));
  }
  if (cell_b.flows == 0) {
    die(2, "no flows in " + path_b +
               (transport_b.empty() ? std::string()
                                    : " under transport " + transport_b));
  }

  const auto label = [](const std::string& path,
                        const std::string& transport) {
    return transport.empty() ? path : path + " [" + transport + "]";
  };
  const std::string label_a = label(path_a, transport_a);
  const std::string label_b = label(path_b, transport_b);

  const dohperf::report::Waterfall waterfall =
      dohperf::report::make_waterfall(cell_a, cell_b);
  std::fputs(
      dohperf::report::waterfall_text(waterfall, label_a, label_b).c_str(),
      stdout);

  if (!svg_path.empty()) {
    try {
      dohperf::obs::write_text_file(
          svg_path,
          dohperf::report::waterfall_svg(waterfall, label_a, label_b));
    } catch (const std::runtime_error& e) {
      die(2, e.what());
    }
    std::fprintf(stderr, "attribution_diff: waterfall SVG -> %s\n",
                 svg_path.c_str());
  }

  if (!waterfall.exact) {
    die(3, "per-phase deltas do not sum to the end-to-end delta "
           "(corrupt artifact?)");
  }
  return 0;
}
