// Dataset persistence.
//
// The paper released its measurement dataset alongside publication; this
// module gives the reproduction the same property. A dataset serialises
// to four CSV files in a directory (clients.csv, doh.csv, do53.csv and
// meta.csv) through report::CsvWriter and loads back bit-exactly through
// report::CsvReader: doubles are written in NumText's %.17g form, which
// the number rule reads back to the same bits.
#pragma once

#include <string>

#include "measure/dataset.h"

namespace dohperf::measure {

/// Writes `dataset` into `directory` (created if missing). Throws
/// std::runtime_error on I/O failure.
void save_dataset(const Dataset& dataset, const std::string& directory);

/// Loads a dataset previously written by save_dataset. Throws
/// std::runtime_error on a missing file or a malformed one, with one
/// diagnostic naming the file and, where they apply, the row and column.
[[nodiscard]] Dataset load_dataset(const std::string& directory);

}  // namespace dohperf::measure
