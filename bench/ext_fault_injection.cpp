// Extension — episodic fault injection: how does the DoH-vs-Do53 gap
// respond as loss-spike episodes intensify?
//
// The experiment is a declarative sweep spec: otherwise-identical
// quarter-scale campaigns stepping the per-session loss-spike
// probability (fixed spike severity). scenario::expand() turns the spec
// into the cell grid and scenario::run() executes each cell; this file
// only shapes the results. DoH's longer setup chain (tunnel, TCP, TLS,
// HTTP) crosses more datagram exchanges per measurement than Do53's
// single UDP round trip, so episodic loss should both retard DoH more
// in absolute terms and convert more DoH measurements into hard
// failures. The retry counters come from the per-attempt state machines
// (NetCtx::await_datagram_delivery / handshake_gate), merged
// bit-identically across shards.
#include <cstdio>
#include <sstream>
#include <vector>

#include "obs/trace_export.h"
#include "scenario/sweep.h"
#include "support.h"

using namespace dohperf;

namespace {

constexpr const char* kSweepSpec = R"(name = "ext-fault-injection"

[world]
client_scale = 0.25

[campaign]
atlas_measurements_per_country = 20

[faults]
spike_extra_loss = 0.5

[sweep]
faults.loss_spike_probability = [0, 0.25, 0.5, 1]
)";

struct Outcome {
  double spike_probability;
  double doh1_median;
  double do53_median;
  std::uint64_t retries;       // data + handshake retransmits
  std::uint64_t timeouts;      // exchanges that ran their budget dry
  std::uint64_t failed;        // failed measurements in the dataset
  std::uint64_t sessions;
};

Outcome run_cell(const scenario::SweepCell& cell) {
  const scenario::RunResult result = scenario::run(cell.spec);
  Outcome out;
  out.spike_probability = cell.spec.campaign.faults.loss_spike_probability;
  out.doh1_median = result.doh1_median_ms;
  out.do53_median = result.do53_median_ms;
  out.retries = result.retries;
  out.timeouts = result.retry_timeouts;
  out.failed = result.failed_measurements;
  out.sessions = result.stats.sessions;
  return out;
}

int bench() {
  std::printf("Extension: episodic loss-spike injection sweep\n"
              "(quarter-scale campaigns; spike severity fixed at 0.5 "
              "extra loss,\n windowed per session)\n\n");

  const scenario::SpecDocument doc =
      benchsupport::inline_spec(kSweepSpec, "ext_fault_injection");
  std::printf("sweep spec hash %s\n\n",
              scenario::document_hash(doc).c_str());

  std::vector<Outcome> outcomes;
  for (const scenario::SweepCell& cell : scenario::expand(doc)) {
    outcomes.push_back(run_cell(cell));
  }

  report::Table table("Loss-episode intensity vs DoH / Do53");
  table.header({"spike prob", "DoH1 med (ms)", "Do53 med (ms)",
                "DoH-Do53 delta", "retries", "give-ups", "failed"});
  for (const Outcome& o : outcomes) {
    table.row({report::fmt(o.spike_probability, 2),
               report::fmt(o.doh1_median, 0),
               report::fmt(o.do53_median, 0),
               report::fmt(o.doh1_median - o.do53_median, 0),
               std::to_string(o.retries), std::to_string(o.timeouts),
               std::to_string(o.failed)});
  }
  table.caption(
      "Retries and give-ups come from the per-attempt retransmit state "
      "machines; at probability 0 the machinery is draw-identical to the "
      "calibrated baseline, so that column doubles as the golden "
      "reference. DoH crosses more exchanges per measurement than Do53, "
      "so episodes widen the absolute gap and convert measurements into "
      "failures.");
  std::fputs(table.render().c_str(), stdout);

  const std::string csv = benchsupport::out_path("ext_fault_injection.csv");
  std::ostringstream text;
  text << "spike_probability,doh1_median_ms,do53_median_ms,retries,"
          "retry_timeouts,failed_measurements,sessions\n";
  for (const Outcome& o : outcomes) {
    text << o.spike_probability << ',' << o.doh1_median << ','
         << o.do53_median << ',' << o.retries << ',' << o.timeouts << ','
         << o.failed << ',' << o.sessions << '\n';
  }
  obs::write_text_file(csv, text.str());
  std::printf("\nwrote %s\n", csv.c_str());

  // Sanity contract: zero intensity exercises zero episode retries, and
  // retry work grows with intensity.
  bool ok = outcomes.front().timeouts == 0;
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    ok = ok && outcomes[i].retries > outcomes[i - 1].retries;
    ok = ok && outcomes[i].failed >= outcomes[i - 1].failed;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  return benchsupport::run_main("ext_fault_injection", bench);
}
