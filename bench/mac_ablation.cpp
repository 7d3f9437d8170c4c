// Ablation of the Drift-substitute MAC/PHY modelling choices (DESIGN.md).
//
// Each row re-runs a small session batch with one knob moved back to its
// idealized setting, showing how the headline gains depend on:
//   * contention (CSMA) vs idealized randomized-TDMA scheduling,
//   * bursty (Gilbert-Elliott) vs i.i.d. losses,
//   * the 802.11 unicast airtime cost (2 slots) vs equal airtime,
//   * the 802.11 retry limit vs retry-forever ARQ,
//   * hidden-terminal collisions vs receiver-protected scheduling,
//   * draining vs magically flushing stale-generation frames.
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "common/stats.h"
#include "common/table.h"

using namespace omnc;
using namespace omnc::experiments;

int main(int argc, char** argv) {
  const Options options(argc, argv);
  bench::BenchSetup base = bench::parse_setup(options);
  if (!options.has("sessions")) base.workload.sessions = 24;
  bench::ObsSetup obs = bench::parse_obs(options, "mac_ablation", base);
  base.run.trace = obs.recorder.get();
  std::printf("== MAC/PHY model ablation (throughput gains vs ETX) ==\n");
  bench::print_setup(base);

  struct Variant {
    const char* name;
    std::function<void(RunConfig&)> tweak;
  };
  const std::vector<Variant> variants = {
      {"calibrated model (benchmarks' default)", [](RunConfig&) {}},
      {"ideal TDMA scheduling (no contention)",
       [](RunConfig& c) { c.protocol.mac.mode = net::MacMode::kIdealScheduling; }},
      {"i.i.d. losses (no fading)",
       [](RunConfig& c) { c.protocol.mac.fading.enabled = false; }},
      {"unicast airtime = broadcast airtime",
       [](RunConfig& c) { c.protocol.mac.unicast_slot_cost = 1; }},
      {"ARQ retries forever (idealized reliability)",
       [](RunConfig& c) { c.protocol.mac.unicast_retry_limit = 0; }},
      {"receiver-protected ideal scheduling (no collisions)",
       [](RunConfig& c) {
         c.protocol.mac.mode = net::MacMode::kIdealScheduling;
         c.protocol.mac.protect_receivers = true;
       }},
      {"flush stale frames at ACK (free queue purge)",
       [](RunConfig& c) { c.protocol.flush_stale_frames = true; }},
  };

  const auto sessions = generate_workload(base.workload);
  TextTable table({"variant", "ETX B/s", "gain OMNC", "gain MORE",
                   "gain oldMORE", "q OMNC", "q MORE"});
  int unmeasured = 0;
  for (const auto& variant : variants) {
    RunConfig run = base.run;
    variant.tweak(run);
    const auto results = run_all(sessions, run);
    OnlineStats etx, omnc, more, oldmore, q_omnc, q_more;
    bench::CompletedGenerations generations;
    for (const auto& r : results) {
      if (r.etx.throughput_bytes_per_s <= 0.0) continue;
      etx.add(r.etx.throughput_bytes_per_s);
      omnc.add(r.gain_omnc);
      more.add(r.gain_more);
      oldmore.add(r.gain_oldmore);
      q_omnc.add(r.omnc.mean_queue);
      q_more.add(r.more.mean_queue);
      generations.add(r);
    }
    unmeasured += generations.report_unmeasured(
        std::string("mac_ablation: ") + variant.name);
    table.add_row({variant.name, TextTable::fmt(etx.mean(), 0),
                   TextTable::fmt(omnc.mean(), 2),
                   TextTable::fmt(more.mean(), 2),
                   TextTable::fmt(oldmore.mean(), 2),
                   TextTable::fmt(q_omnc.mean(), 2),
                   TextTable::fmt(q_more.mean(), 1)});
    std::fprintf(stderr, "done: %s\n", variant.name);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading guide: the paper's qualitative results (coded > ETX, OMNC\n"
      "> MORE > oldMORE) need the realistic unicast costs and bursty losses\n"
      "of real 802.11 meshes; each idealization above moves the baseline\n"
      "closer to (or past) the coded protocols.  See EXPERIMENTS.md.\n");
  bench::finish_obs(obs);
  return unmeasured > 0 ? 1 : 0;
}
