// Design-choice ablation: the paper fixes the coding geometry at 40 blocks
// of 1 KB per generation.  This bench sweeps both dimensions and shows the
// trade-off the choice sits on:
//   * small generations finish quickly (low per-generation latency, frequent
//     ACK round trips) but pay the per-packet coefficient overhead and the
//     pipeline ramp more often;
//   * large generations amortize ramps but inflate the coefficient vector
//     (n bytes of every packet) and the decode delay.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "coding/coded_packet.h"
#include "common/options.h"
#include "common/stats.h"
#include "common/table.h"

using namespace omnc;
using namespace omnc::experiments;

int main(int argc, char** argv) {
  const Options options(argc, argv);
  bench::BenchSetup base = bench::parse_setup(options);
  if (!options.has("sessions")) base.workload.sessions = 16;
  bench::ObsSetup obs = bench::parse_obs(options, "coding_params_sweep", base);
  base.run.trace = obs.recorder.get();
  std::printf("== OMNC throughput vs coding geometry ==\n");
  bench::print_setup(base);

  const auto sessions = generate_workload(base.workload);

  struct Geometry {
    int blocks;
    int bytes;
  };
  const std::vector<Geometry> geometries = {
      {10, 1024}, {20, 1024}, {40, 1024}, {80, 1024},
      {40, 256},  {40, 512},  {40, 2048},
  };

  TextTable table({"generation", "coeff overhead", "OMNC B/s", "gain vs ETX",
                   "generations/session"});
  int unmeasured = 0;
  for (const Geometry& g : geometries) {
    RunConfig run = base.run;
    run.protocol.coding.generation_blocks = static_cast<std::uint16_t>(g.blocks);
    run.protocol.coding.block_bytes = static_cast<std::uint16_t>(g.bytes);
    run.protocol.mac.slot_bytes = coding::CodedPacket::kHeaderBytes +
                                  static_cast<std::size_t>(g.blocks) +
                                  static_cast<std::size_t>(g.bytes);
    run.run_more = false;
    run.run_oldmore = false;
    const auto results = run_all(sessions, run);
    OnlineStats omnc, gain, generations;
    bench::CompletedGenerations completed;
    for (const auto& r : results) {
      if (r.etx.throughput_bytes_per_s <= 0.0) continue;
      omnc.add(r.omnc.throughput_per_generation);
      gain.add(r.gain_omnc);
      generations.add(r.omnc.generations_completed);
      completed.add("OMNC", r.omnc);
    }
    char name[32];
    std::snprintf(name, sizeof(name), "%d x %d B", g.blocks, g.bytes);
    unmeasured += completed.report_unmeasured(
        std::string("coding_params_sweep: ") + name + " row");
    char overhead[32];
    std::snprintf(overhead, sizeof(overhead), "%.1f%%",
                  100.0 * (g.blocks + 12.0) /
                      (g.blocks + 12.0 + g.bytes));
    table.add_row({name, overhead, TextTable::fmt(omnc.mean(), 0),
                   TextTable::fmt(gain.mean(), 2),
                   TextTable::fmt(generations.mean(), 1)});
    std::fprintf(stderr, "done %s\n", name);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading guide: the paper's 40 x 1 KB sits near the knee — larger\n"
      "generations buy little once ramps are amortized, smaller ones cycle\n"
      "the ACK machinery too often; fatter blocks cut coefficient overhead\n"
      "at the cost of per-packet latency.\n");
  bench::finish_obs(obs);
  return unmeasured > 0 ? 1 : 0;
}
