// Sec. 4, "Accelerated network coding" — the paper reports that the SIMD
// loop-based coding framework is 3-5x faster than the traditional
// lookup-table implementation, depending on generation and block size.
//
// Benchmarks cover the raw region kernels (single-source axpy, the fused
// four-source fold, and the scatter form), full-generation encoding, and
// progressive decoding through recover(), each registered once per backend
// (scalar / sse2 / ssse3 / avx2 / gfni / neon / portable).  Unsupported
// backends are skipped at run time.  Run with --benchmark_filter=... to narrow, and --json <path>
// to mirror results into the shared bench JSON format.
#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codes/family_runtime.h"
#include "coding/decoder.h"
#include "coding/encoder.h"
#include "common/rng.h"
#include "galois/region.h"

using namespace omnc;

namespace {

constexpr gf::Backend kAllBackends[] = {
    gf::Backend::kScalarTable, gf::Backend::kSse2,    gf::Backend::kSsse3,
    gf::Backend::kAvx2,        gf::Backend::kGfni,    gf::Backend::kNeon,
    gf::Backend::kPortable};

void bench_axpy(benchmark::State& state, gf::Backend backend) {
  if (!gf::backend_supported(backend)) {
    state.SkipWithError("backend not supported on this CPU");
    return;
  }
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::uint8_t> src(size);
  std::vector<std::uint8_t> dst(size);
  for (auto& b : src) b = rng.next_byte();
  std::uint8_t c = 2;
  for (auto _ : state) {
    gf::region_axpy_backend(backend, dst.data(), src.data(), c, size);
    benchmark::DoNotOptimize(dst.data());
    c = static_cast<std::uint8_t>(c * 3 + 1) | 1;  // vary the constant
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}

void bench_axpy4(benchmark::State& state, gf::Backend backend) {
  if (!gf::backend_supported(backend)) {
    state.SkipWithError("backend not supported on this CPU");
    return;
  }
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<std::vector<std::uint8_t>> srcs(4,
                                              std::vector<std::uint8_t>(size));
  for (auto& s : srcs) {
    for (auto& b : s) b = rng.next_byte();
  }
  std::vector<std::uint8_t> dst(size);
  std::uint8_t c = 2;
  for (auto _ : state) {
    gf::region_axpy4_backend(backend, dst.data(), srcs[0].data(), c,
                             srcs[1].data(),
                             static_cast<std::uint8_t>(c + 1), srcs[2].data(),
                             static_cast<std::uint8_t>(c + 2), srcs[3].data(),
                             static_cast<std::uint8_t>(c + 3), size);
    benchmark::DoNotOptimize(dst.data());
    c = static_cast<std::uint8_t>(c * 3 + 1) | 1;
  }
  // Source bytes folded per iteration — comparable to 4 single axpys.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * size));
}

void bench_axpy_scatter(benchmark::State& state, gf::Backend backend) {
  if (!gf::backend_supported(backend)) {
    state.SkipWithError("backend not supported on this CPU");
    return;
  }
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRows = 16;
  Rng rng(3);
  std::vector<std::uint8_t> src(size);
  for (auto& b : src) b = rng.next_byte();
  std::vector<std::vector<std::uint8_t>> rows(kRows,
                                              std::vector<std::uint8_t>(size));
  std::vector<std::uint8_t*> dsts;
  std::vector<std::uint8_t> coeffs;
  for (auto& r : rows) {
    dsts.push_back(r.data());
    coeffs.push_back(rng.next_byte());
  }
  for (auto _ : state) {
    gf::region_axpy_scatter_backend(backend, dsts.data(), coeffs.data(), kRows,
                                    src.data(), size);
    benchmark::DoNotOptimize(dsts.data());
  }
  // Destination bytes written per iteration — comparable to kRows axpys.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows * size));
}

void bench_encode(benchmark::State& state, gf::Backend backend) {
  if (!gf::backend_supported(backend)) {
    state.SkipWithError("backend not supported on this CPU");
    return;
  }
  const gf::Backend previous = gf::active_backend();
  gf::set_backend(backend);
  const auto blocks = static_cast<std::uint16_t>(state.range(0));
  const auto bytes = static_cast<std::uint16_t>(state.range(1));
  coding::CodingParams params{blocks, bytes};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 7);
  coding::SourceEncoder encoder(gen, 0);
  Rng rng(3);
  for (auto _ : state) {
    coding::CodedPacket pkt = encoder.next_packet(rng);
    benchmark::DoNotOptimize(pkt.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bytes);
  gf::set_backend(previous);
}

void bench_progressive_decode(benchmark::State& state, gf::Backend backend) {
  if (!gf::backend_supported(backend)) {
    state.SkipWithError("backend not supported on this CPU");
    return;
  }
  const gf::Backend previous = gf::active_backend();
  gf::set_backend(backend);
  const auto blocks = static_cast<std::uint16_t>(state.range(0));
  const auto bytes = static_cast<std::uint16_t>(state.range(1));
  coding::CodingParams params{blocks, bytes};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 7);
  coding::SourceEncoder encoder(gen, 0);
  Rng rng(5);
  // Pre-generate a full generation worth of packets outside the timing loop.
  std::vector<coding::CodedPacket> packets;
  for (int i = 0; i < blocks + 4; ++i) packets.push_back(encoder.next_packet(rng));
  std::vector<std::uint8_t> out(params.generation_bytes());
  for (auto _ : state) {
    coding::ProgressiveDecoder decoder(params, 0);
    for (const auto& pkt : packets) {
      if (decoder.complete()) break;
      decoder.offer(pkt.as_view());
    }
    // Decode all the way through: recover_into() runs the deferred payload
    // elimination straight into the caller buffer, so the timing covers
    // offers plus materialization with no output allocation or concat copy.
    decoder.recover_into(std::span<std::uint8_t>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blocks) * bytes);
  gf::set_backend(previous);
}

// Family decoders (DESIGN.md §15): the structured CBD-style decoder fed by
// the family encoder's own emission order.  Systematic runs the lossless
// fast path (n uncoded originals, zero GF region multiplies); banded decode
// cost scales with the band width instead of the generation size, which is
// the BENCH_9 decode-cost win against BM_Decode's dense Gauss-Jordan.
void bench_family_decode(benchmark::State& state, gf::Backend backend,
                         codes::CodeSpec spec) {
  if (!gf::backend_supported(backend)) {
    state.SkipWithError("backend not supported on this CPU");
    return;
  }
  const gf::Backend previous = gf::active_backend();
  gf::set_backend(backend);
  const auto blocks = static_cast<std::uint16_t>(state.range(0));
  const auto bytes = static_cast<std::uint16_t>(state.range(1));
  if (spec.family == codes::CodeFamily::kBanded) {
    spec.band_width = static_cast<std::uint16_t>(state.range(2));
  }
  coding::CodingParams params{blocks, bytes};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 7);
  codes::FamilyEncoder encoder(gen, 0, spec);
  Rng rng(5);
  // Pre-generate outside the timing loop until a probe decoder completes,
  // so the timed loop always replays a completing reception sequence; views
  // hold the structures' explicit coefficient bytes, exactly as the wire
  // layer would deliver.
  std::vector<coding::CodedPacket> packets;
  std::vector<coding::CodedStructure> structures;
  std::vector<coding::CodedPacketView> views;
  {
    codes::StructuredDecoder probe(params, 0);
    const std::size_t budget = static_cast<std::size_t>(blocks) * 64;
    while (!probe.complete() && packets.size() < budget) {
      packets.emplace_back();
      structures.emplace_back();
      encoder.next_packet_into(rng, &packets.back(), &structures.back());
      coding::CodedPacketView view = packets.back().as_view();
      switch (structures.back().kind) {
        case coding::CodedStructure::Kind::kDense:
          break;
        case coding::CodedStructure::Kind::kUncoded:
          view.coefficients = {};
          break;
        case coding::CodedStructure::Kind::kWindow:
          view.coefficients = view.coefficients.subspan(
              structures.back().offset, structures.back().width);
          break;
      }
      probe.offer(view, structures.back());
    }
    if (!probe.complete()) {
      state.SkipWithError("family sequence did not reach full rank");
      gf::set_backend(previous);
      return;
    }
    // as_view() spans must be taken after the vector stops reallocating.
    views.resize(packets.size());
    for (std::size_t i = 0; i < packets.size(); ++i) {
      coding::CodedPacketView view = packets[i].as_view();
      switch (structures[i].kind) {
        case coding::CodedStructure::Kind::kDense:
          break;
        case coding::CodedStructure::Kind::kUncoded:
          view.coefficients = {};
          break;
        case coding::CodedStructure::Kind::kWindow:
          view.coefficients = view.coefficients.subspan(structures[i].offset,
                                                        structures[i].width);
          break;
      }
      views[i] = view;
    }
  }
  std::vector<std::uint8_t> out(params.generation_bytes());
  for (auto _ : state) {
    codes::StructuredDecoder decoder(params, 0);
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (decoder.complete()) break;
      decoder.offer(views[i], structures[i]);
    }
    decoder.recover_into(std::span<std::uint8_t>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blocks) * bytes);
  gf::set_backend(previous);
}

/// One benchmark family per backend, named BM_<What>/<backend-name>/<args>.
void register_benchmarks() {
  for (const gf::Backend backend : kAllBackends) {
    const std::string name = gf::backend_name(backend);
    benchmark::RegisterBenchmark(("BM_Axpy/" + name).c_str(), bench_axpy,
                                 backend)
        ->Arg(256)
        ->Arg(1024)
        ->Arg(4096);
    benchmark::RegisterBenchmark(("BM_Axpy4/" + name).c_str(), bench_axpy4,
                                 backend)
        ->Arg(1024)
        ->Arg(4096);
    benchmark::RegisterBenchmark(("BM_AxpyScatter/" + name).c_str(),
                                 bench_axpy_scatter, backend)
        ->Arg(128)
        ->Arg(1024);
    // The paper's coding geometry (40 x 1 KB) plus variations.
    benchmark::RegisterBenchmark(("BM_Encode/" + name).c_str(), bench_encode,
                                 backend)
        ->Args({40, 1024})
        ->Args({16, 1024})
        ->Args({40, 256});
    benchmark::RegisterBenchmark(("BM_Decode/" + name).c_str(),
                                 bench_progressive_decode, backend)
        ->Args({40, 1024})
        ->Args({64, 1024})
        ->Args({16, 256});
    benchmark::RegisterBenchmark(("BM_DecodeSystematic/" + name).c_str(),
                                 bench_family_decode, backend,
                                 codes::CodeSpec::systematic())
        ->Args({64, 1024})
        ->Args({40, 1024});
    // BM_Decode's truly dense packets through the structured decoder: the
    // like-for-like per-backend comparison of the two decoders.
    benchmark::RegisterBenchmark(("BM_DecodeStructuredDense/" + name).c_str(),
                                 bench_family_decode, backend,
                                 codes::CodeSpec::dense())
        ->Args({40, 1024})
        ->Args({64, 1024})
        ->Args({16, 256});
    // Third arg: band width (<= g/4 is the BENCH_9 decode-cost target).
    benchmark::RegisterBenchmark(("BM_DecodeBanded/" + name).c_str(),
                                 bench_family_decode, backend,
                                 codes::CodeSpec::banded(0))
        ->Args({64, 1024, 16})
        ->Args({64, 1024, 8});
  }
}

/// Console reporter that additionally mirrors every finished run into the
/// shared bench JSON writer (--json <path>), one record per metric.
class JsonBridgeReporter final : public benchmark::ConsoleReporter {
 public:
  explicit JsonBridgeReporter(bench::JsonWriter* writer) : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const std::string params = run.benchmark_name();
      writer_->record("coding_speed", params, "real_time_ns",
                      run.GetAdjustedRealTime());
      writer_->record("coding_speed", params, "cpu_time_ns",
                      run.GetAdjustedCPUTime());
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        writer_->record("coding_speed", params, "bytes_per_second",
                        static_cast<double>(bytes->second));
      }
    }
  }

 private:
  bench::JsonWriter* writer_;
};

}  // namespace

// Hand-rolled BENCHMARK_MAIN(): peel off our --json flag before handing the
// remaining argv to google-benchmark, then run with the bridging reporter.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  register_benchmarks();
  bench::JsonWriter writer(json_path);
  JsonBridgeReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
