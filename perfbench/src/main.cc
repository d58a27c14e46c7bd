// perfbench: the opmap benchmark binary.
//
//   perfbench prepare --workload W --seed N --dir D
//       writes the run's generated inputs into D (a process of its own, so
//       generation never shows in the measured process's memory);
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       measures for S seconds, checks every output and prints one JSON
//       line: end-to-end metrics (--trace 0) or per-layer ones (--trace 1).
//
// perfbench/run.py builds this binary and is the command to use.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare|run --workload batch_build|explore|serve_hot|"
               "ingest_live --seed N --dir DIR [--seconds S] [--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  perfbench::Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      args.dir = value;
    } else {
      return Usage();
    }
  }
  if (args.dir.empty() || args.seconds <= 0) return Usage();

  using Prepare = void (*)(const perfbench::Args&);
  using Run = void (*)(const perfbench::Args&, perfbench::Report*);
  Prepare prepare = nullptr;
  Run run = nullptr;
  if (args.workload == "batch_build") {
    prepare = perfbench::PrepareBatchBuild, run = perfbench::RunBatchBuild;
  } else if (args.workload == "explore") {
    prepare = perfbench::PrepareExplore, run = perfbench::RunExplore;
  } else if (args.workload == "serve_hot") {
    prepare = perfbench::PrepareServeHot, run = perfbench::RunServeHot;
  } else if (args.workload == "ingest_live") {
    prepare = perfbench::PrepareIngestLive, run = perfbench::RunIngestLive;
  } else {
    return Usage();
  }

  if (mode == "prepare") {
    prepare(args);
    return 0;
  }
  if (mode != "run") return Usage();
  perfbench::Report report;
  run(args, &report);
  std::printf("%s\n", report.ToJson(args.trace).c_str());
  return report.correct() ? 0 : 1;
}
