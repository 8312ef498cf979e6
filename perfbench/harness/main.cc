// perfbench_harness: runs one benchmark workload and writes its raw report.
//
//   perfbench_harness --workload <paper_increments|dirty_stream|learn_serve>
//       --seed <n> --seconds <s> --trace <0|1> --out <report.json>
//       --workdir <dir> --refs <dir> [--schedule <file>] [--daemon <binary>]
//
// perfbench/run.py builds and calls this; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness/common.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--refs") {
      args.refs = value;
    } else if (flag == "--schedule") {
      args.schedule = value;
    } else if (flag == "--daemon") {
      args.daemon = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.out.empty() || args.workdir.empty() || args.refs.empty() ||
      !(args.seconds > 0.0)) {
    std::fprintf(stderr, "--out, --workdir, --refs and --seconds > 0 are "
                         "required\n");
    return 2;
  }
  std::filesystem::create_directories(args.workdir);

  perfbench::Report report(args);
  if (args.workload == "paper_increments") {
    perfbench::RunPaperIncrements(args, &report);
  } else if (args.workload == "dirty_stream") {
    perfbench::RunDirtyStream(args, &report);
  } else if (args.workload == "learn_serve") {
    perfbench::RunLearnServe(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }
  if (!report.Write()) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
