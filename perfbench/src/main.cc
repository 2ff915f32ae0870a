// kgov_perfbench: the end-to-end load generator behind perfbench/run.py.
//
//   kgov_perfbench --workload <helpdesk-vote|community-stream>
//                  --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Prints the workload's properties and timing sample counts, then one JSON
// line: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Exits 1 when the correctness oracle finds a mismatch.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: kgov_perfbench --workload "
               "<helpdesk-vote|community-stream> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  kgov::perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
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
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) return Usage(("cannot create " + args.workdir).c_str());

  bool correct = false;
  std::string json;
  if (args.workload == "helpdesk-vote") {
    json = kgov::perfbench::RunHelpdesk(args, &correct);
  } else if (args.workload == "community-stream") {
    json = kgov::perfbench::RunCommunityStream(args, &correct);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
