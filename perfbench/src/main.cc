// perfbench: runs one workload of the vadalog benchmark and prints its
// result as one JSON line (the last line of stdout). Usage:
//
//   perfbench --workload cold_search|warm_serve --seed N
//             --seconds S --trace 0|1 --vadalogd PATH --out-dir DIR
//             [--self-test flip|drop]
//
// Exits 1 when any output check failed, 2 on bad arguments.

#include <cstdio>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::SecondsSinceStart();  // the clock that set-up time reads
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--vadalogd") {
      args.vadalogd = value;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--self-test") {
      args.self_test = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  perfbench::Result result;
  if (args.workload == "cold_search") {
    result = perfbench::RunColdSearch(args);
  } else if (args.workload == "warm_serve") {
    result = perfbench::RunWarmServe(args);
  } else {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }
  perfbench::PrintResult(result);
  return result.correct ? 0 : 1;
}
