// qbench: one command for qcache's benchmark workloads (see ../README.md).
//
//   qbench --workload <setquery-hotspot|wire-zipf|cluster-cdc> --seed <n>
//          --seconds <s> --trace <0|1>
//
// Prints detail lines, then one JSON line: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).
//
// Every thread of a run (clients, servers, appliers) shares one CPU, the
// last one the process may use. On a 4-vCPU virtual machine, hand-offs
// between idle vCPUs over loopback made the same run vary by 30 % or more;
// on one CPU a run measures the work an operation costs, and repeats.
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"

int main(int argc, char** argv) {
  qbench::RunOptions options;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else {
        std::cerr << "unknown flag " << flag << "\n";
        return 2;
      }
    }
    if (options.seconds <= 0) {
      std::cerr << "--seconds must be positive\n";
      return 2;
    }
    const std::vector<int> cpus = qbench::AllowedCpus();
    if (cpus.empty() || !qbench::PinThread(cpus.back())) {
      std::cerr << "qbench: cannot read or set the CPU affinity\n";
      return 1;
    }
    options.pinned_cpu = cpus.back();
    if (options.workload == "setquery-hotspot") return qbench::RunSetqueryHotspot(options);
    if (options.workload == "wire-zipf") return qbench::RunWireZipf(options);
    if (options.workload == "cluster-cdc") return qbench::RunClusterCdc(options);
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "qbench: " << e.what() << "\n";
    return 1;
  }
}
